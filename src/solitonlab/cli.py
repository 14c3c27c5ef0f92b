"""Command-line interface.

Subcommands: groundstate, masscurve, spectrum, simulate, mech, sweep, compare.
Exit codes: 0 ok, 1 config error, 2 numerical failure (an exception of the
NUMERICAL_ERRORS family), 3 partial run.  Any other exception is a bug in the
program and propagates with its traceback.  Progress lines (the "solitonlab"
logger at INFO) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .evolve import BlowupError
from .groundstate import (GroundStateError, check_h2, mass_curve, mass_slope,
                          solve_ground_state)
from .harness import (compare, epsilon_sweep, export_record, scenario_run,
                      write_csv)
from .field import save_field
from .mech import MechError, MechState, build_effective_potential, mech_run
from .model import ConfigError, load_config
from .modulation import ExtractionError
from .spectral import SpectralError, check_h2_h3_h5

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_PARTIAL = 0, 1, 2, 3

# failures of the numerics, not of the program (exit 2)
NUMERICAL_ERRORS = (GroundStateError, ExtractionError, BlowupError, MechError,
                    SpectralError)


def _outdir(args, cfg):
    out = args.out or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_groundstate(args, cfg):
    out = _outdir(args, cfg)
    prof = solve_ground_state(cfg.model, cfg.reference_energy, cfg.dim)
    write_csv(os.path.join(out, "profile.csv"), {"r": prof.r, "b": prof.b})
    summary = {
        "energy": prof.energy, "mass": prof.mass, "residual": prof.residual,
        "decay_rate": prof.decay_rate, "h2_ok": bool(mass_slope(prof) > 0),
    }
    with open(os.path.join(out, "groundstate.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
    return EXIT_OK


def cmd_masscurve(args, cfg):
    out = _outdir(args, cfg)
    curve = mass_curve(cfg.model, args.e_lo, args.e_hi, args.samples, dim=cfg.dim)
    write_csv(os.path.join(out, "masscurve.csv"),
              {"E": curve.energies, "m": curve.masses, "dm_dE": curve.slopes})
    ok, info = check_h2(curve)
    with open(os.path.join(out, "masscurve.json"), "w") as fh:
        json.dump({"h2_ok": ok, **info}, fh, indent=2, sort_keys=True, default=float)
    return EXIT_OK


def cmd_spectrum(args, cfg):
    out = _outdir(args, cfg)
    verdict = check_h2_h3_h5(cfg.model, cfg.reference_energy, dim=cfg.dim,
                             n=args.n, r_max=args.r_max)
    with open(os.path.join(out, "spectrum.json"), "w") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True, default=float)
    cols = {"operator": [], "sector": [], "index": [], "eigenvalue": []}
    for key, w in verdict["spectral"]["eigenvalues"].items():
        op, sec = key.split("_")
        for i, lam in enumerate(w):
            cols["operator"].append(0.0 if op == "plus" else 1.0)
            cols["sector"].append(int(sec))
            cols["index"].append(i)
            cols["eigenvalue"].append(lam)
    write_csv(os.path.join(out, "eigenvalues.csv"), cols)
    return EXIT_OK


def cmd_simulate(args, cfg):
    out = _outdir(args, cfg)
    rec = scenario_run(cfg, keep_fields=cfg.snapshot_cadence > 0)
    export_record(rec, out, prefix="simulate")
    diag_cols = {k: rec.rows[k] for k in
                 ("t", "H_total", "P1", "P2", "P3", "P4", "boundary_mass")}
    write_csv(os.path.join(out, "diagnostics.csv"), diag_cols)
    if rec.fields:
        from .field import export_abs2_csv
        for i, (t, f) in enumerate(rec.fields):
            save_field(f, os.path.join(out, f"snap_{i:05d}.bin"))
        export_abs2_csv(rec.fields[-1][1], os.path.join(out, "final_abs2.csv"))
    return EXIT_PARTIAL if rec.summary["partial"] else EXIT_OK


def cmd_mech(args, cfg):
    out = _outdir(args, cfg)
    from .field import Grid
    from .harness import make_family
    grid = Grid(cfg.dim, cfg.grid_points, cfg.box_length)
    family = make_family(cfg)
    m = family.m_ref + cfg.p_init[3] / 2.0        # the mass of the run's soliton
    veff = build_effective_potential(cfg.potential, family, family.energy_of_mass(m), grid)
    orbit = mech_run(MechState(cfg.p_init[veff.axis], cfg.q_init[veff.axis]), m,
                     cfg.epsilon, veff, dt=cfg.dt, t_final=cfg.t_final)
    write_csv(os.path.join(out, "orbit.csv"),
              {"t": orbit.ts, "p": orbit.ps[:, 0], "q": orbit.qs[:, 0],
               "H_mech": orbit.energies})
    write_csv(os.path.join(out, "veff.csv"),
              {"q": veff.grid.axes[0], "Veff": veff.values, "dVeff": veff.grad})
    return EXIT_OK


def cmd_sweep(args, cfg):
    try:
        eps_list = [float(v) for v in args.eps.split(",")]
    except ValueError as e:
        raise ConfigError([f"--eps: {e}"]) from e
    if len(eps_list) < 3:
        raise ConfigError(["--eps: need >= 3 epsilon values for a slope fit"])
    out = _outdir(args, cfg)
    res = epsilon_sweep(cfg, eps_list, t0=args.t0, threads=args.threads)
    with open(os.path.join(out, "sweep_summary.json"), "w") as fh:
        json.dump({"entries": res.entries, "slopes": res.slopes},
                  fh, indent=2, sort_keys=True, default=float)
    return EXIT_PARTIAL if any(e["partial"] for e in res.entries) else EXIT_OK


def cmd_compare(args, cfg):
    out = _outdir(args, cfg)
    rec = scenario_run(cfg)
    rep = compare(rec, rec.orbit)
    write_csv(os.path.join(out, "compare.csv"), rep.pop("table"))
    with open(os.path.join(out, "compare.json"), "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True, default=float)
    return EXIT_PARTIAL if rec.summary["partial"] else EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="solitonlab",
                                description="soliton dynamics laboratory")
    p.add_argument("--config", required=True, help="path to the INI config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p.add_argument("--threads", type=int, default=1,
                   help="processes running sweep members at once, this one included")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("groundstate")
    mc = sub.add_parser("masscurve")
    mc.add_argument("--e-lo", type=float, default=0.5)
    mc.add_argument("--e-hi", type=float, default=2.0)
    mc.add_argument("--samples", type=int, default=9)
    sp = sub.add_parser("spectrum")
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument("--r-max", type=float, default=40.0)
    sub.add_parser("simulate")
    sub.add_parser("mech")
    sw = sub.add_parser("sweep")
    sw.add_argument("--eps", required=True, help="comma-separated epsilon list")
    sw.add_argument("--t0", type=float, default=None, help="horizon T0 (runs to T0/eps)")
    sub.add_parser("compare")
    return p


_COMMANDS = {
    "groundstate": cmd_groundstate,
    "masscurve": cmd_masscurve,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "mech": cmd_mech,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("solitonlab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _main(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _main(args) -> int:
    try:
        if args.threads < 1:
            raise ConfigError([f"--threads: need >= 1, got {args.threads}"])
        cfg = load_config(args.config)
        if args.seed is not None:
            from .model import with_updates
            cfg = with_updates(cfg, seed=args.seed)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
