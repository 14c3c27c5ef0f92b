"""Experiment orchestration: scenario runs coupling the PDE evolution with
coordinate extraction and the effective mechanical system, epsilon sweeps
with log-log slope fits, Strichartz-type diagnostics, and bit-stable CSV/JSON
persistence."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import evolve as ev
from . import field as fld
from .field import FieldState, Grid, h1_norm, w1s_norm, apply_symmetry
from .groundstate import SolitonFamily
from .mech import (EffectivePotential, MechOrbit, MechState,
                   build_effective_potential, critical_margin, mech_energy, mech_run,
                   orbit_distance, orbit_steps)
from .model import SimulationConfig, config_hash, validate_config
from .modulation import (ExtractionError, SolitonCoordinates, extract,
                         project)

__all__ = [
    "ScenarioError", "RunRecord", "SweepResult", "make_family", "build_initial_state",
    "scenario_run", "epsilon_sweep", "is_admissible", "strichartz_diagnostic",
    "compare", "export_record", "write_csv", "read_csv", "ROW_FIELDS",
]

ROW_FIELDS = ("t", "p1", "p2", "p3", "p4", "q1", "q2", "q3", "q4",
              "H_mech", "H_mech_drift", "phi_H1", "phi_L2", "d_eps",
              "residual_max", "newton_iters", "mass", "H_total", "boundary_mass")



class ScenarioError(ExtractionError):
    """A run the chart cannot carry: a perturbation draw with no part off the
    tangent span, or a sweep with fewer than 3 members that kept their
    extraction to the end."""


# conserved functionals of the field itself (the evolve-level diagnostics)
CONS_FIELDS = ("P1", "P2", "P3", "P4")


@dataclass
class RunRecord:
    config: SimulationConfig
    config_hash: str
    rows: dict                      # column name -> np.ndarray
    summary: dict
    orbit: MechOrbit | None = None
    veff: EffectivePotential | None = None
    strichartz_norms: dict = field(default_factory=dict)   # s -> array over samples
    fields: list = field(default_factory=list)              # (t, FieldState) samples


@dataclass
class SweepResult:
    entries: list                   # per-eps summary dicts
    slopes: dict                    # metric -> {"slope": ..., "residual": ...}
    records: list | None = None     # full RunRecords when requested


def make_family(cfg: SimulationConfig) -> SolitonFamily:
    """The run's soliton family: a power family scales one reference
    profile, a saturable family solves at the energies it meets.  Without a
    `reference_mass`, m is the mass at `reference_energy`, and that solve
    is the first cached profile the family's Newton on m(E) starts from."""
    family = SolitonFamily(cfg.model, cfg.dim, m_ref=cfg.reference_mass or 1.0)
    if cfg.reference_mass is None:
        family.m_ref = family.mass_of_energy(cfg.reference_energy)
    return family


def build_perturbation(grid: Grid, family: SolitonFamily, p_bar, size: float,
                       kmax: float, rng) -> np.ndarray:
    """Band-limited random field, projected symplectically orthogonal at
    eta_{p_bar} and H1-normalized to `size`."""
    if size == 0.0:
        return np.zeros(grid.n, complex)
    spec = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    mask = sum(kj**2 for kj in grid.k) <= kmax**2
    spec = np.where(mask, spec, 0.0)
    raw = FieldState(grid, fld.ifftn(spec))
    tg = family.tangents(np.asarray(p_bar, dtype=float), grid)
    proj = project(raw, tg)
    nrm = h1_norm(proj)
    if nrm == 0.0:
        raise ScenarioError("degenerate perturbation draw")
    return proj.values * (size / nrm)


def build_initial_state(cfg: SimulationConfig, family: SolitonFamily, grid: Grid,
                        rng) -> tuple[FieldState, dict]:
    p_bar = np.asarray(cfg.p_init, dtype=float)
    q_bar = np.asarray(cfg.q_init, dtype=float)
    eta, _, energy, mt = family.build_centered(p_bar, grid)
    size = cfg.perturb_amplitude * math.sqrt(cfg.epsilon)
    delta = build_perturbation(grid, family, p_bar, size, cfg.perturb_kmax, rng)
    psi0 = apply_symmetry(FieldState(grid, eta + delta), q_bar)
    info = {"perturb_h1": size, "soliton_energy": energy, "mtilde": mt}
    return psi0, info


def scenario_run(cfg: SimulationConfig, keep_fields: bool = False) -> RunRecord:
    """Evolve, extract at cadence, track H_mech drift / phi norms / d_eps.

    Each extraction starts from a secant guess: the previous sample's `p`
    and `q` advanced by `coordinate_rates`, plus the previous sample's
    Newton correction (its step in `p`, its miss of the rates in `q`)
    scaled by the ratio of the two gaps.  On a free soliton the miss is a
    constant rate error, and the guess is the root.

    `summary["timing"]` gives the run's wall seconds (`wall_s`) and those of
    each layer: set-up (initial state and `V^eff`), stepping, diagnostics,
    extraction, `mech_run` and `orbit_distance`, with the step and sample
    counts and the stepping threads.  The rows hold no timing, so the CSV
    stays byte-stable."""
    t_start = perf_counter()
    timing = {"extract_s": 0.0, "mech_run_s": 0.0, "orbit_distance_s": 0.0}
    cfg = validate_config(cfg)
    grid = Grid(cfg.dim, cfg.grid_points, cfg.box_length)
    family = make_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    psi0, info = build_initial_state(cfg, family, grid, rng)

    t0 = perf_counter()
    dec0 = extract(psi0, family, guess=SolitonCoordinates(
        np.asarray(cfg.p_init, dtype=float), np.asarray(cfg.q_init, dtype=float)),
        tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    timing["extract_s"] += perf_counter() - t0
    m_used = family.m_ref + dec0.coords.p[3] / 2.0

    # effective potential at the extracted mass, on the symmetry axis
    veff = build_effective_potential(cfg.potential, family, family.energy_of_mass(m_used),
                                     grid)
    axis = veff.axis

    axial = cfg.dim == 1 or (cfg.potential.is_axisymmetric()
                             and np.allclose(np.delete(dec0.coords.p[:3], axis), 0, atol=1e-9)
                             and np.allclose(np.delete(dec0.coords.q[:3], axis), 0, atol=1e-9))
    mech0 = MechState(dec0.coords.p[axis], dec0.coords.q[axis])
    h_mech0 = mech_energy(mech0, m_used, cfg.epsilon, veff)
    timing["setup_s"] = perf_counter() - t_start - timing["extract_s"]

    orbit = None
    if axial and cfg.t_final > 0:
        t0 = perf_counter()
        n_mech = orbit_steps(veff, m_used, cfg.epsilon, cfg.t_final)
        orbit = mech_run(mech0, m_used, cfg.epsilon, veff,
                         dt=cfg.t_final / n_mech, t_final=cfg.t_final)
        timing["mech_run_s"] = perf_counter() - t0

    want_s = sorted({s for _, s in cfg.strichartz_pairs})
    rows = {k: [] for k in ROW_FIELDS}
    sn = {s: [] for s in want_s}
    # the previous sample's coordinates and time, its gap, and its Newton
    # correction: the step in p and the miss of the rates predictor in q
    state = {"prev": dec0.coords, "t_prev": 0.0, "gap": 0.0, "dp": 0.0, "cq": 0.0,
             "partial": False, "t_fail": None, "error": None}
    fields = []

    def observer(i, t, f):
        """Record one sample; True (stop stepping) once extraction fails.
        Sample 0 is psi0 itself, already extracted as dec0."""
        prev = state["prev"]
        gap = t - state["t_prev"]
        w = gap / state["gap"] if state["gap"] else 0.0    # 0: no correction yet
        base = prev.q + gap * family.coordinate_rates(prev.p)
        guess = SolitonCoordinates(prev.p + w * state["dp"], base + w * state["cq"])
        t0 = perf_counter()
        try:
            dec = extract(f, family, guess=guess, tol=cfg.newton_tol,
                          max_iter=cfg.newton_max_iter) if i else dec0
        except ExtractionError as e:
            state["partial"] = True
            state["t_fail"] = t
            state["error"] = str(e)
            return True
        finally:
            timing["extract_s"] += perf_counter() - t0
        state.update(prev=dec.coords, t_prev=t, gap=gap,
                     dp=dec.coords.p - prev.p, cq=dec.coords.q - base)
        point = MechState(dec.coords.p[axis], dec.coords.q[axis])
        hm = mech_energy(point, m_used, cfg.epsilon, veff)
        t0 = perf_counter()
        de = orbit_distance(point, orbit) if orbit is not None else float("nan")
        timing["orbit_distance_s"] += perf_counter() - t0
        rows["t"].append(t)
        for j in range(4):
            rows[f"p{j + 1}"].append(dec.coords.p[j])
            rows[f"q{j + 1}"].append(dec.coords.q[j])
        rows["H_mech"].append(hm)
        rows["H_mech_drift"].append(hm - h_mech0)
        rows["phi_H1"].append(dec.phi_h1)
        rows["phi_L2"].append(dec.phi_l2)
        rows["d_eps"].append(de)
        rows["residual_max"].append(float(np.max(np.abs(dec.residual))))
        rows["newton_iters"].append(dec.newton_iters)
        for s in want_s:
            sn[s].append(w1s_norm(dec.phi, s))
        if keep_fields and (cfg.snapshot_cadence == 0
                            or i % max(cfg.snapshot_cadence, 1) == 0):
            fields.append((t, FieldState(f.grid, f.values)))   # without its spectrum

    final, diags = ev.run(psi0, cfg.model, cfg.potential, cfg.epsilon,
                          cfg.dt, cfg.t_final, cadence=cfg.extraction_cadence,
                          observer=observer, timing=timing)

    n = len(rows["t"])
    for k in CONS_FIELDS:
        rows[k] = []
    for i in range(n):
        rows["mass"].append(diags[i].momenta[3])
        rows["H_total"].append(diags[i].hamiltonian)
        rows["boundary_mass"].append(diags[i].boundary_mass)
        for j, k in enumerate(CONS_FIELDS):
            rows[k].append(diags[i].momenta[j])
    rows = {k: np.asarray(v, dtype=float) for k, v in rows.items()}

    mass0 = rows["mass"][0] if n else float("nan")
    summary = {
        "config_hash": config_hash(cfg),
        "epsilon": cfg.epsilon,
        "m_used": m_used,
        "h_mech0": h_mech0,
        "h_mech0_over_eps": h_mech0 / cfg.epsilon if cfg.epsilon > 0 else float("nan"),
        "max_drift": float(np.max(np.abs(rows["H_mech_drift"]))) if n else float("nan"),
        "max_phi_h1": float(np.max(rows["phi_H1"])) if n else float("nan"),
        "max_d_eps": float(np.nanmax(rows["d_eps"])) if n and orbit is not None else float("nan"),
        "mass_drift_rel": float(np.max(np.abs(rows["mass"] - mass0)) / mass0) if n else float("nan"),
        "h_total_drift": float(np.max(np.abs(rows["H_total"] - rows["H_total"][0]))) if n else float("nan"),
        "max_boundary_mass": float(np.max(rows["boundary_mass"])) if n else float("nan"),
        # entry i counts the samples whose extraction took i Newton iterations
        "newton_iters_hist": np.bincount(rows["newton_iters"].astype(int)).tolist(),
        "residual_max": float(np.max(rows["residual_max"])) if n else float("nan"),
        "partial": state["partial"],
        "t_fail": state["t_fail"],
        "error": state["error"],
        "perturb_h1": info["perturb_h1"],
        "critical_margin": critical_margin(h_mech0 / cfg.epsilon, veff)
        if cfg.epsilon > 0 else float("nan"),
    }
    summary["boundary_warning"] = bool(summary["max_boundary_mass"]
                                       > cfg.boundary_mass_warn)
    summary["stability_metric"] = cfg.stability_metric
    summary["stability_warning"] = bool(cfg.stability_metric
                                        > cfg.stability_threshold)
    summary["critical_margin_ok"] = bool(cfg.epsilon == 0
                                         or summary["critical_margin"]
                                         > cfg.critical_margin_min)
    if want_s and n:
        diag = strichartz_diagnostic(rows["t"], {s: sn[s] for s in want_s},
                                     cfg.strichartz_pairs, dim=cfg.dim)
        summary["strichartz"] = {f"r{r}_s{s}": v["norm"]
                                 for (r, s), v in diag.items()}
    if cfg.epsilon > 0:
        summary["C1"] = summary["max_drift"] / cfg.epsilon**1.5
        summary["C2"] = (summary["max_d_eps"] / cfg.epsilon
                         if np.isfinite(summary["max_d_eps"]) else float("nan"))
        summary["C_phi"] = summary["max_phi_h1"] / cfg.epsilon**0.5
    summary["timing"] = dict(timing, n_samples=n, wall_s=perf_counter() - t_start)
    return RunRecord(config=cfg, config_hash=summary["config_hash"], rows=rows,
                     summary=summary, orbit=orbit, veff=veff,
                     strichartz_norms={s: np.asarray(v) for s, v in sn.items()},
                     fields=fields)


# -- sweeps ---------------------------------------------------------------------

def _sweep_cfg(base: SimulationConfig, eps: float, t0: float | None,
               target_samples: int) -> SimulationConfig:
    t_final = (t0 / eps) if t0 else base.t_final
    steps = int(round(t_final / base.dt))
    cadence = max(base.extraction_cadence, steps // target_samples)
    return validate_config(replace(base, epsilon=eps, t_final=t_final,
                                   extraction_cadence=cadence))


def _run_summary(cfg: SimulationConfig) -> dict:
    return scenario_run(cfg).summary


def epsilon_sweep(base: SimulationConfig, eps_list, t0: float | None = None,
                  threads: int = 1, target_samples: int = 2500,
                  keep_records: bool = False) -> SweepResult:
    """Identical scenario at >= 3 epsilon values; log-log slope fits of the
    max drift, max phi_H1 and max d_eps against eps.

    `threads` is the number of members that run at once, this process
    included.  With `threads > 1` the calling process runs the smallest eps,
    the longest member (horizon t0/eps), and a forked pool of
    `min(threads, members) - 1` workers runs the others, longest first.
    Entries and records come in descending eps either way; a pooled sweep
    raises the error of its smallest failing eps."""
    eps_list = sorted(eps_list, reverse=True)
    if len(eps_list) < 3:
        raise ValueError("need >= 3 epsilon values for a slope fit")
    cfgs = [_sweep_cfg(base, e, t0, target_samples) for e in eps_list]
    run = scenario_run if keep_records else _run_summary
    if threads > 1:
        # Fork, not the platform default (forkserver from Python 3.14): the
        # workers inherit this process as it stands, patched names and open
        # trace spans included.  A fork pool starts all its workers at the
        # first submit, before this process steps a field, so no step thread
        # pool (evolve) is alive at a fork.  The others go longest first, so
        # that no worker idles while this process runs the smallest eps;
        # results are read smallest eps first and keep the eps order.
        with ProcessPoolExecutor(max_workers=min(threads, len(cfgs)) - 1,
                                 mp_context=multiprocessing.get_context("fork")) as ex:
            futures = [ex.submit(run, c) for c in cfgs[-2::-1]]
            last = run(cfgs[-1])
            out = [f.result() for f in futures][::-1] + [last]
    else:
        out = [run(c) for c in cfgs]
    entries = [r.summary for r in out] if keep_records else out
    ok = [e for e in entries if not e["partial"]]
    if len(ok) < 3:
        raise ScenarioError("fewer than 3 successful runs in the sweep")

    slopes = {}
    eps = np.array([e["epsilon"] for e in ok])

    def fit(y):
        if not np.all(np.isfinite(y)) or np.any(y <= 0):
            return {"slope": float("nan"), "residual": float("nan")}
        lx, ly = np.log10(eps), np.log10(y)
        A = np.vstack([lx, np.ones_like(lx)]).T
        coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
        resid = ly - A @ coef
        return {"slope": float(coef[0]),
                "residual": float(np.sqrt(np.mean(resid**2)))}

    for key, col in (("drift", "max_drift"), ("phi_h1", "max_phi_h1"),
                     ("d_eps", "max_d_eps")):
        slopes[key] = fit(np.array([e[col] for e in ok]))
    # Strichartz-type norms, when recorded: scaling against the eps^(1/4) bound
    if all("strichartz" in e for e in ok) and ok and ok[0].get("strichartz"):
        for pair_key in ok[0]["strichartz"]:
            slopes[f"strichartz_{pair_key}"] = fit(
                np.array([e["strichartz"][pair_key] for e in ok]))
    return SweepResult(entries=entries, slopes=slopes,
                       records=out if keep_records else None)


# -- Strichartz-style diagnostics ------------------------------------------------

def is_admissible(r: float, s: float) -> bool:
    """Schrodinger-admissible in 3D: 2/r + 3/s = 3/2, 2 <= s <= 6, r >= 2."""
    if s < 2 or s > 6 or r < 2:
        return False
    lhs = (0.0 if math.isinf(r) else 2.0 / r) + 3.0 / s
    return abs(lhs - 1.5) < 1e-9


def strichartz_diagnostic(times, norms_by_s: dict, pairs, dim: int) -> dict:
    """Discrete (sum_n dt ||phi(t_n)||^r_{W^{1,s}})^(1/r) per admissible pair.

    In 1D the pair list is user-supplied and flagged rather than validated.
    """
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise ValueError("no snapshots")
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    out = {}
    for r, s in pairs:
        adm = is_admissible(r, s)
        if dim == 3 and not adm:
            raise ValueError(f"pair (r={r}, s={s}) is not admissible in 3D")
        w = np.asarray(norms_by_s[s], dtype=float)
        if math.isinf(r):
            val = float(np.max(w))
        else:
            val = float((dt * np.sum(w**r)) ** (1.0 / r))
        flags = []
        if dim == 1:
            flags.append("user_supplied_1d")
            if not adm:
                flags.append("not_admissible_in_3d")
        out[(r, s)] = {"norm": val, "admissible_3d": adm, "flags": flags}
    return out


# -- comparison and persistence ---------------------------------------------------

def compare(record: RunRecord, orbit: MechOrbit) -> dict:
    """Distance of the extracted trajectory to a mechanical orbit, plus a
    side-by-side (t, q_pde, q_mech) table."""
    cfg = record.config
    axis = record.veff.axis
    ts = record.rows["t"]
    d = np.array([
        orbit_distance(MechState(record.rows[f"p{axis + 1}"][i],
                                 record.rows[f"q{axis + 1}"][i]), orbit)
        for i in range(len(ts))
    ])
    q_mech = np.interp(ts, orbit.ts, orbit.qs[:, 0])
    out = {
        "max_d_eps": float(np.max(d)),
        "mean_d_eps": float(np.mean(d)),
        "table": {"t": ts, "q_pde": record.rows[f"q{axis + 1}"], "q_mech": q_mech},
    }
    if cfg.epsilon > 0:
        out["critical_margin"] = critical_margin(
            record.summary["h_mech0"] / cfg.epsilon, record.veff)
    return out


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_csv(path, columns: dict):
    keys = list(columns.keys())
    n = len(next(iter(columns.values()))) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(keys) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(columns[k][i]) for k in keys) + "\n")


def read_csv(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        cols = {k: [] for k in header}
        for lineno, line in enumerate(fh, start=2):
            vals = line.strip().split(",")
            if len(vals) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(vals)} fields, "
                                 f"the header {len(header)}")
            for k, v in zip(header, vals):
                cols[k].append(float(v))
    return {k: np.array(v) for k, v in cols.items()}


def export_record(record: RunRecord, out_dir, prefix: str = "run"):
    """Bit-stable CSV of the rows plus a JSON summary; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{prefix}_series.csv")
    write_csv(csv_path, {k: record.rows[k] for k in ROW_FIELDS})
    json_path = os.path.join(out_dir, f"{prefix}_summary.json")
    with open(json_path, "w") as fh:
        json.dump(record.summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return csv_path, json_path
