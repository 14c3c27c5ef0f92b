import json
import math
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import solitonlab.evolve as ev
import solitonlab.harness as hn
from solitonlab.field import FieldState, Grid, h1_norm, inner
from solitonlab.groundstate import newton_ground_state
from solitonlab.harness import (ROW_FIELDS, build_initial_state, compare,
                                epsilon_sweep, export_record, is_admissible,
                                make_family, read_csv, scenario_run,
                                strichartz_diagnostic, write_csv)
from solitonlab.mech import MechOrbit, MechState, mech_energy
from solitonlab.model import (NonlinearityModel, PotentialModel,
                              SimulationConfig)
from solitonlab.modulation import ExtractionError


def _base_cfg(**kw):
    defaults = dict(
        model=NonlinearityModel("power", 1.0, 2.0),
        potential=PotentialModel.gaussians([(-1.0, [0.0], 2.0)]),
        dim=1, grid_points=256, box_length=40 * math.pi,
        reference_energy=1.0, epsilon=1e-2, dt=1e-3, t_final=2.0,
        extraction_cadence=100, p_init=(0, 0, 0, 0), q_init=(3.0, 0, 0, 0),
        perturb_amplitude=0.5, perturb_kmax=2.0, seed=11)
    defaults.update(kw)
    return SimulationConfig(**defaults)


# -- admissible pairs and Strichartz-type norms --------------------------------------

@pytest.mark.parametrize("r,s,ok", [
    (2.0, 6.0, True),
    (math.inf, 2.0, True),
    (4.0, 3.0, True),          # 2/4 + 3/3 = 3/2
    (2.0, 4.0, False),
    (1.5, 6.0, False),
    (2.0, 7.0, False),
])
def test_is_admissible(r, s, ok):
    assert is_admissible(r, s) is ok


def test_strichartz_zero_series():
    times = np.linspace(0.0, 1.0, 11)
    out = strichartz_diagnostic(times, {6.0: np.zeros(11)}, [(2.0, 6.0)], dim=3)
    assert out[(2.0, 6.0)]["norm"] == 0.0


def test_strichartz_single_snapshot():
    out = strichartz_diagnostic([0.0], {6.0: np.array([0.37])}, [(2.0, 6.0)], dim=3)
    # single term, dt defaults to 1: (dt * w^2)^(1/2)
    assert out[(2.0, 6.0)]["norm"] == pytest.approx(0.37)
    out2 = strichartz_diagnostic([0.0, 0.25], {6.0: np.array([0.0, 0.4])},
                                 [(2.0, 6.0)], dim=3)
    assert out2[(2.0, 6.0)]["norm"] == pytest.approx(math.sqrt(0.25 * 0.16))


def test_strichartz_rejects_nonadmissible_in_3d():
    with pytest.raises(ValueError, match="not admissible"):
        strichartz_diagnostic([0.0, 0.1], {4.0: np.array([1.0, 1.0])},
                              [(2.0, 4.0)], dim=3)


def test_strichartz_flags_in_1d():
    out = strichartz_diagnostic([0.0, 0.1], {4.0: np.array([1.0, 1.0])},
                                [(2.0, 4.0)], dim=1)
    flags = out[(2.0, 4.0)]["flags"]
    assert "user_supplied_1d" in flags
    assert "not_admissible_in_3d" in flags


def test_strichartz_infinite_r():
    out = strichartz_diagnostic([0.0, 0.1, 0.2], {2.0: np.array([0.1, 0.5, 0.2])},
                                [(math.inf, 2.0)], dim=3)
    assert out[(math.inf, 2.0)]["norm"] == pytest.approx(0.5)


def test_strichartz_no_snapshots():
    with pytest.raises(ValueError, match="no snapshots"):
        strichartz_diagnostic([], {}, [(2.0, 6.0)], dim=3)


# -- persistence ----------------------------------------------------------------------

def test_csv_roundtrip_exact(tmp_path, rng):
    cols = {"a": rng.standard_normal(40) * 10.0**rng.integers(-12, 12, 40),
            "b": rng.standard_normal(40)}
    path = tmp_path / "t.csv"
    write_csv(path, cols)
    back = read_csv(path)
    assert np.array_equal(back["a"], cols["a"])
    assert np.array_equal(back["b"], cols["b"])


@pytest.mark.parametrize("bad, lineno", [("3", 3), ("4,5,6", 3)])
def test_read_csv_rejects_ragged_rows(tmp_path, bad, lineno):
    # a row with more or fewer fields than the header would shift the columns
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1,2\n{bad}\n7,8\n")
    with pytest.raises(ValueError, match=f"line {lineno} "):
        read_csv(path)


def test_export_and_reimport(tmp_path):
    cfg = _base_cfg(t_final=0.5)
    rec = scenario_run(cfg)
    csv_path, json_path = export_record(rec, tmp_path, prefix="t")
    back = read_csv(csv_path)
    for k in ROW_FIELDS:
        assert np.array_equal(back[k][~np.isnan(back[k])],
                              rec.rows[k][~np.isnan(rec.rows[k])])


def test_determinism_byte_identical(tmp_path):
    cfg = _base_cfg(t_final=0.5)
    p1 = export_record(scenario_run(cfg), tmp_path, prefix="r1")[0]
    p2 = export_record(scenario_run(cfg), tmp_path, prefix="r2")[0]
    assert open(p1, "rb").read() == open(p2, "rb").read()


# -- initial state --------------------------------------------------------------------

def test_perturbation_is_orthogonal_and_scaled(grid512):
    cfg = _base_cfg(grid_points=512)
    family = make_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    psi0, info = build_initial_state(cfg, family, grid512, rng)
    tg = family.tangents(np.asarray(cfg.p_init, float), grid512)
    # pull the datum back to the soliton frame and subtract
    from solitonlab.field import apply_symmetry
    phi = apply_symmetry(psi0, -np.asarray(cfg.q_init, float))
    phi = FieldState(grid512, phi.values - tg.eta)
    assert h1_norm(phi) == pytest.approx(
        cfg.perturb_amplitude * math.sqrt(cfg.epsilon), rel=1e-12)
    for j in tg.active:
        assert abs(inner(FieldState(grid512, tg.A_eta[j]), phi)) < 1e-11
        assert abs(inner(FieldState(grid512, 1j * tg.t[j]), phi)) < 1e-11


def test_perturbation_zero_at_eps0(grid512):
    cfg = _base_cfg(grid_points=512, epsilon=0.0)
    family = make_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    psi0, info = build_initial_state(cfg, family, grid512, rng)
    assert info["perturb_h1"] == 0.0


# -- scenario runs --------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    return scenario_run(_base_cfg())


def test_run_conservation_columns(short_run):
    rows = short_run.rows
    assert short_run.summary["mass_drift_rel"] < 1e-10
    assert short_run.summary["h_total_drift"] < 1e-6
    assert np.all(rows["residual_max"] <= 1e-10)


def test_run_h_mech_consistency(short_run):
    # the recorded H_mech equals mech_energy recomputed from the same rows
    rows = short_run.rows
    cfg = short_run.config
    m = short_run.summary["m_used"]
    for i in (0, len(rows["t"]) // 2, len(rows["t"]) - 1):
        s = MechState([rows["p1"][i]], [rows["q1"][i]])
        assert rows["H_mech"][i] == pytest.approx(
            mech_energy(s, m, cfg.epsilon, short_run.veff), rel=1e-12)


def test_run_free_soliton_drift_is_integrator_level():
    # N = 512: the moving carrier needs the finer band limit
    cfg = _base_cfg(grid_points=512, epsilon=0.0, t_final=5.0,
                    q_init=(0, 0, 0, 0), p_init=(0.4, 0, 0, 0),
                    potential=PotentialModel())
    rec = scenario_run(cfg)
    assert rec.summary["max_drift"] < 1e-10
    assert rec.summary["mass_drift_rel"] < 1e-10


def test_compare_free_soliton_vs_free_mech():
    cfg = _base_cfg(grid_points=512, epsilon=0.0, t_final=10.0,
                    q_init=(0, 0, 0, 0), p_init=(0.4, 0, 0, 0),
                    potential=PotentialModel(), extraction_cadence=250)
    rec = scenario_run(cfg)
    rep = compare(rec, rec.orbit)
    tab = rep["table"]
    assert np.max(np.abs(tab["q_pde"] - tab["q_mech"])) < 1e-6
    assert rep["max_d_eps"] < 1e-6


def test_compare_own_trajectory_is_zero(short_run):
    # reinterpret the extracted coordinates as an orbit: distance ~ 0
    rows = short_run.rows
    orbit = MechOrbit(rows["t"], rows["p1"].reshape(-1, 1),
                      rows["q1"].reshape(-1, 1), rows["H_mech"],
                      short_run.summary["m_used"], short_run.config.epsilon)
    rep = compare(short_run, orbit)
    assert rep["max_d_eps"] < 1e-12


def test_perturbed_start_extraction_shifts():
    # generic O(sqrt(eps)) datum: extraction succeeds with nearby coordinates
    cfg = _base_cfg(t_final=0.0, perturb_amplitude=0.5)
    rec = scenario_run(cfg)
    assert not rec.summary["partial"]
    assert rec.summary["error"] is None
    assert abs(rec.rows["q1"][0] - 3.0) < 0.5 * math.sqrt(cfg.epsilon)
    assert rec.rows["phi_H1"][0] == pytest.approx(
        0.5 * math.sqrt(cfg.epsilon), rel=1e-6)


def test_partial_run_marking(monkeypatch):
    calls = {"n": 0}
    real = hn.extract

    def failing(*a, **kw):
        calls["n"] += 1
        if calls["n"] >= 3:      # dec0 (also sample 0), t = 0.1, then t = 0.2
            raise ExtractionError("synthetic failure")
        return real(*a, **kw)

    steps = []
    real_block = ev.Stepper.step_block

    def counting(self, vals, n_steps):
        steps.append(n_steps)
        return real_block(self, vals, n_steps)

    monkeypatch.setattr(hn, "extract", failing)
    monkeypatch.setattr(ev.Stepper, "step_block", counting)
    cfg = _base_cfg(t_final=1.0, extraction_cadence=100)
    rec = scenario_run(cfg)
    assert rec.summary["partial"]
    assert rec.summary["t_fail"] == pytest.approx(0.2)
    assert rec.summary["error"] == "synthetic failure"
    assert len(rec.rows["t"]) == 2   # t = 0 and one successful sample
    # stepping stops at the failed sample instead of running to t_final
    assert sum(steps) == 200 < round(cfg.t_final / cfg.dt)


def test_one_extraction_per_sample(monkeypatch):
    # the initial extraction serves sample 0; no second solve of psi0
    calls = []
    real = hn.extract
    monkeypatch.setattr(hn, "extract", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rec = scenario_run(_base_cfg(t_final=0.5))
    assert len(calls) == len(rec.rows["t"]) == 6


def test_sweep_requires_three_eps():
    with pytest.raises(ValueError, match=">= 3"):
        epsilon_sweep(_base_cfg(), [1e-2, 4e-3])


def test_sweep_too_few_successes_is_numerical(monkeypatch):
    # members that lost their extraction leave no fit: a numerical failure
    monkeypatch.setattr(hn, "_run_summary", lambda cfg: {"partial": True})
    with pytest.raises(hn.ScenarioError, match="fewer than 3"):
        epsilon_sweep(_base_cfg(), [1e-2, 4e-3, 1e-3])


def test_degenerate_perturbation_is_numerical():
    # a zero draw leaves nothing off the tangent span to normalise
    class ZeroRng:
        def standard_normal(self, n):
            return np.zeros(n)

    cfg = _base_cfg()
    grid = Grid(1, cfg.grid_points, cfg.box_length)
    with pytest.raises(hn.ScenarioError, match="degenerate"):
        hn.build_perturbation(grid, make_family(cfg), np.zeros(4), 0.5, 2.0, ZeroRng())


def _tiny_sweep():
    return epsilon_sweep(_base_cfg(t_final=0.0), [1e-2, 4e-3, 1e-3], t0=0.2)


def _sweep_pins(res):
    """A sweep's pinned numbers: its slopes and each member's SWEEP_KEYS."""
    return {"slopes": {k: v["slope"] for k, v in res.slopes.items()},
            "entries": [{k: e[k] for k in SWEEP_KEYS} for e in res.entries]}


def test_sweep_tiny_slopes():
    # micro-sweep: slopes exist and the phi slope is ~0.5 by construction
    res = _tiny_sweep()
    assert set(res.slopes) == {"drift", "phi_h1", "d_eps"}
    assert res.slopes["phi_h1"]["slope"] == pytest.approx(0.5, abs=0.1)
    # and the slopes and each member's constants and margin are the pinned ones
    got, want = _sweep_pins(res), json.loads(GOLDEN.read_text())["tiny_sweep"]
    assert got["slopes"].keys() == want["slopes"].keys()
    for k, v in want["slopes"].items():
        assert got["slopes"][k] == pytest.approx(v, rel=0, abs=1e-9), k
    assert len(got["entries"]) == len(want["entries"])
    for e, w in zip(got["entries"], want["entries"]):
        for k in SWEEP_KEYS:
            assert e[k] == pytest.approx(w[k], rel=0, abs=1e-9), k


def test_pooled_sweep_runs_its_longest_member_in_the_caller(monkeypatch):
    # `threads` counts the calling process: it runs the smallest eps, the
    # longest member, and the pool holds at most one worker per other member
    real = hn.scenario_run
    sizes = []

    def stamped(cfg, *args, **kwargs):
        rec = real(cfg, *args, **kwargs)
        rec.summary["pid"] = os.getpid()
        return rec

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(hn, "scenario_run", stamped)
    monkeypatch.setattr(hn, "ProcessPoolExecutor", Pool)
    cfg = _base_cfg(t_final=0.0, dt=4e-3)
    eps = [1e-2, 4e-3, 1e-3]

    def bare(res):
        return [json.dumps({k: v for k, v in e.items() if k not in ("timing", "pid")},
                           sort_keys=True) for e in res.entries]

    serial = epsilon_sweep(cfg, eps, t0=0.2)
    two = epsilon_sweep(cfg, eps, t0=0.2, threads=2)
    assert sizes == [1]
    pids = [e["pid"] for e in two.entries]
    assert pids[2] == os.getpid()
    assert pids[0] == pids[1] != os.getpid()
    eight = epsilon_sweep(cfg, eps, t0=0.2, threads=8)
    assert sizes == [1, 2]
    assert [e["epsilon"] for e in serial.entries] == eps
    assert bare(two) == bare(serial)
    assert bare(eight) == bare(serial)


def test_strichartz_norms_recorded():
    cfg = _base_cfg(t_final=0.5, strichartz_pairs=((2.0, 6.0), (math.inf, 2.0)))
    rec = scenario_run(cfg)
    assert set(rec.strichartz_norms) == {2.0, 6.0}
    times = rec.rows["t"]
    out = strichartz_diagnostic(times, rec.strichartz_norms,
                                rec.config.strichartz_pairs, dim=1)
    assert out[(2.0, 6.0)]["norm"] > 0
    assert "user_supplied_1d" in out[(2.0, 6.0)]["flags"]


def test_newton_statistics_in_summary(short_run):
    hist = short_run.summary["newton_iters_hist"]
    iters = short_run.rows["newton_iters"]
    assert hist == [int(np.sum(iters == i)) for i in range(len(hist))]
    assert sum(hist) == len(short_run.rows["t"]) and hist[-1] > 0
    assert short_run.summary["residual_max"] == np.max(short_run.rows["residual_max"])
    assert short_run.summary["residual_max"] <= short_run.config.newton_tol
    json.dumps(short_run.summary, default=float)


def test_warm_start_short_run(short_run):
    # the secant guess leaves one Newton iteration per sample; only the first
    # sample after t = 0, guessed by the rates alone, may take more
    assert np.sum(short_run.rows["newton_iters"] > 1) <= 1


def test_critical_margin_reported(short_run):
    assert short_run.summary["critical_margin"] > 0.2


# -- golden pins ----------------------------------------------------------------------
# Rows of two runs, and the tiny sweep's slopes and per-member constants,
# pinned so that a refactor of a hot path that moves them fails here.
# Regenerate with
# `PYTHONPATH=src python tests/test_harness.py` only when a change of the
# computed numbers is intended.

GOLDEN = pathlib.Path(__file__).with_name("golden_runs.json")
CLOSE_COLS = ("p1", "p2", "p3", "p4", "q1", "q2", "q3", "q4", "H_mech",
              "H_mech_drift", "phi_H1", "phi_L2", "d_eps")
EXACT_COLS = ("mass", "H_total", "boundary_mass")     # evolve-level, bit for bit
SWEEP_KEYS = ("C1", "C2", "C_phi", "critical_margin")  # per sweep member, to 1e-9


def _free_run_cfg():
    """Criterion 2's free soliton to T = 5 (the `free_run` benchmark inputs)."""
    return _base_cfg(grid_points=512, potential=PotentialModel(), epsilon=0.0,
                     reference_energy=0.75, t_final=5.0, extraction_cadence=50,
                     p_init=(0.4 * math.sqrt(0.75), 0, 0, 0), q_init=(0, 0, 0, 0))


def _check_golden(rec, name):
    want = json.loads(GOLDEN.read_text())[name]
    for k in CLOSE_COLS:
        np.testing.assert_allclose(rec.rows[k], want[k], rtol=0, atol=1e-9, err_msg=k)
    for k in EXACT_COLS:
        assert np.array_equal(rec.rows[k], want[k]), k


def test_golden_short_run(short_run):
    _check_golden(short_run, "short_run")


@pytest.fixture(scope="module")
def free_run():
    return scenario_run(_free_run_cfg())


def test_golden_free_run(free_run):
    _check_golden(free_run, "free_run")


def test_warm_start_free_run(free_run):
    # on a free soliton the rates predictor misses by a constant rate, so
    # from the second sample after t = 0 the secant guess is the root
    assert np.all(free_run.rows["newton_iters"][2:] == 0)
    assert free_run.summary["newton_iters_hist"] == [100, 1]


def test_warm_start_shorter_last_gap():
    # t = 5.025 ends on a half gap: the previous correction scales with it
    rec = scenario_run(replace(_free_run_cfg(), t_final=5.025))
    assert rec.rows["t"][-1] == pytest.approx(5.025)
    assert np.all(rec.rows["newton_iters"][2:] == 0)


def test_saturable_free_run():
    # the free_run set-up with a saturable nonlinearity (c = 3): every sample
    # is extracted, and q drifts at the family's free rates p/m and E + v^2/4.
    # The family's Newton on m(E) starts from the cached profile nearest in
    # mass, so the run needs few radial solves (62 from a 9-solve mass curve)
    cfg = replace(_free_run_cfg(), model=NonlinearityModel("saturable", c=3.0))
    newton_ground_state.cache_clear()
    rec = scenario_run(cfg)
    assert newton_ground_state.cache_info().misses <= 12
    rows = rec.rows
    assert not rec.summary["partial"] and rec.summary["error"] is None
    assert len(rows["t"]) == 101
    rates = make_family(cfg).coordinate_rates(cfg.p_init)
    for k, j in (("q1", 0), ("q4", 3)):
        assert abs(np.polyfit(rows["t"], rows[k], 1)[0] - rates[j]) <= 1e-6, k
    assert rec.summary["max_phi_h1"] <= 1e-6


def test_saturable_reference_energy_near_c():
    # E_ref = 0.8 c: its ground state solves, and the family asks for no
    # energy at or past c (a mass curve up to 1.5 E_ref would)
    cfg = replace(_free_run_cfg(), model=NonlinearityModel("saturable", c=3.0),
                  reference_energy=2.4, t_final=0.5)
    rec = scenario_run(cfg)
    assert not rec.summary["partial"] and rec.summary["error"] is None
    assert rec.summary["max_phi_h1"] <= 1e-6


def test_saturable_energy_of_mass_at_noise_floor():
    # masses a few ulps apart next to the reference mass at E = 0.75: a Newton
    # step inside the profile cache's rounding returns to a cached profile,
    # and that must not cycle until "did not converge"
    family = make_family(replace(_free_run_cfg(),
                                 model=NonlinearityModel("saturable", c=3.0)))
    m0 = family.mass_of_energy(0.75)
    for m in m0 + np.arange(400) * 7.3e-15:
        E = family.energy_of_mass(m)
        assert abs(family.profile(E).mass - m) <= 2e-13 * m


def test_run_timing(free_run):
    # the layers are disjoint and leave out only the per-sample bookkeeping
    # and the summary: within 10 % of the run's wall time
    t = free_run.summary["timing"]
    layers = ("setup_s", "step_s", "diag_s", "extract_s", "mech_run_s",
              "orbit_distance_s")
    assert all(t[k] > 0 for k in layers)
    assert 0.9 * t["wall_s"] <= sum(t[k] for k in layers) <= t["wall_s"]
    assert (t["n_steps"], t["n_samples"], t["step_threads"]) == (5000, 101, 1)
    assert "timing" not in free_run.rows
    json.dumps(free_run.summary, default=float)


if __name__ == "__main__":
    runs = {"short_run": scenario_run(_base_cfg()),
            "free_run": scenario_run(_free_run_cfg())}
    golden = {name: {k: rec.rows[k].tolist() for k in CLOSE_COLS + EXACT_COLS}
              for name, rec in runs.items()}
    golden["tiny_sweep"] = _sweep_pins(_tiny_sweep())
    GOLDEN.write_text(json.dumps(golden) + "\n")
