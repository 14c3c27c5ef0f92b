"""The benchmark's workloads: inputs made from the seed, the timed operation,
and the checks on its outputs.

The three workloads put most of their time in different layers (see
README.md):

  free_run    acceptance criterion 2 to T = 5: a free cubic soliton
              extracted every 50 steps, where extraction and orbit distance
              outweigh stepping
  sweep       criteria 6-8 at one tenth of the acceptance horizon with
              dt = 4e-3: three epsilon members on a two-process pool, mostly
              Strang stepping with the potential on
  soliton_3d  criterion 10 on 48^3 in a centred well: the 3D ground state,
              its mass curve, and Strang steps where FFT arithmetic dominates

Only ``sweep`` draws random input (its perturbation); ``free_run`` and
``soliton_3d`` are the same problem for every seed.  Calls go through module
attributes so that the probes installed by ``spans.Tracer`` see them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from solitonlab import evolve, groundstate, harness
from solitonlab.field import Grid
from solitonlab.model import NonlinearityModel, PotentialModel, SimulationConfig

CUBIC = NonlinearityModel("power", sigma=1.0, c=2.0)
WELL = PotentialModel.gaussians([(-1.0, [0.0], 2.0)])
L_BOX = 40.0 * math.pi
DT = 1e-3

FREE_E, FREE_V, FREE_T = 0.75, 0.4, 5.0

SWEEP_EPS = (1e-2, 4e-3, 1e-3)
SWEEP_T0 = 0.5
SWEEP_DT = 4e-3
SWEEP_SAMPLES = 100
SWEEP_THREADS = min(2, len(os.sched_getaffinity(0)))

POWER_3D = NonlinearityModel("power", sigma=0.5, c=1.0)
WELL_3D = PotentialModel.gaussians([(-1.0, [0.0, 0.0, 0.0], 2.0)])
EPS_3D, STEPS_3D, CADENCE_3D = 1e-2, 150, 50


def _fit_slope(ts, ys) -> float:
    A = np.vstack([ts, np.ones_like(ts)]).T
    return float(np.linalg.lstsq(A, ys, rcond=None)[0][0])


class Checks:
    """Measured figures of one repetition and the bounds they failed."""

    def __init__(self):
        self.figures = {}
        self.errors = []

    def bound(self, label, value, ok):
        self.figures[label] = float(value)
        if not ok:
            self.errors.append(f"{label} = {value:.6g}")


# -- free_run ---------------------------------------------------------------------

def free_run_inputs(seed: int) -> SimulationConfig:
    m = math.sqrt(FREE_E)
    return SimulationConfig(
        model=CUBIC, potential=PotentialModel(), dim=1, grid_points=512,
        box_length=L_BOX, reference_energy=FREE_E, epsilon=0.0, dt=DT,
        t_final=FREE_T, extraction_cadence=50, p_init=(FREE_V * m, 0, 0, 0),
        q_init=(0, 0, 0, 0), seed=seed)


def free_run_op(cfg: SimulationConfig):
    return harness.scenario_run(cfg)


def free_run_check(cfg, rec) -> Checks:
    rows, s = rec.rows, rec.summary
    c = Checks()
    v = _fit_slope(rows["t"], rows["q1"])
    g = _fit_slope(rows["t"], rows["q4"])
    gauge = FREE_E + FREE_V**2 / 4.0
    c.bound("dq1/dt - v", v - FREE_V, abs(v - FREE_V) <= 1e-6)
    c.bound("dq4/dt - (E + v^2/4)", g - gauge, abs(g - gauge) <= 1e-6)
    c.bound("max phi_H1", s["max_phi_h1"], s["max_phi_h1"] <= 1e-6)
    c.bound("mass drift", s["mass_drift_rel"], s["mass_drift_rel"] <= 1e-10)
    c.bound("H drift", s["h_total_drift"], s["h_total_drift"] <= 1e-6)
    p1 = float(np.max(np.abs(rows["P1"] - rows["P1"][0])))
    c.bound("P1 drift", p1, p1 <= 1e-8)
    return c


# -- sweep ------------------------------------------------------------------------

def sweep_inputs(seed: int) -> SimulationConfig:
    return SimulationConfig(
        model=CUBIC, potential=WELL, dim=1, grid_points=512, box_length=L_BOX,
        reference_energy=1.0, dt=SWEEP_DT, extraction_cadence=50,
        p_init=(0, 0, 0, 0), q_init=(3.0, 0, 0, 0),
        perturb_amplitude=0.5, perturb_kmax=2.0, seed=seed)


def sweep_op(base: SimulationConfig):
    return harness.epsilon_sweep(base, list(SWEEP_EPS), t0=SWEEP_T0,
                                 threads=SWEEP_THREADS,
                                 target_samples=SWEEP_SAMPLES)


def sweep_check(base, res) -> Checks:
    c = Checks()
    sl = res.slopes
    d, p, o = sl["drift"], sl["phi_h1"], sl["d_eps"]
    c.bound("phi_H1 slope - 0.5", p["slope"] - 0.5, abs(p["slope"] - 0.5) <= 0.15)
    # Criteria 6 and 8 ask for drift slope >= 1.4 and d_eps slope >= 0.9
    # (residuals <= 0.15) at the acceptance horizon 5/eps.  At 0.5/eps a
    # few perturbation draws fall just short (drift 1.35, d_eps 0.86 on one
    # seed of 27), so the gates sit below every draw seen yet far above
    # what a broken law gives (a first-order drift, slope 1, or d_eps
    # growing like eps^1/2); see README.md for the figures.
    c.bound("drift slope", d["slope"], d["slope"] >= 1.2)
    c.bound("drift residual", d["residual"], d["residual"] <= 0.3)
    c.bound("d_eps slope", o["slope"], o["slope"] >= 0.75)
    c.bound("d_eps residual", o["residual"], o["residual"] <= 0.3)
    for e in res.entries:
        tag = f"eps={e['epsilon']:g}"
        c.bound(f"{tag} critical margin", e["critical_margin"],
                e["critical_margin"] > 0.05)
        c.bound(f"{tag} mass drift", e["mass_drift_rel"], e["mass_drift_rel"] <= 1e-10)
        c.bound(f"{tag} H drift", e["h_total_drift"], e["h_total_drift"] <= 1e-6)
    return c


# -- soliton_3d ----------------------------------------------------------------

def soliton_3d_inputs(seed: int) -> Grid:
    return Grid(3, 48, 44.0)


def soliton_3d_op(grid: Grid):
    groundstate.solve_ground_state(POWER_3D, 1.0, dim=3, r_max=30.0, n=1536)
    curve = groundstate.mass_curve(POWER_3D, 0.9, 1.1, 3, dim=3, r_max=30.0, n=1024)
    fam = groundstate.SolitonFamily(POWER_3D, 3, m_ref=curve.mass_at(1.0),
                                    curve=curve, r_max=30.0, n_r=1536)
    psi0 = fam.build(groundstate.SolitonParameters(), grid)
    final, diags = evolve.run(psi0, POWER_3D, WELL_3D, EPS_3D, DT, STEPS_3D * DT,
                              cadence=CADENCE_3D)
    return psi0, final, diags


def soliton_3d_check(grid, out) -> Checks:
    psi0, final, diags = out
    c = Checks()
    masses = np.array([dg.momenta[3] for dg in diags])
    drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    c.bound("mass drift", drift, drift <= 1e-8)
    # symmetric Strang splitting is time-reversible: -dt steps undo +dt steps
    back = evolve.Stepper(grid, -DT, POWER_3D, evolve.potential_on_grid(WELL_3D, grid),
                          EPS_3D).step_block(final.values.copy(), STEPS_3D)
    err = float(np.max(np.abs(back - psi0.values)) / np.max(np.abs(psi0.values)))
    c.bound("time-reversal error", err, err <= 1e-10)
    return c


# -- registry -----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable
    operation: Callable
    check: Callable
    operations: int          # scenario runs (sweep members, 3D runs) per repetition
    steps: int               # Strang steps per repetition


WORKLOADS = {
    "free_run": Workload(free_run_inputs, free_run_op, free_run_check, 1,
                         int(round(FREE_T / DT))),
    "sweep": Workload(sweep_inputs, sweep_op, sweep_check, len(SWEEP_EPS),
                      sum(int(round(SWEEP_T0 / e / SWEEP_DT)) for e in SWEEP_EPS)),
    "soliton_3d": Workload(soliton_3d_inputs, soliton_3d_op, soliton_3d_check, 1,
                           STEPS_3D),
}
