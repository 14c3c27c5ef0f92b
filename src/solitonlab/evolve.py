"""Strang split-step spectral time stepping with conservation bookkeeping.

The integrator advances  i psi_t = Lap psi + beta'(|psi|^2) psi - eps V psi
(the gauge-conjugate orientation: with it a soliton of momentum p travels
with velocity +p/m and its gauge angle grows at +(E + v^2/4), the sign
conventions used by the extraction chart and the effective mechanical
system).  Substep order is linear-half / nonlinear-full / linear-half; the
nonlinear+potential substep is a pure phase rotation and therefore exact,
which lets consecutive steps be fused into blocks at one FFT pair per step.

The kernel (`Stepper`) makes one scipy.fft call per transform: `fft`/`ifft`
in 1D, `fftn`/`ifftn` over all axes in 3D.  Only the first forward
transform of a block reads the caller's array; every later transform
overwrites its input, and the substeps work in place.  The linear substep is
`mult * h` with the multiplier as the first operand (the complex multiply
uses FMA, so `h * mult` differs in the last bit).  The nonlinear substep
forms the phase -dt (beta'(|psi|^2) - eps V) with `eps V` precomputed and
writes exp(i phase) into one complex buffer as cos and sin.  In 1D this is
bit for bit the arithmetic of numpy.fft.fftn and np.exp; in 3D it agrees
with it to roundoff.

Every substep conserves mass exactly; in float64 the step carries a
per-step round-off with a fixed sign, about +1.2e-16 relative at N = 512.
Its cause is the rounding of the FFT twiddle factors (fl(sqrt(2)/2) lies
4.8e-17 above sqrt(2)/2, so |W_8|^2 = 1 + 1.37e-16): the same rounded
constants act on every round trip, so the mass drift grows linearly with
the step count (about 6e-10 after 5e6 steps).  numpy.fft and scipy.fft are
both pocketfft and share the bias; a clongdouble transform removes it at
roughly twice the cost per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .field import FieldState, Grid, boundary_mass_fraction
from .model import NonlinearityModel, PotentialModel

__all__ = ["BlowupError", "EvolveDiagnostics", "Stepper", "hamiltonian", "step", "run"]


class BlowupError(RuntimeError):
    pass


@dataclass
class EvolveDiagnostics:
    time: float
    hamiltonian: float
    momenta: np.ndarray           # P_1..P_4
    boundary_mass: float


def potential_on_grid(potential: PotentialModel, grid: Grid) -> np.ndarray:
    if potential is None or not potential.terms:
        return np.zeros(grid.n)
    return np.broadcast_to(potential(*grid.x), grid.n).copy()


def hamiltonian(psi: FieldState, model: NonlinearityModel,
                V: np.ndarray | None, eps: float) -> float:
    """H = ∫|grad psi|^2 - ∫beta(|psi|^2) + eps ∫V |psi|^2 (gradient spectral)."""
    g = psi.grid
    ph = sfft.fftn(psi.values)
    kin = g.cell / g.size * np.sum(g.k2 * np.abs(ph) ** 2)
    s = np.abs(psi.values) ** 2
    pot = -g.cell * np.sum(model.beta(s))
    ext = eps * g.cell * np.sum(V * s) if (eps != 0.0 and V is not None) else 0.0
    return float(kin + pot + ext)


class Stepper:
    """Precomputed multipliers and buffers for a fixed (grid, dt, model, eps V).

    The caller's array is read, never written: the first forward transform
    copies it, and every later transform and substep works in place.
    """

    def __init__(self, grid: Grid, dt: float, model: NonlinearityModel,
                 V: np.ndarray | None = None, eps: float = 0.0):
        self.grid = grid
        self.dt = dt
        self.model = model
        self.epsV = (None if eps == 0.0 or V is None
                     else eps * np.broadcast_to(V, grid.n))
        self.lin_half = np.exp(0.5j * dt * grid.k2)
        self.lin_full = self.lin_half**2
        if grid.dim == 1:
            self._fft, self._ifft = sfft.fft, sfft.ifft
        else:
            self._fft, self._ifft = sfft.fftn, sfft.ifftn
        self._rot = np.empty(grid.n, complex)
        self._max0 = None

    def _linear(self, vals, mult, overwrite):
        h = self._fft(vals, overwrite_x=overwrite)
        np.multiply(mult, h, out=h)
        return self._ifft(h, overwrite_x=True)

    def _nonlinear(self, vals):
        """vals *= exp(-i dt (beta'(|vals|^2) - eps V)), in place."""
        phase = self.model.beta_prime(np.abs(vals) ** 2)
        if self.epsV is not None:
            phase -= self.epsV
        phase *= -self.dt
        rot = self._rot
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        vals *= rot

    def _guard(self, vals):
        m = np.max(np.abs(vals))
        if not np.isfinite(m):
            raise BlowupError("non-finite value during time step")
        if self._max0 is None:
            self._max0 = m
        elif m > 1e3 * self._max0:
            raise BlowupError("amplitude grew by 1e3: integration aborted")

    def step_block(self, vals: np.ndarray, n_steps: int) -> np.ndarray:
        """Exactly n_steps Strang steps (interior substeps fused)."""
        if n_steps <= 0:
            return vals
        self._guard(vals)
        vals = self._linear(vals, self.lin_half, False)
        for _ in range(n_steps - 1):
            self._nonlinear(vals)
            vals = self._linear(vals, self.lin_full, True)
        self._nonlinear(vals)
        vals = self._linear(vals, self.lin_half, True)
        self._guard(vals)
        return vals


def step(psi: FieldState, dt: float, model: NonlinearityModel,
         V: np.ndarray | None = None, eps: float = 0.0) -> FieldState:
    """One Strang step (half linear, full nonlinear+potential, half linear)."""
    st = Stepper(psi.grid, dt, model, V, eps)
    return FieldState(psi.grid, st.step_block(psi.values, 1))


def run(psi0: FieldState, model: NonlinearityModel, potential: PotentialModel | None,
        eps: float, dt: float, t_final: float, cadence: int = 50,
        observer=None):
    """Step to t_final, invoking observer(i_sample, t, FieldState) every
    `cadence` steps (including t = 0 and the final time); a truthy return
    from the observer stops the run after that sample.  Returns the last
    field and the diagnostics series."""
    grid = psi0.grid
    V = potential_on_grid(potential, grid) if potential is not None else None
    st = Stepper(grid, dt, model, V, eps)
    from .field import momenta as _momenta  # local alias keeps hot loop tidy

    n_steps = int(round(t_final / dt))
    vals = psi0.values.copy()
    diags = []
    i_sample = 0

    def record(t, vals):
        nonlocal i_sample
        f = FieldState(grid, vals)
        diags.append(EvolveDiagnostics(
            time=t,
            hamiltonian=hamiltonian(f, model, V, eps),
            momenta=_momenta(f),
            boundary_mass=boundary_mass_fraction(f),
        ))
        stop = observer is not None and observer(i_sample, t, f)
        i_sample += 1
        return stop

    stop = record(0.0, vals)
    done = 0
    while done < n_steps and not stop:
        blk = min(cadence, n_steps - done)
        vals = st.step_block(vals, blk)
        done += blk
        stop = record(done * dt, vals)
    return FieldState(grid, vals), diags
