"""Effective finite-dimensional soliton mechanics.

V^eff_m(q) = ∫ V(x+q) b^2(x) dx is computed as an FFT convolution on the
field grid (b^2 is even), cubically interpolated for the ODE; the force used
by the integrator is the exact derivative of the energy's spline so that
leapfrog energy errors stay bounded.  H_mech = |p|^2/(2m) + eps V^eff(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .field import Grid
from .model import PotentialModel

__all__ = [
    "EffectivePotential", "MechState", "MechOrbit",
    "build_effective_potential", "mech_energy", "mech_step", "mech_run",
    "orbit_steps", "orbit_distance", "critical_values", "critical_margin",
]


class MechError(RuntimeError):
    pass


class _UniformCubic:
    """Scalar-fast evaluation of a CubicSpline built on uniform knots."""

    def __init__(self, spline: CubicSpline):
        self.x0 = float(spline.x[0])
        self.h = float(spline.x[1] - spline.x[0])
        self.c = spline.c                    # (4, n-1)
        self.n_seg = self.c.shape[1]

    def __call__(self, q: float) -> float:
        j = int((q - self.x0) / self.h)
        j = 0 if j < 0 else (self.n_seg - 1 if j >= self.n_seg else j)
        t = q - (self.x0 + j * self.h)
        c = self.c
        return ((c[0, j] * t + c[1, j]) * t + c[2, j]) * t + c[3, j]

    def deriv(self, q: float) -> float:
        j = int((q - self.x0) / self.h)
        j = 0 if j < 0 else (self.n_seg - 1 if j >= self.n_seg else j)
        t = q - (self.x0 + j * self.h)
        c = self.c
        return (3.0 * c[0, j] * t + 2.0 * c[1, j]) * t + c[2, j]


@dataclass
class EffectivePotential:
    mass: float
    grid: Grid
    values: np.ndarray            # V^eff on the grid
    grad: list                    # spectral gradient arrays, one per axis

    def __post_init__(self):
        d = self.grid.dim
        if d == 1:
            self._spline = CubicSpline(self.grid.axes[0], self.values)
            self._dspline = self._spline.derivative()
            self._fast = _UniformCubic(self._spline)
        else:
            # multilinear: exact on node planes, so symmetry-plane forces
            # vanish identically (the tensor cubic leaks ~1e-7 across planes)
            pts = self.grid.axes
            self._spline = RegularGridInterpolator(pts, self.values, method="linear")
            self._gsplines = [RegularGridInterpolator(pts, gj, method="linear")
                              for gj in self.grad]

    def _check_range(self, q):
        for j in range(self.grid.dim):
            a = self.grid.axes[j]
            if not a[0] <= q[j] <= a[-1]:
                raise MechError(f"q[{j}]={q[j]:.4g} outside interpolation range")

    def value_at(self, q) -> float:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        self._check_range(q)
        if self.grid.dim == 1:
            return self._fast(float(q[0]))
        return float(self._spline(q)[0])

    def grad_at(self, q) -> np.ndarray:
        q = np.atleast_1d(np.asarray(q, dtype=float))
        self._check_range(q)
        if self.grid.dim == 1:
            return np.array([self._fast.deriv(float(q[0]))])
        return np.array([float(gs(q)[0]) for gs in self._gsplines])

    def on_axis(self, axis: int) -> "EffectivePotential":
        """The restriction to the line through the box centre along `axis`,
        where the axial mechanics run (itself in 1D)."""
        g = self.grid
        if g.dim == 1:
            return self
        idx = tuple(slice(None) if j == axis else g.n[j] // 2 for j in range(g.dim))
        return EffectivePotential(self.mass, Grid(1, g.n[axis], g.length[axis]),
                                  self.values[idx], [self.grad[axis][idx]])


def build_effective_potential(potential: PotentialModel, b_grid: np.ndarray,
                              grid: Grid, mass: float) -> EffectivePotential:
    """Spectral convolution (V * b^2)(q); b^2 must be centered and decayed."""
    b2 = np.asarray(b_grid, dtype=float) ** 2
    edge = [np.max(np.abs(np.take(b2, [0], axis=j))) for j in range(grid.dim)]
    if max(edge) > 1e-8 * np.max(b2):
        raise MechError("soliton density not decayed at the box edge (wrap-around)")
    V = np.broadcast_to(potential(*grid.x), grid.n) if potential.terms else np.zeros(grid.n)
    conv = sfft.ifftn(sfft.fftn(V) * sfft.fftn(np.fft.ifftshift(b2))).real * grid.cell
    ghat = sfft.fftn(conv)
    grad = [sfft.ifftn(1j * grid.k_deriv[j] * ghat).real for j in range(grid.dim)]
    return EffectivePotential(mass=mass, grid=grid, values=conv, grad=grad)


@dataclass
class MechState:
    p: np.ndarray
    q: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.q))):
            raise MechError("non-finite mechanical state")


def mech_energy(state: MechState, m: float, eps: float,
                veff: EffectivePotential, scaled: bool = False) -> float:
    """|p|^2/2m + eps V^eff(q); scaled=True returns the eps-divided form
    |p~|^2/2m + V^eff with p = mu^2 p~ (i.e. H_mech / eps)."""
    kin = float(np.sum(state.p**2)) / (2.0 * m)
    if scaled:
        if eps <= 0:
            raise MechError("scaled form needs eps > 0")
        return kin / eps + veff.value_at(state.q)
    return kin + eps * veff.value_at(state.q)


def mech_step(state: MechState, m: float, eps: float,
              veff: EffectivePotential, dt: float) -> MechState:
    """One Stormer-Verlet (kick-drift-kick) step of q' = p/m, p' = -eps grad V^eff."""
    p = state.p - 0.5 * dt * eps * veff.grad_at(state.q)
    q = state.q + dt * p / m
    p = p - 0.5 * dt * eps * veff.grad_at(q)
    return MechState(p, q, state.t + dt)


@dataclass
class MechOrbit:
    ts: np.ndarray
    ps: np.ndarray                # (n, d)
    qs: np.ndarray                # (n, d)
    energies: np.ndarray
    mass: float
    eps: float

    @cached_property
    def weighted_samples(self):
        """Samples as columns of z = (p, sqrt(eps) q), shape (2d, n), and the
        segment lengths |z_{j+1} - z_j|."""
        z = np.vstack([self.ps.T, math.sqrt(self.eps) * self.qs.T])
        dz = np.diff(z, axis=1)
        return z, np.sqrt(np.einsum("ij,ij->j", dz, dz))

    def period_estimate(self) -> float | None:
        """Mean spacing of upward mean-crossings of q[0] (None if not periodic)."""
        q = self.qs[:, 0] - np.mean(self.qs[:, 0])
        up = np.where((q[:-1] < 0) & (q[1:] >= 0))[0]
        if len(up) < 2:
            return None
        # linear interpolation of the crossing times
        tcross = self.ts[up] - q[up] * (self.ts[up + 1] - self.ts[up]) / (q[up + 1] - q[up])
        return float(np.mean(np.diff(tcross)))


# as fine as 200,000 steps over the eps = 1e-3 acceptance horizon 5/eps (12,792)
STEPS_PER_PERIOD = 12_800
# where eps V^eff'' = 0 the leapfrog is exact and this only sets the sample spacing
MIN_STEPS = 1_000


def orbit_steps(veff: EffectivePotential, m: float, eps: float, t_final: float) -> int:
    """Leapfrog steps to t_final in the 1D/axial V^eff: STEPS_PER_PERIOD per
    period of the fastest small oscillation, omega^2 = eps max|V^eff''| / m
    (the spline's V^eff'' is piecewise linear: its maximum is on a knot)."""
    curvature = float(np.max(np.abs(veff._spline(veff.grid.axes[0], 2))))
    omega = math.sqrt(eps * curvature / m)
    return max(MIN_STEPS, math.ceil(t_final * omega * STEPS_PER_PERIOD / (2.0 * math.pi)))


def mech_run(state0: MechState, m: float, eps: float, veff: EffectivePotential,
             dt: float, t_final: float) -> MechOrbit:
    n = int(round(t_final / dt))
    if veff.grid.dim == 1:
        return _mech_run_1d(state0, m, eps, veff, dt, n)
    states = [state0]
    for _ in range(n):
        states.append(mech_step(states[-1], m, eps, veff, dt))
    return MechOrbit(np.array([s.t for s in states]), np.array([s.p for s in states]),
                     np.array([s.q for s in states]),
                     np.array([mech_energy(s, m, eps, veff) for s in states]), m, eps)


def _mech_run_1d(state0, m, eps, veff, dt, n):
    """Scalar leapfrog loop on raw floats (the spline calls dominate otherwise)."""
    fast = veff._fast
    lo, hi = veff.grid.axes[0][0], veff.grid.axes[0][-1]
    p, q, t = float(state0.p[0]), float(state0.q[0]), state0.t
    ts, ps, qs = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    ts[0], ps[0], qs[0] = t, p, q
    half = 0.5 * dt * eps
    for i in range(1, n + 1):
        p -= half * fast.deriv(q)
        q += dt * p / m
        if not lo <= q <= hi:
            raise MechError(f"q={q:.4g} left the interpolation range")
        p -= half * fast.deriv(q)
        t += dt
        ts[i], ps[i], qs[i] = t, p, q
    es = ps**2 / (2.0 * m) + eps * veff._spline(qs)
    return MechOrbit(ts, ps[:, None], qs[:, None], es, m, eps)


def orbit_distance(point: MechState, orbit: MechOrbit) -> float:
    """Exact min of ||(p-p', q-q')||_eps over the piecewise-linear orbit
    (||(p,q)||_eps^2 = sum p_k^2 + eps q_k^2, eps = orbit.eps).  In
    z = (p, sqrt(eps) q) the norm is Euclidean and a segment's nearest point
    is the clipped projection onto it; segment j is projected only if
    |x - z_j| - |z_{j+1} - z_j| is below the nearest sample's distance, since
    otherwise none of it is nearer."""
    if len(orbit.ts) == 0:
        raise MechError("empty orbit")
    z, seg_len = orbit.weighted_samples
    r = z - np.concatenate([point.p, math.sqrt(orbit.eps) * point.q])[:, None]
    d2 = np.einsum("ij,ij->j", r, r)
    best2 = float(d2.min())
    j = np.flatnonzero(np.sqrt(d2[:-1]) - seg_len < math.sqrt(best2))
    rj, dz = r[:, j], z[:, j + 1] - z[:, j]
    s = np.clip(-np.einsum("ij,ij->j", rj, dz) / seg_len[j] ** 2, 0.0, 1.0)
    foot = rj + s * dz
    return math.sqrt(float(np.einsum("ij,ij->j", foot, foot).min(initial=best2)))


def critical_values(veff: EffectivePotential) -> np.ndarray:
    """Critical values of V^eff on the axis: V^eff at every root of the
    spline's V^eff' plus the value at infinity (0 for decaying potentials).
    A piece where V^eff' vanishes identically has NaN for its root."""
    if veff.grid.dim != 1:
        raise MechError("critical values implemented for the 1D/axial case")
    q = veff._dspline.roots(extrapolate=False)
    vals = np.concatenate([[0.0], veff._spline(q[~np.isnan(q)])])
    return np.unique(np.round(vals, 12))


def critical_margin(h_over_eps: float, veff: EffectivePotential) -> float:
    """Distance of H_mech/eps from the nearest critical value of V^eff."""
    return float(np.min(np.abs(critical_values(veff) - h_over_eps)))
