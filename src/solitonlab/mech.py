"""Effective finite-dimensional soliton mechanics on the symmetry axis.

V^eff_m(q) = ∫ V(x+q) b^2(x) dx over R^d.  A Gaussian term A e^{-|y-c|^2/2w^2}
at distance D from q gives, with g±(r) = e^{-(r±D)^2/2w^2}, A ∫_0^∞ b^2 (g- + g+)
dr in 1D and (2π A w^2/D) ∫_0^∞ r b^2 (g- - g+) dr in 3D, evaluated in a form
that does not divide by D.  Trapezoid rules over b = b_E, spectrally accurate
for these even integrands, give V^eff and dV^eff/dq (differentiated under the
integral) at the nodes of the line through the box centre along the symmetry
axis.  The leapfrog's force, the exact derivative of the cubic spline through
those values (`spline.cubic_spline`, scipy's not-a-knot `CubicSpline` bit for
bit), keeps its energy errors bounded.  H_mech = p^2/(2m) + eps V^eff(q).
Critical values come from the closed-form roots of the spline's derivative,
a quadratic on each piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import exprel, ive

from .field import Grid
from .groundstate import SolitonFamily
from .model import PotentialModel
from .spline import cubic_spline

__all__ = [
    "EffectivePotential", "MechState", "MechOrbit",
    "build_effective_potential", "mech_energy", "mech_run",
    "orbit_steps", "orbit_distance", "critical_values", "critical_margin",
]


class MechError(RuntimeError):
    pass


@dataclass
class EffectivePotential:
    """V^eff at the nodes of the symmetry axis (`grid`, 1D), its derivative
    `grad` there, and the cubic spline through `values` for V^eff and its force
    between the nodes; `axis` is the field grid's axis the line runs along."""
    grid: Grid
    values: np.ndarray
    grad: np.ndarray
    axis: int = 0

    def __post_init__(self):
        self._spline = cubic_spline(self.grid.axes[0], self.values)
        self._dspline = self._spline.derivative()

    def value_at(self, q) -> float:
        """V^eff at the axial coordinate q (a scalar or a length-1 array)."""
        (q,) = np.atleast_1d(np.asarray(q, dtype=float))
        a = self.grid.axes[0]
        if not a[0] <= q <= a[-1]:
            raise MechError(f"q={q:.4g} outside interpolation range")
        return self._spline.value_uniform(float(q))


def build_effective_potential(potential: PotentialModel, family: SolitonFamily,
                              energy: float, grid: Grid) -> EffectivePotential:
    """V^eff and dV^eff/dq of b_E on `grid`'s symmetry-axis line by the radial
    quadratures of the module docstring.  The radial spacing is at most w/3 for
    every width w: on a 1D well against adaptive quadrature it keeps V^eff and its
    gradient within 2e-14 for w = 0.05 ... 0.5, where w/2 leaves 2e-13."""
    axis = potential.axis if potential.terms else 0
    line = Grid(1, grid.n[axis], grid.length[axis])
    values, grad = np.zeros(line.n), np.zeros(line.n)
    r, h, b = family.radial_samples(
        energy, min((t.width for t in potential.terms), default=math.inf) / 3.0)
    wb2 = h * b**2 * (r * r if grid.dim == 3 else 1.0)
    wb2[0] *= 0.5
    for t in potential.terms:
        c = np.asarray(t.center, dtype=float)
        off = line.axes[0] - c[axis]      # signed; D = |off| in 1D, |q e_axis - c| in 3D
        w2 = t.width**2
        if grid.dim == 1:                 # A ∫ b^2 g∓ and A ∫ b^2 (r ∓ D) g∓ / w^2
            for s in (-1.0, 1.0):
                x = r + s * off[:, None]
                g = x * x * (-0.5 / w2)   # in place: two (node, r) arrays per sign
                np.exp(g, out=g)
                values += t.amplitude * (g @ wb2)
                g *= x
                grad -= s * t.amplitude / w2 * (g @ wb2)
            continue
        # 3D, a = r D/w^2 (g+ = g- e^{-2a}): V^eff = 4π A ∫ r^2 b^2 g- exprel(-2a)
        # and dV^eff/dq = -(4π A off/w^2) ∫ r^2 b^2 g- (exprel(-2a) - r^2/w^2 psi)
        # with psi = e^{-a} (a cosh a - sinh a)/a^3 = e^{-a} sqrt(π/2a) I_{3/2}(a)/a.
        # Neither divides by D; below a = 1e-100 both equal their a = 0 limits.
        D = np.hypot(off, math.hypot(*np.delete(c, axis)))[:, None]
        a = np.maximum(D * r / w2, 1e-100)
        g = np.exp((r - D) ** 2 * (-0.5 / w2))
        k = 4.0 * math.pi * t.amplitude
        f = g * exprel(-2.0 * a)
        values += k * (f @ wb2)
        f -= g * np.sqrt(0.5 * math.pi / a) * ive(1.5, a) / a * (r * r / w2)
        grad -= (k / w2) * off * (f @ wb2)
    return EffectivePotential(grid=line, values=values, grad=grad, axis=axis)


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
                veff: EffectivePotential) -> float:
    """p^2/2m + eps V^eff(q)."""
    return float(np.sum(state.p**2)) / (2.0 * m) + eps * veff.value_at(state.q)


@dataclass
class MechOrbit:
    ts: np.ndarray
    ps: np.ndarray                # (n, 1)
    qs: np.ndarray                # (n, 1)
    energies: np.ndarray
    mass: float
    eps: float

    @cached_property
    def weighted_samples(self):
        """Samples as columns of z = (p, sqrt(eps) q), shape (2, n), and the
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
    """Leapfrog steps to t_final in V^eff: STEPS_PER_PERIOD per
    period of the fastest small oscillation, omega^2 = eps max|V^eff''| / m
    (the spline's V^eff'' is piecewise linear: its maximum is on a knot)."""
    curvature = float(np.max(np.abs(veff._spline(veff.grid.axes[0], 2))))
    omega = math.sqrt(eps * curvature / m)
    return max(MIN_STEPS, math.ceil(t_final * omega * STEPS_PER_PERIOD / (2.0 * math.pi)))


def mech_run(state0: MechState, m: float, eps: float, veff: EffectivePotential,
             dt: float, t_final: float) -> MechOrbit:
    """Stormer-Verlet (kick-drift-kick) orbit of q' = p/m, p' = -eps V^eff'(q)
    to t_final, as a scalar loop on raw floats (the spline calls dominate
    otherwise)."""
    n = int(round(t_final / dt))
    force = veff._spline.slope_uniform
    lo, hi = veff.grid.axes[0][0], veff.grid.axes[0][-1]
    p, q, t = float(state0.p[0]), float(state0.q[0]), state0.t
    ts, ps, qs = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    ts[0], ps[0], qs[0] = t, p, q
    half = 0.5 * dt * eps
    for i in range(1, n + 1):
        p -= half * force(q)
        q += dt * p / m
        if not lo <= q <= hi:
            raise MechError(f"q={q:.4g} left the interpolation range")
        p -= half * force(q)
        t += dt
        ts[i], ps[i], qs[i] = t, p, q
    es = ps**2 / (2.0 * m) + eps * veff._spline(qs)
    return MechOrbit(ts, ps[:, None], qs[:, None], es, m, eps)


def orbit_distance(point: MechState, orbit: MechOrbit) -> float:
    """Exact min of ||(p-p', q-q')||_eps over the piecewise-linear orbit
    (||(p,q)||_eps^2 = p^2 + eps q^2, eps = orbit.eps).  In
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
    spline's V^eff' (closed forms, a quadratic per piece) plus the value at
    infinity (0 for decaying potentials).  A piece where V^eff' vanishes
    identically gives its start and a NaN, and the NaN is dropped."""
    q = veff._dspline.roots()
    vals = np.concatenate([[0.0], veff._spline(q[~np.isnan(q)])])
    return np.unique(np.round(vals, 12))


def critical_margin(h_over_eps: float, veff: EffectivePotential) -> float:
    """Distance of H_mech/eps from the nearest critical value of V^eff."""
    return float(np.min(np.abs(critical_values(veff) - h_over_eps)))
