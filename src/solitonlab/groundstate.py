"""Ground-state profiles b_E, the mass curve m(E), and boosted solitons.

The profile solves  -Lap b - beta'(b^2) b + E b = 0  (positive, radial,
monotone decreasing).  Solver routing:

  1D power      closed form  b(x) = ((1+sigma)E/c)^(1/(2 sigma)) sech^(1/sigma)(sigma sqrt(E) x)
  otherwise     radial Newton solve with exact b_E, b_EE (banded 8th-order
                stencil)

The Newton solve continues the tail below 1e-12 b(0) as
C e^{-sqrt(E) r}/r^(d-1).  It is memoized: a process makes one per model,
energy and radial grid, and the callers share its read-only profile.  The
dispatch's warning and checks still run on every call.

A power family scales one reference profile B, the ground state at E = 1:
b(E, r) = E^(1/(2 sigma)) B(sqrt(E) r), so m(E) = m(1) E^(1/sigma - d/2) and
the E-derivatives of b are closed forms in (log B)' and (log B)''.  A power
mass curve is that one solve's mass times E^(1/sigma - d/2), and its slopes
are the law's (1/sigma - d/2) m / E.  The saturable kind solves at every
energy it meets, and m'(E), m''(E) are quadratures of b b_E, b_E^2 + b b_EE.
Its family inverts m(E) by Newton on those solves, so no mass curve is
ever inverted.  A mass curve interpolates its samples by the cubic Hermite
through its exact slopes.

Residual norms are measured with spectral differentiation (periodic even
extension in 1D, odd-extension DST of u = r b in 3D): a second-order stencil
would bury the solver error under O(h^2) truncation.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft
from scipy.linalg import solve_banded

from . import field as fld
from .field import FieldState, Grid, apply_symmetry
from .model import NonlinearityModel
from .spline import _hermite, cubic_spline

__all__ = [
    "GroundStateError", "GroundStateProfile", "MassCurve", "SolitonParameters",
    "SolitonTangents", "SolitonFamily",
    "solve_ground_state", "newton_ground_state",
    "mass_of", "mass_slope", "mass_curve", "check_h2", "profile_residual",
]


class GroundStateError(RuntimeError):
    pass


# -- profile -------------------------------------------------------------------

@dataclass
class GroundStateProfile:
    energy: float
    dim: int
    r: np.ndarray                 # half-line grid including r = 0
    b: np.ndarray                 # positive, monotone decreasing
    model: NonlinearityModel
    residual: float = float("nan")
    decay_rate: float = float("nan")
    mass: float = field(default=float("nan"))
    exact: object = None          # closed-form callable when available
    b_E: np.ndarray | None = None  # exact d b/dE and d^2 b/dE^2 on r (radial Newton solve)
    b_EE: np.ndarray | None = None

    def __post_init__(self):
        if np.isnan(self.mass):
            self.mass = mass_of(self)
        if np.isnan(self.decay_rate):
            self.decay_rate = self._fit_decay()
        self._log_b = None

    def _fit_decay(self) -> float:
        # slope of -log b over the outer region where b is still well above
        # double-precision noise
        good = self.b > self.b[0] * 1e-12
        rr, bb = self.r[good], self.b[good]
        n = len(rr)
        sl = slice(int(0.6 * n), n)
        logb = np.log(bb[sl])
        if self.dim == 3:
            logb = logb + np.log(np.maximum(rr[sl], 1e-300))  # strip 1/r factor
        A = np.vstack([rr[sl], np.ones(len(rr[sl]))]).T
        slope, _ = np.linalg.lstsq(A, logb, rcond=None)[0]
        return float(-slope)

    def _log_spline(self) -> "_RadialSpline":
        if self._log_b is None:
            self._log_b = _RadialSpline(self.r, np.log(self.b))
        return self._log_b

    def __call__(self, r):
        """Evaluate b at arbitrary radii (log-cubic inside, log-linear tail)."""
        r = np.abs(np.asarray(r, dtype=float))
        if self.exact is not None:
            return self.exact(r)
        return np.exp(self._log_spline()(r))

    def mass_derivatives(self):
        """(dm/dE, d^2 m/dE^2) of mass_of's quadrature, from the exact b_E, b_EE."""
        b, b_E = self.b, self.b_E
        return (2.0 * _radial_integral(self.dim, self.r, b * b_E),
                2.0 * _radial_integral(self.dim, self.r, b_E * b_E + b * self.b_EE))

    def log_derivatives(self, r):
        """((log b)', (log b)'') of the interpolant that __call__ evaluates,
        at radii r >= 0."""
        return self._log_spline().derivatives(np.asarray(r, dtype=float))


class _RadialSpline:
    """Interpolant of radial samples y(r): a cubic spline, even at r = 0,
    continued past the last sample along the line through the outer tenth.
    Linear in y, so it commutes with differences of y."""

    def __init__(self, r: np.ndarray, y: np.ndarray):
        self._spline = cubic_spline(r, y, d0=0.0)
        k = max(2, len(r) // 10)
        self._r_end, self._y_end = r[-1], y[-1]
        self._slope = (y[-1] - y[-1 - k]) / (r[-1] - r[-1 - k])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        inside = r <= self._r_end
        out[inside] = self._spline(r[inside])
        out[~inside] = self._y_end + self._slope * (r[~inside] - self._r_end)
        return out

    def derivatives(self, r: np.ndarray):
        """(y', y''): the spline's inside, the line's past the last sample."""
        d1, d2 = np.full_like(r, self._slope), np.zeros_like(r)
        inside = r <= self._r_end
        d1[inside] = self._spline(r[inside], 1)
        d2[inside] = self._spline(r[inside], 2)
        return d1, d2


def _radial_integral(dim: int, r: np.ndarray, f: np.ndarray) -> float:
    """The r^(d-1)-weighted trapezoid of f over the half-line (2 pi times it in 3D)."""
    if dim == 1:
        return float(np.trapezoid(f, r))
    return float(2.0 * np.pi * np.trapezoid(f * r**2, r))


def mass_of(profile: GroundStateProfile) -> float:
    """m = P4(b)/2 with the r^(d-1)-weighted trapezoid matching the grid."""
    return _radial_integral(profile.dim, profile.r, profile.b**2)


def profile_residual(profile: GroundStateProfile, model: NonlinearityModel) -> float:
    """Discrete L2 norm of -Lap b - beta'(b^2) b + E b (spectral Laplacian)."""
    r, b, E = profile.r, profile.b, profile.energy
    h = r[1] - r[0]
    if profile.dim == 1:
        # even periodic extension on [-R, R)
        full = np.concatenate([b[:0:-1], b[:-1]])
        n = len(full)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        lap = sfft.ifft(-(k**2) * sfft.fft(full)).real
        res = -lap - model.beta_prime(full**2) * full + E * full
        return float(np.sqrt(h * np.sum(res**2)))
    # 3D: Lap b = (r b)'' / r via DST of the odd extension of u = r b
    u = r * b
    interior = u[1:-1]
    m = len(interior)
    kj = np.pi * np.arange(1, m + 1) / (r[-1] - r[0])
    uhat = sfft.dst(interior, type=1)
    upp = sfft.dst(-(kj**2) * uhat, type=1) / (2.0 * (m + 1))
    res = -upp / r[1:-1] - model.beta_prime(b[1:-1] ** 2) * b[1:-1] + E * b[1:-1]
    return float(np.sqrt(4.0 * np.pi * h * np.sum(res**2 * r[1:-1] ** 2)))


# -- solvers -------------------------------------------------------------------

def _sech(z):
    """Overflow-safe sech (underflows to 0 for |z| >~ 745)."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def _closed_form_1d(model: NonlinearityModel, energy: float):
    sg, c = model.sigma, model.c
    amp = ((1.0 + sg) * energy / c) ** (1.0 / (2.0 * sg))
    a = sg * math.sqrt(energy)

    def b(r):
        return amp * _sech(a * np.asarray(r, dtype=float)) ** (1.0 / sg)

    return b


_RESIDUAL_TOL = 1e-6    # largest ground-state residual solve_ground_state accepts
_NEWTON_TOL = 1e-11     # max|dy| <= tol max|y|; at 1e-13 roundoff kept b(0) >~ 6 from stopping
_S_FLOOR = 1e-200       # b^2 floor: keeps a power's beta'' and beta''' s finite at b = 0


@functools.lru_cache(maxsize=8)
def newton_ground_state(model: NonlinearityModel, energy: float, dim: int,
                        r_max: float = 40.0, n: int = 2048) -> GroundStateProfile:
    """Newton on F = -Lap b + E b - beta'(b^2) b = 0 at the radii 0, h, ..., r_max
    with the 8th-order central stencil: on y = b (even at r = 0) in 1D, on
    y = r b (odd at r = 0) in 3D, zero from r_max on.  The Jacobian
    J = -Lap + E - beta'(b^2) - 2 beta''(b^2) b^2 is a (4, 4) band, and
    J y_next = J y - F(y) = -2 beta''(b^2) b^2 y.  That step rounds at the
    band's entries ~1/h^2 times y, which leaves the mass noisy at ~1e-13, so
    one last step y -= J^-1 F(y) takes the root to roundoff: there
    h^2 Lap y = (D^2 - D^4/12 + D^6/90 - D^8/560) y, D^2 y the second
    differences, rounds at the size of the result.  At the root J b_E = -b and
    J b_EE = -2 b_E + (6 beta'' b + 4 beta''' b^3) b_E^2 give the exact
    E-derivatives, completed with b by `_complete_radial`.

    Newton from one sech guess can land on -b, on b = 0 or on a state with a
    node, so the guesses A sqrt(2E/c) sech(k sqrt(E) r), A in (1, 2),
    k in (1, 2, 1/2, 1/4), are tried in turn until one reaches a monotone
    profile (up to sign) whose centre is bound, beta'(b(0)^2) > E.

    Memoized per process on all the arguments: callers share the returned
    profile, whose r, b, b_E and b_EE are read-only."""
    if model.kind == "saturable" and energy >= model.c:
        raise GroundStateError("saturable kind needs energy < c for decay")
    r, h = np.linspace(0.0, r_max, n, retstep=True)
    live = slice(dim == 3, n - 1)        # the unknowns; b(r_max) is continued
    w = r[live] if dim == 3 else 1.0
    # -d^2/dr^2 as solve_banded's (4, 4) band.  Row r_g, g < 4, reaches
    # r_(g-k) < 0 for g < k <= 4, whose image is y(r_(k-g)) in 1D and
    # -y(r_(k-g)) in 3D, where the unknowns start at r_1 (u(0) = 0)
    c = np.array([205.0 / 72.0, -8.0 / 5.0, 1.0 / 5.0, -8.0 / 315.0, 1.0 / 560.0]) / (h * h)
    lap = np.repeat(np.concatenate([c[:0:-1], c])[:, None], len(r[live]), axis=1)
    j0 = live.start
    g, k = np.triu_indices(5, 1)
    g, k = g[g >= j0], k[g >= j0]
    lap[4 + 2 * g - k, k - g - j0] += c[k] if dim == 1 else -c[k]

    def jacobian(b):
        s = np.maximum(b * b, _S_FLOOR)
        bs2 = 2.0 * model.beta_second(s) * s
        jac = lap.copy()
        jac[4] += energy - model.beta_prime(s) - bs2
        return jac, bs2, s

    for amp, k in itertools.product((1.0, 2.0), (1.0, 2.0, 0.5, 0.25)):
        y = w * amp * math.sqrt(2.0 * energy / model.c) * _sech(k * math.sqrt(energy) * r[live])
        for _ in range(40):
            jac, bs2, _ = jacobian(y / w)
            y, y_prev = solve_banded((4, 4), jac, -bs2 * y, check_finite=False), y
            if np.max(np.abs(y - y_prev)) <= _NEWTON_TOL * np.max(np.abs(y)):
                break
        else:
            continue
        y = y if y[np.argmax(np.abs(y))] > 0 else -y
        b = y / w
        if not (model.beta_prime(b[0] ** 2) > energy and np.all(np.diff(b) <= 1e-12 * b[0])):
            continue
        d = [np.concatenate([y[4:0:-1] if dim == 1 else np.append(-y[2::-1], 0.0),
                             y, np.zeros(4)])]           # y and its images
        for _ in range(4):
            d.append(np.diff(d[-1], 2))
        lap_y = (d[1][3:-3] - d[2][2:-2] / 12.0 + d[3][1:-1] / 90.0 - d[4] / 560.0) / (h * h)
        jac, _, s = jacobian(b)
        y = y - solve_banded((4, 4), jac, (energy - model.beta_prime(s)) * y - lap_y)
        b = y / w
        jac, _, s = jacobian(b)
        y_E = solve_banded((4, 4), jac, -y)
        y_EE = solve_banded((4, 4), jac, -2.0 * y_E + (
            6.0 * model.beta_second(s) + 4.0 * model.beta_third(s) * s) * b * y_E * y_E / w)
        b, b_E, b_EE = np.zeros((3, n))
        b[live], b_E[live], b_EE[live] = y / w, y_E / w, y_EE / w
        _complete_radial(energy, dim, r, b, (b_E, b_EE))
        for a in (r, b, b_E, b_EE):
            a.flags.writeable = False
        prof = GroundStateProfile(energy, dim, r, b, model, b_E=b_E, b_EE=b_EE)
        prof.residual = profile_residual(prof, model)
        return prof
    raise GroundStateError("radial Newton solve did not reach the ground state")


def _complete_radial(energy: float, dim: int, r: np.ndarray, b: np.ndarray, derivs=()):
    """Complete a radial solve's samples of b in place: b(0) in 3D (even:
    quadratic in r^2 through b(h..4h)), b(r_max) = b(r_max - h) e^{-sqrt(E) h},
    and below 1e-12 b(0), where the solve is roundoff noise that the
    log-cubic interpolant would ring on, the tail C e^{-sqrt(E) r} / r^(d-1)
    from the last sample above; then a 1e-300 floor.  `derivs` (b_E, b_EE)
    are completed as the E-derivatives of the samples so built."""
    kappa = math.sqrt(energy)
    if dim == 3:
        for y in (b, *derivs):
            y[0] = np.polyval(np.polyfit(r[1:5] ** 2, y[1:5], 2), 0.0)

    def continue_derivs(k):
        # past sample k, b_j = b_k t_j with d log t_j / dE = -(r_j - r_k) / (2 sqrt(E))
        if derivs:
            b_E, b_EE = derivs
            t = b[k + 1:] / b[k]
            a = (r[k + 1:] - r[k]) / (2.0 * kappa)
            b_EE[k + 1:] = t * (b_EE[k] - 2.0 * a * b_E[k] + a * (a + 0.5 / energy) * b[k])
            b_E[k + 1:] = t * (b_E[k] - a * b[k])

    b[-1] = b[-2] * math.exp(-kappa * (r[1] - r[0]))
    continue_derivs(len(b) - 2)
    low = np.flatnonzero(b < 1e-12 * b[0])
    if len(low):
        k = low[0] - 1
        b[k + 1:] = (b[k] * r[k] / r[k + 1:] if dim == 3 else b[k]) * np.exp(
            -kappa * (r[k + 1:] - r[k]))
        continue_derivs(k)
    np.maximum(b, 1e-300, out=b)


def solve_ground_state(model: NonlinearityModel, energy: float, dim: int = 1,
                       r_max: float = 40.0, n: int = 2048) -> GroundStateProfile:
    """Production dispatch; raises if the residual check fails."""
    if energy <= 0:
        raise GroundStateError("energy must be positive")
    if dim == 3 and model.kind == "power" and model.sigma >= 2.0 / 3.0:
        warnings.warn("3D power with sigma >= 2/3: mass curve decreases (h2 fails)",
                      stacklevel=2)
    if model.kind == "power" and dim == 1:
        exact = _closed_form_1d(model, energy)
        r = np.linspace(0.0, r_max, n)
        prof = GroundStateProfile(energy, 1, r, exact(r), model, exact=exact)
        prof.residual = profile_residual(prof, model)
    else:
        prof = newton_ground_state(model, energy, dim, r_max=r_max, n=n)
    if not np.isfinite(prof.residual) or prof.residual > _RESIDUAL_TOL:
        raise GroundStateError(
            f"ground-state residual {prof.residual:.3e} above {_RESIDUAL_TOL:.1e}")
    if np.any(prof.b <= 0):
        raise GroundStateError("profile not strictly positive")
    return prof


# -- mass curve ----------------------------------------------------------------

@dataclass
class MassCurve:
    """m(E) sampled at `energies` with its exact slopes there, and `mass_at`
    the cubic Hermite interpolant through both (`spline._hermite`)."""
    energies: np.ndarray
    masses: np.ndarray
    slopes: np.ndarray            # dm/dE: the power law, or each solve's exact slope (saturable)

    def __post_init__(self):
        self._interp = _hermite(self.energies, self.masses, self.slopes)

    def mass_at(self, energy: float) -> float:
        return float(self._interp(energy))


def mass_curve(model: NonlinearityModel, e_lo: float, e_hi: float,
               n_samples: int, dim: int = 1, **solver_kw) -> MassCurve:
    """m(E) at n_samples energies from e_lo to e_hi, with its slopes.  The
    power kind scales the mass of one solve at E = 1 (the family's
    reference), m(E) = m(1) E^(1/sigma - d/2), and takes its slopes from the
    same law, dm/dE = (1/sigma - d/2) m / E; the saturable kind solves at
    every sample and takes each slope from that solve's exact b_E."""
    if n_samples < 3:
        raise GroundStateError("need >= 3 samples")
    es = np.linspace(e_lo, e_hi, n_samples)
    if model.kind == "power":
        if np.min(es) <= 0:
            raise GroundStateError("energy must be positive")
        power = 1.0 / model.sigma - dim / 2.0
        ms = solve_ground_state(model, 1.0, dim, **solver_kw).mass * es**power
        slopes = power * ms / es
    else:
        profs = [solve_ground_state(model, float(e), dim, **solver_kw) for e in es]
        ms, slopes = np.array([(p.mass, p.mass_derivatives()[0]) for p in profs]).T
    return MassCurve(es, ms, slopes)


def mass_slope(profile: GroundStateProfile) -> float:
    """dm/dE at the profile's energy: the power law's (1/sigma - d/2) m / E, or
    the saturable solve's own, from its exact b_E."""
    model = profile.model
    if model.kind == "power":
        return (1.0 / model.sigma - profile.dim / 2.0) * profile.mass / profile.energy
    return profile.mass_derivatives()[0]


def check_h2(curve: MassCurve):
    """(ok, diagnostics): every dm/dE must be positive."""
    bad = np.where(curve.slopes <= 0)[0]
    info = {
        "slopes": curve.slopes.tolist(),
        "min_slope": float(np.min(curve.slopes)),
    }
    if len(bad):
        info["violation_at_energy"] = float(curve.energies[bad[0]])
    return len(bad) == 0, info


# -- soliton family ------------------------------------------------------------

_MASS_NEWTON_ITERS = 16     # Newton steps on m(E) = m before a saturable E(m) gives up


@dataclass(frozen=True)
class SolitonParameters:
    p: tuple = (0.0, 0.0, 0.0, 0.0)
    q: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.p) != 4 or len(self.q) != 4:
            raise ValueError("p and q must have 4 components")


@dataclass
class SolitonTangents:
    """eta_p = u b, with b the profile at E(m~), and its p-derivatives on a
    grid (the chart's linear data), plus what its second p-derivatives need.

    The active A_j eta and t_j are the rows of two real blocks `A` and `T`
    of shape (len(active), 2 size), row a holding index active[a] as
    interleaved (re, im) pairs.  `A_eta[j]`, `t[j]` (None on inactive axes)
    and `eta` = A_eta[3] are complex views of those rows, not copies, so the
    pairings of a field with every active direction are one matrix product
    with a real view of the field."""
    p: np.ndarray
    mtilde: float                 # m~ = m + p4/2
    energy: float
    grid: Grid
    A: np.ndarray                 # rows A_j eta, j in active (A_4 eta = eta last)
    T: np.ndarray                 # rows t_j = d eta / d p_j, j in active
    eta_hat: np.ndarray           # fftn(eta)
    active: tuple                 # indices (0-based) of active p components
    u: np.ndarray                 # e^{-i p.x / (2 m~)}
    b: np.ndarray                 # b and d b/dE at E(m~)
    b_E: np.ndarray
    b_EE_of: object               # () -> d^2 b/dE^2 at E(m~), read as `b_EE`
    dE_dm: float                  # E'(m~), E''(m~)
    d2E_dm2: float

    def __post_init__(self):
        shape = (len(self.active),) + self.grid.n
        A, T = self.A.view(complex).reshape(shape), self.T.view(complex).reshape(shape)
        self.A_eta, self.t = [None] * 4, [None] * 4
        for a, j in enumerate(self.active):
            self.A_eta[j], self.t[j] = A[a], T[a]
        self.eta = self.A_eta[3]

    @cached_property
    def b_EE(self) -> np.ndarray:
        return self.b_EE_of()

    def dt(self, l: int, k: int) -> np.ndarray:
        """d t_l / d p_k (0-based, active indices; symmetric in l and k)."""
        x, mt = self.grid.x, self.mtilde
        if l != 3 and k != 3:
            return -(x[l] * x[k] / (4.0 * mt**2)) * self.eta
        if l != k:                # one spatial index j, one p4
            j = min(l, k)
            return 1j * x[j] * (self.eta / (4.0 * mt**2) - self.t[3] / (2.0 * mt))
        px = sum(self.p[j] * x[j] for j in range(self.grid.dim))
        E1, E2 = self.dE_dm, self.d2E_dm2
        return 1j * px / (4.0 * mt**2) * self.t[3] + self.u * (
            -1j * px / (4.0 * mt**3) * self.b
            + (1j * px * E1 / (8.0 * mt**2) + E2 / 4.0) * self.b_E
            + E1**2 / 4.0 * self.b_EE)


class SolitonFamily:
    """Ground states parametrized by total mass, plus boosted solitons.

    `m_ref` is the reference mass m; a parameter vector p shifts the total
    mass to m + p4/2.  A power family scales its reference profile B (the
    closed form in 1D, one solve in 3D); a saturable family finds E(m) by
    Newton on the solved m(E), whose exact slope also gives
    E'(m) = 1/m'(E) and E''(m) = -m''(E)/m'(E)^3.  `curve` is accepted and
    ignored.
    """

    def __init__(self, model: NonlinearityModel, dim: int, m_ref: float,
                 curve: MassCurve | None = None, r_max: float = 40.0, n_r: int = 2048,
                 wrap_tol: float = 1e-10):
        self.model = model
        self.dim = dim
        self.m_ref = float(m_ref)
        self.r_max = r_max
        self.n_r = n_r
        self.wrap_tol = wrap_tol
        self._power = model.kind == "power"
        self._active = tuple(range(dim)) + (3,)
        if self._power:
            sg, c = model.sigma, model.c
            self._expo = 1.0 / sg - dim / 2.0
            if self._expo <= 0:
                raise GroundStateError(
                    f"{dim}D power with sigma = {sg}: mass decreases with E (h2 fails)")
            if dim == 1:
                i_sg = math.sqrt(math.pi) * math.gamma(1.0 / sg) / math.gamma(1.0 / sg + 0.5)
                self._K = ((1.0 + sg) / c) ** (1.0 / sg) * i_sg / (2.0 * sg)
                self._ref = _closed_form_1d(model, 1.0)

                def log_derivatives(rho):      # log B = const + log sech(sigma rho) / sigma
                    th = np.tanh(sg * rho)
                    return -th, -sg * (1.0 - th * th)
                self._ref_log_derivatives = log_derivatives
            else:
                self._ref = solve_ground_state(model, 1.0, dim, r_max=r_max, n=n_r)
                self._K = self._ref.mass
                self._ref_log_derivatives = self._ref.log_derivatives
        self._profiles: dict = {}

    # mass <-> energy
    def energy_of_mass(self, mtot: float) -> float:
        if mtot <= 0:
            raise GroundStateError("total mass must be positive")
        if self._power:
            return (mtot / self._K) ** (1.0 / self._expo)
        # from the cached profile nearest in mass, or mid-range; a step that
        # leaves (0, c) goes halfway to the end it crossed
        c = self.model.c
        near = min(self._profiles.values(), key=lambda p: abs(p.mass - mtot), default=None)
        energy = 0.5 * c if near is None else near.energy
        tried = {}
        for _ in range(_MASS_NEWTON_ITERS):
            prof = self.profile(energy)
            miss = prof.mass - mtot
            if abs(miss) <= 1e-13 * mtot:
                return energy
            # a step inside the cache key's rounding lands back on a cached
            # profile and would cycle, so the best energy tried is the answer
            key = round(float(energy), 14)
            if key in tried:
                return min(tried.values())[1]
            tried[key] = (abs(miss), energy)
            step = energy - miss / prof.mass_derivatives()[0]
            energy = step if 0.0 < step < c else 0.5 * (energy + (c if step > 0.0 else 0.0))
        raise GroundStateError(f"Newton on m(E) = {mtot} did not converge")

    def mass_of_energy(self, energy: float) -> float:
        if self._power:
            return self._K * energy**self._expo
        return self.profile(energy).mass

    def dE_dm(self, mtot: float) -> float:
        return self._mass_derivatives(self.energy_of_mass(mtot), mtot)[0]

    def _mass_derivatives(self, energy: float, mtot: float):
        """(E'(m), E''(m)) at total mass mtot = m(energy)."""
        if self._power:
            alpha = 1.0 / self._expo                 # E = (m/K)^alpha
            return alpha * energy / mtot, alpha * (alpha - 1.0) * energy / mtot**2
        s1, s2 = self.profile(energy).mass_derivatives()
        return 1.0 / s1, -s2 / s1**3

    def profile(self, energy: float) -> GroundStateProfile:
        """The saturable kind's solved profile at `energy` (cached)."""
        key = round(float(energy), 14)
        if key not in self._profiles:
            self._profiles[key] = solve_ground_state(
                self.model, energy, self.dim, r_max=self.r_max, n=self.n_r)
            if len(self._profiles) > 64:
                self._profiles.pop(next(iter(self._profiles)))
        return self._profiles[key]

    def radial_profile(self, energy: float):
        """b_E as a function of the radius: E^(1/(2 sigma)) B(sqrt(E) r) for
        the power kind, the solved profile for the saturable kind."""
        if not self._power:
            return self.profile(energy)
        scale, rt = energy ** (0.5 / self.model.sigma), math.sqrt(energy)
        return lambda r: scale * self._ref(rt * r)

    def radial_samples(self, energy: float, max_spacing: float = math.inf):
        """(r, h, b_E(r)) at r = 0, h, ..., r_max / sqrt(E), h <= max_spacing and
        h <= 1/(4 sqrt(E) max(1, sigma)) (sigma = 1 for the saturable kind)."""
        sigma = self.model.sigma if self._power else 1.0
        r_end = self.r_max / math.sqrt(energy)
        n = math.ceil(max(4.0 * max(1.0, sigma) * self.r_max, r_end / max_spacing))
        r, h = np.linspace(0.0, r_end, n + 1, retstep=True)
        return r, h, self.radial_profile(energy)(r)

    def profile_on_grid(self, energy: float, grid: Grid) -> np.ndarray:
        """b_E at the grid's nodes, after checking b(L/2)/b(0) <= wrap_tol on
        the shortest axis."""
        prof = self.radial_profile(energy)
        edge, top = prof(np.array([min(grid.length) / 2.0, 0.0]))
        ratio = edge / top
        if ratio > self.wrap_tol:
            raise GroundStateError(
                f"profile not decayed at box edge: b(edge)/b(0) = {ratio:.2e}")
        return prof(grid.radius)

    def dbdE_on_grid(self, energy: float, grid: Grid, b: np.ndarray):
        """(d b/dE, f) on the grid, given b = profile_on_grid(energy), with
        f() = d^2 b/dE^2: a residual needs only b_E, and a Newton step's
        d t_l/d p_k asks for b_EE.

        With g = d log b/dE, b_E = b g and b_EE = b (g^2 + g').  For the power
        kind g follows from the scaling law and (log B)', (log B)'' at
        rho = sqrt(E) r.  For the saturable kind g = b_E / b and
        g' = b_EE / b - g^2 come from the solve's exact derivatives on its
        radial grid, and each is sampled once; the profile's interpolant is
        linear in log b, so these are the E-derivatives of profile_on_grid."""
        r = grid.radius
        if self._power:
            sg, rt = self.model.sigma, math.sqrt(energy)
            d1, d2 = self._ref_log_derivatives(rt * r)
            rd1 = r * d1
            g = 1.0 / (2.0 * sg * energy) + rd1 / (2.0 * rt)

            def dg():
                return (-1.0 / (2.0 * sg * energy**2) + r**2 * d2 / (4.0 * energy)
                        - rd1 / (4.0 * energy * rt))
        else:
            prof = self.profile(energy)
            g_r = prof.b_E / prof.b
            g = _RadialSpline(prof.r, g_r)(r)

            def dg():
                return _RadialSpline(prof.r, prof.b_EE / prof.b - g_r * g_r)(r)
        b_E = b * g
        return b_E, lambda: b_E * g + b * dg()

    # soliton construction
    def _centered(self, p, grid: Grid):
        """(u, b, E, m~, p.x) of eta_p = u b at q = 0, u = e^{-i p.x / (2 m~)}."""
        mt = self.m_ref + p[3] / 2.0
        if mt <= 0:
            raise GroundStateError("m + p4/2 must stay positive")
        E = self.energy_of_mass(mt)
        b = self.profile_on_grid(E, grid)
        px = sum(p[j] * grid.x[j] for j in range(self.dim))
        phase = px / (2.0 * mt)
        u = np.empty(np.shape(phase), complex)   # exp(-i phase) from its real angle
        np.cos(phase, out=u.real)
        np.sin(-phase, out=u.imag)
        return u, b, E, mt, px

    def build_centered(self, p, grid: Grid):
        """eta_p (at q = 0) and its ingredients (b, E, m~)."""
        u, b, E, mt, _ = self._centered(np.asarray(p, dtype=float), grid)
        return u * b, b, E, mt

    def build(self, params: SolitonParameters, grid: Grid) -> FieldState:
        eta, _, _, _ = self.build_centered(params.p, grid)
        return apply_symmetry(FieldState(grid, eta), params.q)

    def tangents(self, p, grid: Grid) -> SolitonTangents:
        """eta_p, d eta/d p_j and A_j eta_p, all centered at q = 0, written
        into the rows of the bundle's blocks."""
        p = np.asarray(p, dtype=float)
        u, b, E, mt, px = self._centered(p, grid)
        b_E, b_EE = self.dbdE_on_grid(E, grid, b)
        dEdm, d2Edm2 = self._mass_derivatives(E, mt)
        act = self._active
        A = np.empty((len(act), 2 * grid.size))
        tg = SolitonTangents(p=p, mtilde=mt, energy=E, grid=grid, A=A, T=np.empty_like(A),
                             eta_hat=None, active=act, u=u, b=b, b_E=b_E, b_EE_of=b_EE,
                             dE_dm=dEdm, d2E_dm2=d2Edm2)
        eta = np.multiply(u, b, out=tg.eta)
        for j in range(self.dim):
            np.multiply(-1j * grid.x[j] / (2.0 * mt), eta, out=tg.t[j])
        np.multiply(u, 1j * px / (4.0 * mt**2) * b + 0.5 * dEdm * b_E, out=tg.t[3])
        tg.eta_hat = fld.fftn(eta)
        for j in range(self.dim):
            fld.ifftn(-grid.k_deriv[j] * tg.eta_hat, tg.A_eta[j])
        return tg

    def lambda_multipliers(self, params: SolitonParameters) -> np.ndarray:
        lam = self.coordinate_rates(params.p)
        lam[3] = -lam[3]
        return lam

    def coordinate_rates(self, p) -> np.ndarray:
        """Free drift rates of q along the flow: q_vec' = p/m~, q4' = E + v^2/4
        (the Lagrange multipliers of eta_p, with q4' = -lambda_4).
        The base of the warm-start predictor between extractions; the scenario
        run adds the previous sample's miss of it (the stepping scheme's own
        phase speed) on top."""
        p = np.asarray(p, dtype=float)
        mt = self.m_ref + p[3] / 2.0
        rates = np.empty(4)
        rates[:3] = p[:3] / mt
        rates[3] = self.energy_of_mass(mt) + float(np.sum(p[:3] ** 2)) / (4.0 * mt**2)
        return rates

    def residual_check(self, params: SolitonParameters, grid: Grid) -> float:
        """L2 norm of -Lap eta + grad H_P(eta) - lambda^j A_j eta."""
        eta, b, E, mt = self.build_centered(params.p, grid)
        lam = self.lambda_multipliers(params)
        eta_hat = fld.fftn(eta)
        res = fld.ifftn(grid.k2 * eta_hat)                        # -Lap eta
        res = res - self.model.beta_prime(np.abs(eta) ** 2) * eta  # grad H_P
        for j in range(self.dim):
            A_j = fld.ifftn(-grid.k_deriv[j] * eta_hat)
            res = res - lam[j] * A_j
        res = res - lam[3] * eta
        return float(np.sqrt(grid.cell * np.sum(np.abs(res) ** 2)))
