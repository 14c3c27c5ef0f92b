"""Piecewise cubics: the interpolating cubic spline and the cubic Hermite.

`cubic_spline` repeats scipy's `CubicSpline` step for step, `_hermite` builds
`CubicHermiteSpline`'s coefficients from values and slopes, and
`PiecewisePoly` evaluates in `PPoly`'s order of operations, so the
coefficients and values are scipy's bit for bit (tests pin them).  A cubic's
stationary points are closed forms: the real roots of its derivative, a
quadratic on each piece.  Only the tridiagonal solve comes from
`scipy.linalg`; the package never imports `scipy.interpolate`, which would
bring `scipy.sparse`, `scipy.spatial` and `scipy.optimize` into every process.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["PiecewisePoly", "cubic_spline"]


def _power_sum(c: np.ndarray, s: np.ndarray, nu: int) -> np.ndarray:
    """d^nu/ds^nu of sum_k c[k] s^(K-1-k) at s (c[k] broadcast against s), as
    `PPoly` sums it: lowest power first, each term (c z) prefactor with
    z = s^j, added to 0."""
    K = len(c)
    res, z, buf = None, None, np.empty(s.shape)
    for j in range(nu, K):
        term = c[K - 1 - j] if z is None else np.multiply(c[K - 1 - j], z, out=buf)
        fac = math.perm(j, nu)
        if fac != 1:
            term = np.multiply(term, float(fac), out=buf)
        if res is None:
            res = np.add(term, 0.0, out=np.empty(s.shape))
        else:
            res += term
        if j < K - 1:
            z = s if z is None else (z * s if z is s else np.multiply(z, s, out=z))
    return res


class PiecewisePoly:
    """p(v) = sum_k c[k, i] (v - x[i])^(K-1-k) on [x[i], x[i+1]] (K = len(c)),
    the first and last pieces continued past the ends: `PPoly`'s layout, and
    its arithmetic in `__call__`."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c
        self._x0, self._h, self._n = float(x[0]), float(x[1] - x[0]), c.shape[1]
        # piece i holds lo[i] <= v < hi[i]; the end pieces reach to -inf, +inf
        self._lo, self._hi = x[:-1].copy(), x[1:].copy()
        self._lo[0], self._hi[-1] = -np.inf, np.inf

    def _pieces(self, v: np.ndarray) -> np.ndarray:
        """The piece of each v, searchsorted(x, v, "right") - 1 clipped to the
        pieces: guessed from the mean knot spacing (exact but for rounding on
        uniform knots) and searched only where the guess misses.  NaN gets 0."""
        n = self._n
        t = (v - self._x0) * (n / (self.x[-1] - self._x0))
        np.fmax(t, 0.0, out=t)
        np.fmin(t, n - 1.0, out=t)
        i = t.astype(np.intp)
        miss = (v < np.take(self._lo, i)) | (v >= np.take(self._hi, i))
        if miss.any():
            i[miss] = np.searchsorted(self.x, v[miss], "right") - 1
            np.clip(i, 0, n - 1, out=i)
        return i

    def __call__(self, v, nu: int = 0) -> np.ndarray:
        """p or its nu-th derivative at v (any shape); NaN gives NaN."""
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        i = self._pieces(flat)
        out = _power_sum(np.take(self.c, i, axis=1), flat - np.take(self.x, i), nu)
        out[np.isnan(flat)] = np.nan
        return out.reshape(v.shape)

    def value_uniform(self, q: float) -> float:
        """p(q) of a cubic on uniform knots, scalar and by Horner."""
        j = int((q - self._x0) / self._h)
        j = 0 if j < 0 else (self._n - 1 if j >= self._n else j)
        t = q - (self._x0 + j * self._h)
        c = self.c
        return ((c[0, j] * t + c[1, j]) * t + c[2, j]) * t + c[3, j]

    def slope_uniform(self, q: float) -> float:
        """p'(q) of a cubic on uniform knots, scalar and by Horner."""
        j = int((q - self._x0) / self._h)
        j = 0 if j < 0 else (self._n - 1 if j >= self._n else j)
        t = q - (self._x0 + j * self._h)
        c = self.c
        return (3.0 * c[0, j] * t + 2.0 * c[1, j]) * t + c[2, j]

    def stationary_points(self) -> np.ndarray:
        """Every v in [x[0], x[-1]] where a cubic's p' = 3 c0 s^2 + 2 c1 s + c2
        (s = v - x[i]) vanishes, piece by piece and increasing within a piece:
        the real roots in [0, h_i] by the cancellation-free quadratic formula,
        q = -(b + sign(b) sqrt(b^2 - 4 a c)) / 2 and roots q/a, c/q (c/q alone
        when a = 0), and the start of a piece where p' is zero throughout."""
        a, b, c = 3.0 * self.c[0], 2.0 * self.c[1], self.c[2]
        with np.errstate(all="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            s = np.sort([q / a, c / q], axis=0)       # NaN (no root) sorts last
        s[0, (a == 0) & (b == 0) & (c == 0)] = 0.0
        inside = (s >= 0) & (s <= np.diff(self.x))
        return (s + self.x[:-1]).T[inside.T]


def _hermite(x, y, s) -> PiecewisePoly:
    """The cubic Hermite interpolant with slopes s at the knots
    (`CubicHermiteSpline`'s coefficients)."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return PiecewisePoly(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))


def cubic_spline(x, y, d0: float | None = None) -> PiecewisePoly:
    """The interpolating cubic spline through (x, y), x increasing, at least 4
    knots: `CubicSpline` with a not-a-knot end and a not-a-knot start, or a
    start clamped to the slope d0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    if n < 4:
        raise ValueError("a cubic spline needs at least 4 knots")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, n))              # banded: upper, main and lower diagonals
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if d0 is None:
        A[1, 0] = dx[1]
        A[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    else:
        A[1, 0] = 1
        A[0, 1] = 0
        b[0] = d0
    A[1, -1] = dx[-2]
    A[-1, -2] = x[-1] - x[-3]
    d = x[-1] - x[-3]
    b[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True,
                     overwrite_b=True, check_finite=False).reshape(n)
    return _hermite(x, y, s)
