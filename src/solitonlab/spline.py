"""Piecewise cubics: the interpolating cubic spline and PCHIP.

Both builders repeat scipy's `CubicSpline` and `PchipInterpolator` step for
step, and `PiecewisePoly` evaluates in `PPoly`'s order of operations, so the
coefficients and values are scipy's bit for bit (tests pin them).  Roots are
found for a piecewise quadratic (a cubic's derivative) only, in closed form
refined by one Newton step as `PPoly` does.  Only the tridiagonal solve comes
from `scipy.linalg`; the package never imports `scipy.interpolate`, which
would bring `scipy.sparse`, `scipy.spatial` and `scipy.optimize` into every
process.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["PiecewisePoly", "cubic_spline", "pchip"]


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


def _quadratic(a, b, cc):
    """The two roots of a s^2 + b s + cc (a != 0) as `PPoly` computes them,
    NaN for a complex pair whose imaginary part exceeds 1e-10."""
    d = b * b - 4.0 * a * cc
    cplx = d < 0
    sd = np.sqrt(np.abs(d))
    two_a = 2.0 * a
    mid = np.where(cplx & (np.abs(sd / two_a) > 1e-10), np.nan, -b / two_a)
    same = cplx | (sd == 0)
    neg_b = b < 0
    w0 = np.where(same, mid, np.where(neg_b, (2.0 * cc) / (-b + sd), (-b - sd) / two_a))
    w1 = np.where(same, mid, np.where(neg_b, (-b + sd) / two_a, (2.0 * cc) / (-b - sd)))
    return w0, w1


class PiecewisePoly:
    """p(v) = sum_k c[k, i] (v - x[i])^(K-1-k) on [x[i], x[i+1]] (K = len(c)),
    the first and last pieces continued past the ends: `PPoly`'s layout, and
    its arithmetic in `__call__`, `derivative` and `roots`."""

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

    def derivative(self) -> "PiecewisePoly":
        K = len(self.c)
        return PiecewisePoly(self.x, self.c[:-1] * np.arange(K - 1.0, 0.0, -1.0)[:, None])

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

    def roots(self) -> np.ndarray:
        """Every v in [x[0], x[-1]] with p(v) = 0 (degree <= 2), in the order and
        with the conventions of `PPoly.roots(extrapolate=False)`: piece by
        piece, a knot where p changes sign between pieces, a piece zero
        throughout as its start followed by NaN, a value equal to the one
        before it dropped.  Each piece's roots are closed forms refined by one
        Newton step as `PPoly` does."""
        x, c = self.x, self.c
        K, n = c.shape
        if K > 3:
            raise ValueError("roots of a piecewise quadratic or lower")
        with np.errstate(all="ignore"):
            lead = c[:-1] != 0
            order = np.where(lead.any(axis=0), K - 1 - lead.argmax(axis=0), 0)
            w = np.full((K - 1, n), np.nan)           # roots in s = v - x[i]
            lin = order == 1
            w[0, lin] = -c[-1, lin] / c[-2, lin]
            if K == 3:
                sq = order == 2
                w[:, sq] = _quadratic(c[0, sq], c[1, sq], c[2, sq])
            f, df = _power_sum(c, w, 0), _power_sum(c, w, 1)
            dx = f / df
            w = np.where((df != 0) & (np.abs(dx) < np.abs(w)), w - dx, w) + x[:-1]
            inside = (x[:-1] <= w) & (w <= x[1:])
            va = _power_sum(c[:, :-1], np.diff(x[:-1]), 0)
            vb = c[-1, 1:]
        flat = (order == 0) & (c[-1] == 0)
        jump = np.zeros(n, bool)
        jump[1:] = ((va < 0) & (vb > 0)) | ((va > 0) & (vb < 0))
        # per piece: a sign-change knot, a flat piece's start and NaN, its roots
        cand = np.vstack([x[:-1], x[:-1], np.full(n, np.nan), w])
        piece, row = np.nonzero(np.vstack([jump, flat, flat, inside]).T)
        vals, forced = cand[row, piece], (row == 1) | (row == 2)
        fresh = np.ones(len(vals), bool)
        fresh[1:] = vals[1:] != vals[:-1]
        return vals[fresh | forced]


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


def _pchip_end(h0, h1, m0, m1):
    """`PchipInterpolator`'s one-sided three-point end slope, kept in shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> PiecewisePoly:
    """The monotone piecewise-cubic Hermite interpolant through (x, y), x
    increasing, at least 3 knots: `PchipInterpolator`'s slopes."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("PCHIP needs at least 3 knots")
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    sm = np.sign(m)
    cond = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~cond] = 1.0 / whmean[~cond]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return _hermite(x, y, d)
