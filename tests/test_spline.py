"""The in-house cubic spline against scipy.interpolate, which the package
itself never imports: coefficients and values bit for bit, stationary points
(the derivative's roots) to 1e-14."""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from solitonlab.spline import PiecewisePoly, _hermite, cubic_spline

KNOTS = {
    "uniform": np.linspace(-4.0, 6.0, 23),
    "nonuniform": np.cumsum(np.random.default_rng(5).uniform(0.05, 1.0, 31)),
}
STARTS = {"not-a-knot": None, "clamped": 0.3}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _same(a, b):
    np.testing.assert_array_equal(_bits(a), _bits(b))


def _pair(knots, start, seed=0):
    x = KNOTS[knots]
    y = np.sin(1.3 * x) + np.random.default_rng(seed).normal(0.0, 0.1, len(x))
    d0 = STARTS[start]
    bc = "not-a-knot" if d0 is None else ((1, d0), "not-a-knot")
    return CubicSpline(x, y, bc_type=bc), cubic_spline(x, y, d0)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("knots", KNOTS)
def test_cubic_spline_coefficients_bit_for_bit(knots, start):
    ref, ours = _pair(knots, start)
    _same(ours.c, ref.c)


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("knots", KNOTS)
def test_evaluation_bit_for_bit(knots, start, nu):
    ref, ours = _pair(knots, start, seed=1)
    x = KNOTS[knots]
    v = np.concatenate([
        np.random.default_rng(2).uniform(x[0], x[-1], 400),   # inside the pieces
        x,                                                     # on the knots
        [x[0] - 1.5, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 2.0],  # past both ends
        [np.nan],
    ])
    out = ours(v, nu)
    _same(out, ref(v, nu))
    assert np.isnan(out[-1])
    _same(ours(v.reshape(4, -1), nu), ref(v.reshape(4, -1), nu))
    _same(ours(v[5], nu), ref(v[5], nu))


@pytest.mark.parametrize("knots", KNOTS)
def test_hermite_coefficients_bit_for_bit(knots):
    # the mass curve's interpolant: values and exact slopes at the knots
    x = KNOTS[knots]
    y, s = np.random.default_rng(7).normal(size=(2, len(x)))
    _same(_hermite(x, y, s).c, CubicHermiteSpline(x, y, s).c)


def test_uniform_scalar_path_matches_evaluation():
    ref, ours = _pair("uniform", "not-a-knot", seed=3)
    x = KNOTS["uniform"]
    for q in np.random.default_rng(4).uniform(x[0], x[-1], 200):
        assert ours.value_uniform(q) == pytest.approx(ref(q), rel=0, abs=1e-14)
        assert ours.slope_uniform(q) == pytest.approx(ref(q, 1), rel=0, abs=1e-14)


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("knots", KNOTS)
def test_derivative_roots_match_ppoly(knots, start):
    # the stationary points, in increasing order, are the roots of scipy's
    # derivative spline (which lists a piece's two roots in either order)
    ref, ours = _pair(knots, start, seed=6)
    want = np.sort(ref.derivative().roots(extrapolate=False))
    got = ours.stationary_points()
    assert len(want) > 3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_stationary_points_of_flat_and_quadratic_pieces():
    # a constant spline is flat on every piece: each piece gives its start.
    # Pieces with c0 = 0 (p' linear), p' = 0, p' = s^2 + 1 > 0 and p' = 3 s^2
    x = np.arange(8.0)
    np.testing.assert_array_equal(cubic_spline(x, np.ones(8)).stationary_points(),
                                  x[:-1])
    c = np.array([[0.0, 0.0, 1.0 / 3.0, 1.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [-1.2, 0.0, 1.0, 0.0],
                  [0.3, 0.5, 2.0, 1.0]])
    xk = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(PiecewisePoly(xk, c).stationary_points(),
                                  [0.6, 1.0, 3.0])


def test_too_few_knots_raise():
    with pytest.raises(ValueError):
        cubic_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
