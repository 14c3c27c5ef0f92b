"""The in-house cubic spline and PCHIP against scipy.interpolate, which the
package itself never imports: coefficients and values bit for bit, roots to
1e-14."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

from solitonlab.spline import PiecewisePoly, cubic_spline, pchip

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
    _same(ours.derivative().c, ref.derivative().c)


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
    _same(ours.derivative()(v, min(nu, 1)), ref.derivative()(v, min(nu, 1)))


def test_uniform_scalar_path_matches_evaluation():
    ref, ours = _pair("uniform", "not-a-knot", seed=3)
    x = KNOTS["uniform"]
    for q in np.random.default_rng(4).uniform(x[0], x[-1], 200):
        assert ours.value_uniform(q) == pytest.approx(ref(q), rel=0, abs=1e-14)
        assert ours.slope_uniform(q) == pytest.approx(ref(q, 1), rel=0, abs=1e-14)


# PCHIP end slopes (PchipInterpolator._edge_case) on unit spacing: the
# three-point estimate kept, zeroed where its sign differs from the end
# segment's, or capped at three times that segment's slope where the next
# segment turns back; interior slopes zeroed at a flat segment or a sign change
PCHIP_CASES = {
    "kept": ([0.0, 1.0, 2.0, 4.0, 4.5], 1.0),
    "sign-flip": ([0.0, 1.0, 5.0, 5.5, 6.0], 0.0),
    "capped": ([0.0, 1.0, -4.0, -4.5, -6.0], 3.0),
    "flat-segment": ([0.0, 1.0, 1.0, 2.0, 0.5], None),
    "sign-change": ([1.0, 0.0, 2.0, -1.0, 3.0], None),
}


@pytest.mark.parametrize("case", PCHIP_CASES)
@pytest.mark.parametrize("knots", ["uniform", "nonuniform"])
def test_pchip_coefficients_bit_for_bit(case, knots):
    y, slope = PCHIP_CASES[case]
    x = np.arange(5.0) if knots == "uniform" else np.array([0.0, 0.7, 1.0, 2.4, 2.5])
    ref, ours = PchipInterpolator(x, y), pchip(x, y)
    _same(ours.c, ref.c)
    if slope is not None and knots == "uniform":
        assert ours.c[2, 0] == slope
    v = np.linspace(x[0] - 0.5, x[-1] + 0.5, 101)
    for nu in (0, 1, 2):
        _same(ours(v, nu), ref(v, nu))


@pytest.mark.parametrize("start", STARTS)
@pytest.mark.parametrize("knots", KNOTS)
def test_derivative_roots_match_ppoly(knots, start):
    ref, ours = _pair(knots, start, seed=6)
    want = ref.derivative().roots(extrapolate=False)
    got = ours.derivative().roots()
    assert len(want) > 3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_roots_need_a_quadratic():
    with pytest.raises(ValueError, match="quadratic"):
        cubic_spline(np.arange(5.0), np.arange(5.0) ** 3).roots()


def test_roots_of_zero_piece_are_start_and_nan():
    # a constant spline, whose derivative is zero on every piece, and
    # quadratics with one zero piece
    x = np.arange(8.0)
    y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    want = CubicSpline(x, y).derivative().roots(extrapolate=False)
    got = cubic_spline(x, y).derivative().roots()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    assert np.isnan(got).sum() == 7
    c = np.array([[1.0, 0.0, -1.0, 2.0], [-1.0, 0.0, 0.5, -2.0], [0.21, 0.0, 0.3, 0.5]])
    xk = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    want = PPoly(c, xk).roots(extrapolate=False)
    got = PiecewisePoly(xk, c).roots()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    assert np.isnan(got).sum() == 1 and 1.0 in got


def test_too_few_knots_raise():
    with pytest.raises(ValueError):
        cubic_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        pchip([0.0, 1.0], [0.0, 1.0])
