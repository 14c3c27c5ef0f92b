import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from solitonlab import groundstate
from solitonlab.field import Grid, momenta
from solitonlab.groundstate import (GroundStateError, GroundStateProfile,
                                    SolitonFamily, SolitonParameters, check_h2,
                                    mass_curve, mass_of, newton_ground_state,
                                    solve_ground_state)
from solitonlab.model import NonlinearityModel

SQRT_MODEL = NonlinearityModel("power", sigma=0.5, c=1.0)


@pytest.fixture()
def banded_calls(monkeypatch):
    """A cold solver memo, and a list that records each banded solve of the
    radial Newton."""
    newton_ground_state.cache_clear()
    calls = []
    solve_banded = groundstate.solve_banded

    def counting(*args, **kw):
        calls.append(1)
        return solve_banded(*args, **kw)
    monkeypatch.setattr(groundstate, "solve_banded", counting)
    return calls


# -- 1D closed forms -------------------------------------------------------------

@pytest.mark.parametrize("energy", [1.0, 4.0])
def test_cubic_1d_matches_sech(cubic, energy):
    prof = solve_ground_state(cubic, energy, dim=1, r_max=40.0, n=2048)
    k = math.sqrt(energy)
    exact = k / np.cosh(k * prof.r)
    assert np.max(np.abs(prof.b - exact)) < 1e-12
    assert prof.residual < 1e-10
    assert prof.decay_rate == pytest.approx(k, rel=1e-3)


def test_cubic_masses(cubic):
    assert solve_ground_state(cubic, 1.0, 1).mass == pytest.approx(1.0, rel=1e-8)
    assert solve_ground_state(cubic, 4.0, 1).mass == pytest.approx(2.0, rel=1e-8)


def test_mass_of_zero_field(cubic):
    prof = GroundStateProfile(1.0, 1, np.linspace(0, 10, 64),
                              np.zeros(64), cubic, residual=0.0, decay_rate=1.0)
    assert mass_of(prof) == 0.0


def test_profile_monotone_positive(cubic):
    prof = solve_ground_state(cubic, 1.0, 1)
    assert np.all(prof.b > 0)
    assert np.all(np.diff(prof.b) <= 0)


def test_scaling_law_power_1d(cubic):
    # b_E(x) = E^(1/(2 sigma)) b_1(sqrt(E) x)
    e = 2.7
    p1 = solve_ground_state(cubic, 1.0, 1)
    pe = solve_ground_state(cubic, e, 1)
    x = np.linspace(0, 8.0, 200)
    assert np.max(np.abs(pe(x) - math.sqrt(e) * p1(math.sqrt(e) * x))) < 1e-10


def test_newton_agrees_with_closed_form(cubic):
    prof = newton_ground_state(cubic, 1.0, dim=1, r_max=25.0, n=1024)
    x = np.linspace(0, 10, 100)
    assert np.max(np.abs(prof(x) - 1.0 / np.cosh(x))) < 1e-7


# -- 3D solvers -------------------------------------------------------------------

@pytest.fixture(scope="module")
def prof3():
    return solve_ground_state(SQRT_MODEL, 1.0, dim=3, r_max=30.0, n=1536)


def test_3d_power_residual(prof3):
    assert prof3.residual < 1e-6
    assert np.all(prof3.b > 0)
    assert np.all(np.diff(prof3.b) <= 1e-12 * prof3.b[0])


def test_3d_newton_cross_check(prof3):
    # against the same solve at half the spacing, and against the mass of a
    # spectral (DST-based Petviashvili) solve on the same grid
    fine = newton_ground_state(SQRT_MODEL, 1.0, dim=3, r_max=30.0, n=3071)
    r = np.linspace(0.0, 12.0, 120)
    assert np.max(np.abs(fine(r) - prof3(r))) < 1e-5 * prof3.b[0]
    assert prof3.mass == pytest.approx(65.49035507437067, rel=1e-12)


def test_3d_two_direction_shooting_match(prof3):
    """Outward (from the radial Newton solve's b(0)) and inward (from the
    asymptotic tail) integrations meet at mid-radius with matching
    log-derivative, and agree with the solved profile there."""
    E, model, solved = prof3.energy, prof3.model, prof3

    def rhs(r, y):
        b, bp = y
        return [bp, -2.0 / r * bp + E * b - model.beta_prime(b * b) * b]

    r_mid, r_far = 6.0, 20.0
    r0 = 1e-8
    b0 = solved.b[0]
    bpp0 = (E * b0 - model.beta_prime(b0 * b0) * b0) / 3.0
    out = solve_ivp(rhs, (r0, r_mid), [b0 + 0.5 * bpp0 * r0**2, bpp0 * r0],
                    rtol=1e-12, atol=1e-14, dense_output=True, method="DOP853")
    # inward: seed on the asymptotic tail C e^{-sqrt(E) r}/r
    k = math.sqrt(E)
    c_tail = solved(r_far) * r_far * math.exp(k * r_far)
    b_far = c_tail * math.exp(-k * r_far) / r_far
    bp_far = c_tail * math.exp(-k * r_far) * (-k / r_far - 1.0 / r_far**2)
    inw = solve_ivp(rhs, (r_far, r_mid), [b_far, bp_far], rtol=1e-12, atol=1e-16,
                    dense_output=True, method="DOP853")
    b_o, bp_o = out.sol(r_mid)
    b_i, bp_i = inw.sol(r_mid)
    assert b_o == pytest.approx(solved(r_mid), rel=1e-4)
    assert bp_o / b_o == pytest.approx(bp_i / b_i, rel=1e-3)


@pytest.mark.parametrize("sigma", [0.5, 1.0 / 3.0], ids=["sigma0.5", "sigma1_3"])
def test_3d_profile_tail_is_clean(sigma):
    # at the default radii the iterate's tail sinks into roundoff before
    # r_max; the interpolant stays a decaying profile, past r_max too
    prof = solve_ground_state(NonlinearityModel("power", sigma=sigma, c=1.0), 1.0, dim=3)
    b = prof(np.linspace(0.0, 60.0, 6001))
    assert np.all(b > 0)
    assert np.all(np.diff(b) <= 0)
    assert np.max(b) <= prof.b[0]


def test_3d_supercritical_warns(cubic):
    with pytest.warns(UserWarning, match="h2"):
        solve_ground_state(cubic, 1.0, dim=3, r_max=25.0, n=1024)


def test_3d_family_reuses_the_solve(banded_calls):
    prof = solve_ground_state(SQRT_MODEL, 1.0, dim=3, r_max=30.0, n=1536)
    assert banded_calls
    banded_calls.clear()
    fam = SolitonFamily(SQRT_MODEL, 3, m_ref=1.0, r_max=30.0, n_r=1536)
    assert len(banded_calls) == 0
    assert fam._ref is prof


def test_3d_cached_profile_is_shared_read_only(cubic, banded_calls):
    prof = solve_ground_state(SQRT_MODEL, 1.0, dim=3, r_max=30.0, n=512)
    solves = len(banded_calls)
    assert solve_ground_state(SQRT_MODEL, 1.0, dim=3, r_max=30.0, n=512) is prof
    assert len(banded_calls) == solves
    for a in (prof.r, prof.b, prof.b_E, prof.b_EE):
        with pytest.raises(ValueError):
            a[0] = 1.0
    # the dispatch's checks run on every call, a cached one too
    for _ in range(2):
        with pytest.warns(UserWarning, match="h2"):
            solve_ground_state(cubic, 1.0, dim=3, r_max=25.0, n=1024)


def test_saturable_newton():
    m = NonlinearityModel("saturable", c=3.0)
    prof = newton_ground_state(m, 1.0, dim=1, r_max=30.0, n=1024)
    assert prof.residual < 1e-6
    assert np.all(np.diff(prof.b) <= 1e-12 * prof.b[0])


def test_saturable_needs_energy_below_c():
    m = NonlinearityModel("saturable", c=1.0)
    with pytest.raises(GroundStateError):
        newton_ground_state(m, 1.5, dim=1)


def test_saturable_newton_3d():
    m = NonlinearityModel("saturable", c=3.0)
    prof = newton_ground_state(m, 1.0, dim=3, r_max=25.0, n=1024)
    assert prof.residual < 1e-6
    assert np.all(np.diff(prof.b) <= 1e-12 * prof.b[0])


@pytest.mark.parametrize("energy", [2.7, 2.97])
def test_saturable_3d_near_c_passes_the_dispatch(energy):
    # E/c = 0.9 and 0.99 at the default radii, where a 4th-order stencil's
    # residuals (1.2e-6 and 3.5e-6) fail the dispatch's 1e-6 check
    prof = solve_ground_state(NonlinearityModel("saturable", c=3.0), energy, dim=3)
    assert prof.residual <= 1e-6


# b(0) from an independent method, shooting with bisection on b(0) (DOP853 at
# rtol 1e-12), at the default r_max = 40, n = 2048
SHOT_B0 = {
    (1.0, 1, 0.05): 0.32722819134711584, (1.0, 1, 0.3): 0.9823234795496003,
    (1.0, 1, 0.7): 2.623336458621857, (1.0, 1, 0.9): 6.012445781115442,
    (1.0, 1, 0.99): 25.44523605625333, (1.0, 3, 0.05): 0.89910054921891,
    (1.0, 3, 0.3): 2.4651049131022233, (1.0, 3, 0.7): 6.763769537540424,
    (1.0, 3, 0.9): 16.30327663855082, (1.0, 3, 0.99): 73.42455769038902,
    (3.0, 1, 0.05): 0.3272281402131786, (3.0, 1, 0.3): 0.9823234795496036,
    (3.0, 1, 0.7): 2.623336458621793, (3.0, 1, 0.9): 6.012445781115136,
    (3.0, 1, 0.99): 25.445236056257407, (3.0, 3, 0.05): 0.8991003690370477,
    (3.0, 3, 0.3): 2.465104913102305, (3.0, 3, 0.7): 6.76376953754014,
    (3.0, 3, 0.9): 16.30327663855018, (3.0, 3, 0.99): 73.42447915722624,
}


@pytest.mark.parametrize("c, dim, frac", sorted(SHOT_B0), ids=lambda v: f"{v:g}")
def test_saturable_newton_coverage(c, dim, frac):
    # the ground state from every cold start, with b_E and m'(E) the
    # derivatives of the profile and mass as built (tail included); the
    # E-derivatives grow towards either end of 0 < E < c, so the centred
    # differences step by 1e-4 of the distance to the nearer end
    model, E = NonlinearityModel("saturable", c=c), frac * c
    prof = newton_ground_state(model, E, dim)
    assert prof.b[0] == pytest.approx(SHOT_B0[c, dim, frac], rel=1e-7)
    hE = 1e-4 * min(E, c - E)
    up, dn = newton_ground_state(model, E + hE, dim), newton_ground_state(model, E - hE, dim)
    fd = (up.b - dn.b) / (2 * hE)
    assert np.max(np.abs(prof.b_E - fd)) < 1e-6 * np.max(np.abs(prof.b_E))
    assert prof.mass_derivatives()[0] == pytest.approx((up.mass - dn.mass) / (2 * hE), rel=1e-6)


# -- mass curve --------------------------------------------------------------------

def test_mass_curve_cubic_slopes(cubic):
    curve = mass_curve(cubic, 0.5, 2.0, 17, dim=1)
    assert check_h2(curve)[0]
    expect = 0.5 / np.sqrt(curve.energies)
    rel = np.abs(curve.slopes - expect) / expect
    assert np.max(rel[1:-1]) < 5e-3          # centered interior stencils
    assert np.max(rel[[0, -1]]) < 2e-2       # one-sided edges
    ok, info = check_h2(curve)
    assert ok and info["min_slope"] > 0


def test_mass_curve_needs_three_samples(cubic):
    with pytest.raises(GroundStateError, match="3 samples"):
        mass_curve(cubic, 0.5, 2.0, 1)


def test_mass_curve_3d_cubic_h2_fails(cubic):
    with pytest.warns(UserWarning):
        curve = mass_curve(cubic, 0.8, 1.2, 3, dim=3, r_max=25.0, n=1024)
    ok, info = check_h2(curve)
    assert not ok
    assert info["min_slope"] < 0


def test_mass_curve_3d_sqrt_h2_holds():
    curve = mass_curve(SQRT_MODEL, 0.8, 1.2, 3, dim=3, r_max=30.0, n=1024)
    assert check_h2(curve)[0]


@pytest.mark.parametrize("model, dim, kw", [
    (NonlinearityModel("power", sigma=1.0, c=2.0), 1, {}),
    (SQRT_MODEL, 3, dict(r_max=30.0, n=1024)),
], ids=["cubic1d", "sqrt3d"])
def test_mass_curve_power_slopes_are_the_law(model, dim, kw):
    # dm/dE = (1/sigma - d/2) m / E, not a difference of the samples
    curve = mass_curve(model, 0.9, 1.1, 3, dim=dim, **kw)
    law = (1.0 / model.sigma - dim / 2.0) * curve.masses / curve.energies
    np.testing.assert_allclose(curve.slopes, law, rtol=1e-13, atol=0.0)


def test_mass_curve_3d_power_is_one_solve(banded_calls):
    ref = newton_ground_state(SQRT_MODEL, 1.0, 3, r_max=30.0, n=1024)
    one_solve = len(banded_calls)
    newton_ground_state.cache_clear()
    banded_calls.clear()
    curve = mass_curve(SQRT_MODEL, 0.9, 1.1, 3, dim=3, r_max=30.0, n=1024)
    assert len(banded_calls) == one_solve
    np.testing.assert_allclose(curve.masses, ref.mass * curve.energies**0.5, rtol=1e-13, atol=0.0)


def test_profile_follows_the_grid(cubic):
    # grids made one after another, each freed before the next: CPython may
    # hand a freed grid's id to the next one, which must not see its radii
    family = SolitonFamily(cubic, 1, m_ref=1.0)
    for n, length in ((256, 40.0 * math.pi), (512, 40.0 * math.pi), (512, 30.0 * math.pi)):
        grid = Grid(1, n, length)
        b = family.profile_on_grid(1.0, grid)
        assert b.shape == (n,)
        assert np.max(np.abs(b - 1.0 / np.cosh(grid.axes[0]))) < 1e-15
        del grid, b


def test_power_family_3d_scaling_law():
    # m(E) = m(1) E^(1/sigma - 3/2) against a separate solve at each energy
    fam = SolitonFamily(SQRT_MODEL, 3, m_ref=1.0)
    for E in (0.9, 1.1, 1.3):
        want = solve_ground_state(SQRT_MODEL, E, dim=3).mass
        assert fam.mass_of_energy(E) == pytest.approx(want, rel=1e-13)
    with pytest.raises(GroundStateError, match="h2"):
        SolitonFamily(NonlinearityModel("power", sigma=2.0 / 3.0, c=1.0), 3, m_ref=1.0)


def test_family_analytic_inverse(family):
    assert family.energy_of_mass(1.0) == pytest.approx(1.0, rel=1e-14)
    assert family.energy_of_mass(2.0) == pytest.approx(4.0, rel=1e-14)
    assert family.dE_dm(1.0) == pytest.approx(2.0, rel=1e-12)


# -- boosted solitons ---------------------------------------------------------------

def test_build_rest_soliton_real_positive(family, grid512):
    psi = family.build(SolitonParameters(), grid512)
    assert np.max(np.abs(psi.values.imag)) < 1e-14
    assert np.min(psi.values.real) >= 0
    i0 = grid512.n[0] // 2
    assert psi.values.real[i0] == pytest.approx(1.0, rel=1e-12)


def test_build_momentum_relation(family, grid512, rng):
    # P_j(build(p, q)) - p_j and P4 - (2m + p4), |p| <= 0.5
    for _ in range(20):
        p = np.zeros(4)
        p[0] = rng.uniform(-0.45, 0.45)
        p[3] = rng.uniform(-0.2, 0.2)
        q = np.array([rng.uniform(-5, 5), 0, 0, rng.uniform(-3, 3)])
        psi = family.build(SolitonParameters(tuple(p), tuple(q)), grid512)
        P = momenta(psi)
        assert abs(P[0] - p[0]) < 1e-8
        assert abs(P[3] - (2.0 + p[3])) < 1e-8


def test_build_gauge_pi_flips_sign(family, grid512):
    plain = family.build(SolitonParameters(), grid512)
    flipped = family.build(SolitonParameters(q=(0, 0, 0, math.pi)), grid512)
    assert np.max(np.abs(flipped.values + plain.values)) < 1e-12


def test_build_gauge_2pi_covariance(family, grid512):
    a = family.build(SolitonParameters(q=(1.0, 0, 0, 0.3)), grid512)
    b = family.build(SolitonParameters(q=(1.0, 0, 0, 0.3 + 2 * math.pi)), grid512)
    assert np.max(np.abs(a.values - b.values)) < 1e-13


def test_build_wraparound_guard(family):
    small = Grid(1, 64, 8.0)   # box too small for the sech tail
    with pytest.raises(GroundStateError, match="box edge"):
        family.build(SolitonParameters(), small)


def test_tangent_p4_at_rest_is_real(family, grid512):
    t4 = family.tangents(np.zeros(4), grid512).t[3]
    assert np.max(np.abs(t4.imag)) < 1e-12
    # d eta/d p4 = (1/2) d b/d m at p = 0; for the cubic family
    # b(m) = m sech(m x): d b/d m = sech + m x sech'
    x = grid512.x[0]
    expect = 0.5 * (1.0 / np.cosh(x) - x * np.tanh(x) / np.cosh(x))
    assert np.max(np.abs(t4.real - expect)) < 1e-6


def test_tangent_p1_at_rest(family, grid512):
    t1 = family.tangents(np.zeros(4), grid512).t[0]
    x = grid512.x[0]
    expect = -1j * x / 2.0 / np.cosh(x)
    assert np.max(np.abs(t1 - expect)) < 1e-12


def test_tangent_duality_normalization(family, grid512):
    # <eta_p, A_j d eta/d p_k> = delta_jk (the bracket carries the 2)
    from solitonlab.field import FieldState, apply_A, inner
    p = np.array([0.3, 0, 0, 0.15])
    tg = family.tangents(p, grid512)
    eta = FieldState(grid512, tg.eta)
    for j in (1, 4):
        for k_ in (1, 4):
            tk = FieldState(grid512, tg.t[k_ - 1])
            val = inner(eta, apply_A(tk, j))
            want = 1.0 if j == k_ else 0.0
            assert val == pytest.approx(want, abs=1e-12)


def test_tangent_matches_finite_difference(family, grid512):
    p = np.array([0.2, 0, 0, 0.1])
    h = 1e-6
    for j in (0, 3):
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        fd = (family.build_centered(pp, grid512)[0]
              - family.build_centered(pm, grid512)[0]) / (2 * h)
        tg = family.tangents(p, grid512)
        assert np.max(np.abs(tg.t[j] - fd)) < 1e-7


@pytest.mark.parametrize("model, dim, E", [
    (NonlinearityModel("power", sigma=1.0, c=2.0), 1, 1.3), (SQRT_MODEL, 1, 1.3),
    (SQRT_MODEL, 3, 1.07)], ids=["sigma1", "sigma0.5", "3d_sigma0.5"])
def test_closed_form_energy_derivatives(model, dim, E, grid512):
    # b_E and b_EE against centred differences of the sampled profile in E
    if dim == 1:
        fam, grid = SolitonFamily(model, 1, m_ref=1.0), grid512
    else:
        fam = SolitonFamily(model, 3, m_ref=1.0, r_max=25.0, n_r=1024, wrap_tol=1e-6)
        grid = Grid(3, 32, 28.0)
    b_E, b_EE_of = fam.dbdE_on_grid(E, grid, fam.profile_on_grid(E, grid))
    b_EE = b_EE_of()
    h1, h2 = 1e-5 * E, 3e-4 * E
    fd1 = (fam.profile_on_grid(E + h1, grid)
           - fam.profile_on_grid(E - h1, grid)) / (2 * h1)
    fd2 = (fam.profile_on_grid(E + h2, grid) - 2 * fam.profile_on_grid(E, grid)
           + fam.profile_on_grid(E - h2, grid)) / h2**2
    assert np.max(np.abs(b_E - fd1)) < 1e-9 * np.max(np.abs(b_E))
    assert np.max(np.abs(b_EE - fd2)) < 1e-7 * np.max(np.abs(b_EE))


def test_tangent_derivatives_match_finite_differences(family, grid512):
    # d t_l / d p_k in closed form against centred differences of the tangents
    p = np.array([0.2, 0, 0, 0.1])
    h = 1e-5
    tg = family.tangents(p, grid512)
    for k in tg.active:
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        up, dn = family.tangents(pp, grid512), family.tangents(pm, grid512)
        for l in tg.active:
            fd = (up.t[l] - dn.t[l]) / (2 * h)
            assert np.max(np.abs(tg.dt(l, k) - fd)) < 1e-9 * np.max(np.abs(fd)), (l, k)


@pytest.mark.parametrize("p", [(0.0, 0, 0, 0.0), (0.2, 0, 0, 0.1)], ids=["rest", "boosted"])
def test_saturable_tangent_dt44_matches_finite_differences(p, grid512):
    # d t_4 / d p_4 carries b_EE and E''(m), which must be the exact
    # E-derivatives of the profile and the mass as built, tail included
    model = NonlinearityModel("saturable", c=3.0)
    fam = SolitonFamily(model, 1, m_ref=1.0)
    fam.m_ref = fam.mass_of_energy(1.0)
    p, h = np.array(p), 1e-4
    want = fam.tangents(p, grid512).dt(3, 3)
    up, dn = p.copy(), p.copy()
    up[3] += h
    dn[3] -= h
    fd = (fam.tangents(up, grid512).t[3] - fam.tangents(dn, grid512).t[3]) / (2 * h)
    assert np.max(np.abs(want - fd)) <= 1e-6 * np.max(np.abs(want))


def test_lambda_multipliers(family):
    lam0 = family.lambda_multipliers(SolitonParameters())
    assert np.allclose(lam0, [0, 0, 0, -1.0], atol=1e-14)
    lam = family.lambda_multipliers(SolitonParameters(p=(0.4, 0, 0, 0)))
    assert lam[0] == pytest.approx(0.4)
    assert lam[3] == pytest.approx(-1.04)


def test_soliton_equation_residual(family, grid512):
    assert family.residual_check(SolitonParameters(p=(0.4, 0, 0, 0)), grid512) < 1e-6


def test_mass_positive_guard(family, grid512):
    with pytest.raises(GroundStateError, match="positive"):
        family.build_centered(np.array([0, 0, 0, -2.5]), grid512)
