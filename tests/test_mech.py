import functools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from solitonlab.field import Grid
from solitonlab.groundstate import SolitonFamily
from solitonlab.harness import compare, epsilon_sweep, make_family
from solitonlab.mech import (MIN_STEPS, MechError, MechOrbit, MechState,
                             build_effective_potential, critical_margin,
                             critical_values, mech_energy, mech_run,
                             orbit_distance, orbit_steps)
from solitonlab.model import NonlinearityModel, PotentialModel, SimulationConfig


@pytest.fixture(scope="module")
def well_veff(family, grid512):
    pot = PotentialModel.gaussians([(-1.0, [0.0], 2.0)])
    return build_effective_potential(pot, family, 1.0, grid512)


def test_veff_constant_potential(family, grid512):
    # V ~ const A => V^eff = 2 m A (huge-width Gaussian stands in for A)
    pot = PotentialModel.gaussians([(0.7, [0.0], 1e6)])
    veff = build_effective_potential(pot, family, 1.0, grid512)
    assert np.max(np.abs(veff.values - 2.0 * 0.7)) < 1e-8


def test_veff_wide_potential_trend(family, grid512):
    # wide well: V^eff(q) ~ 2m V(q)
    pot = PotentialModel.gaussians([(-1.0, [0.0], 20.0)])
    veff = build_effective_potential(pot, family, 1.0, grid512)
    for q in (0.0, 3.0, 10.0):
        v = float(pot(q))
        assert veff.value_at([q]) == pytest.approx(2.0 * v, rel=1e-2)


def test_veff_center_value_quadrature_oracle(well_veff):
    # V^eff(0) = -int e^{-x^2/8} sech^2 x dx, independent adaptive quadrature
    oracle, err = quad(lambda x: -math.exp(-x * x / 8.0) / math.cosh(x) ** 2,
                       -40.0, 40.0, epsabs=1e-13)
    assert well_veff.value_at([0.0]) == pytest.approx(oracle, abs=1e-10)


def test_veff_bound_and_symmetry(well_veff):
    # |V^eff| <= 2m max|V| and grad V^eff(0) = 0 for even V
    assert np.max(np.abs(well_veff.values)) <= 2.0 * 1.0 + 1e-12
    assert abs(well_veff._spline.slope_uniform(0.0)) < 1e-10


def test_veff_matches_direct_quadrature(family, grid512, rng):
    # radial quadrature vs the field-grid sums of V and of its analytic
    # gradient at 10 random grid nodes: a well and a bump on the N = 512 grid,
    # and a well of width 0.1 on an N = 4096 grid (spacing 0.03) that resolves
    # it, where the radial spacing must follow the width, not the profile
    cases = [(grid512, [(-1.0, [0.0], 2.0), (0.4, [5.0], 1.5)]),
             (Grid(1, 4096, 40.0 * math.pi), [(-1.0, [0.3], 0.1)])]
    for grid, terms in cases:
        pot = PotentialModel.gaussians(terms)
        veff = build_effective_potential(pot, family, 1.0, grid)
        x = grid.axes[0]
        b2 = family.profile_on_grid(1.0, grid) ** 2
        n = grid.n[0]
        for i in rng.integers(n // 8, 7 * n // 8, size=10):
            qi = x[i]
            direct = grid.cell * float(np.sum(pot(x + qi) * b2))
            assert veff.values[i] == pytest.approx(direct, rel=1e-8, abs=1e-14)
            slope = grid.cell * float(np.sum(pot.gradient(x + qi)[0] * b2))
            assert veff.grad[i] == pytest.approx(slope, rel=1e-8, abs=1e-14)


def test_veff_saturable_family_matches_grid_sum():
    # a saturable family (c = 3, E = 1, its profile from the radial Newton solve):
    # V^eff and its gradient at every node of the N = 512 sweep grid against
    # the field-grid sums cell * sum V(x + q) b^2 and cell * sum V'(x + q) b^2
    cfg = SimulationConfig(model=NonlinearityModel("saturable", c=3.0), dim=1,
                           grid_points=512, box_length=40 * math.pi, reference_energy=1.0)
    family = make_family(cfg)
    grid = Grid(1, 512, 40 * math.pi)
    pot = PotentialModel.gaussians([(-1.0, [0.0], 2.0), (0.4, [5.0], 1.5)])
    veff = build_effective_potential(pot, family, 1.0, grid)
    x = grid.axes[0]
    b2 = family.profile_on_grid(1.0, grid) ** 2
    y = x[:, None] + x[None, :]                           # (node, sample)
    assert np.max(np.abs(veff.values - grid.cell * (pot(y) @ b2))) < 1e-10
    assert np.max(np.abs(veff.grad - grid.cell * (pot.gradient(y)[0] @ b2))) < 1e-10


def test_veff_gradient_consistent_with_values(well_veff, rng):
    # interpolated gradient vs small-step FD of the interpolated values
    d = 1e-3
    for q in rng.uniform(-20, 20, size=100):
        fd = (well_veff.value_at([q + d]) - well_veff.value_at([q - d])) / (2 * d)
        assert abs(fd - well_veff._spline.slope_uniform(q)) < 1e-7


def test_mech_energy_forms(well_veff):
    eps = 1e-2
    s = MechState([0.0], [0.0])
    e0 = mech_energy(s, 1.0, eps, well_veff)
    assert e0 == pytest.approx(eps * well_veff.value_at([0.0]))
    ek = 0.37
    s2 = MechState([math.sqrt(2.0 * 1.0 * ek)], [40.0])
    assert mech_energy(s2, 1.0, eps, well_veff) \
        == pytest.approx(ek + eps * well_veff.value_at([40.0]), rel=1e-10)


def test_mech_free_motion(well_veff):
    orbit = mech_run(MechState([0.3], [-2.0]), 1.0, 0.0, well_veff,
                     dt=1e-2, t_final=10.0)
    assert orbit.qs[-1, 0] == pytest.approx(-2.0 + 0.3 * 10.0, abs=1e-12)
    assert orbit.ps[-1, 0] == pytest.approx(0.3, abs=1e-14)


def test_mech_time_reversal(well_veff):
    # 1000 leapfrog steps forward, then 1000 back from the end state
    eps = 1e-2
    fwd = mech_run(MechState([0.0], [3.0]), 1.0, eps, well_veff, dt=1e-2, t_final=10.0)
    end = MechState(fwd.ps[-1], fwd.qs[-1], fwd.ts[-1])
    back = mech_run(end, 1.0, eps, well_veff, dt=-1e-2, t_final=-10.0)
    assert len(back.ts) == 1001
    assert abs(back.qs[-1, 0] - 3.0) < 1e-10
    assert abs(back.ps[-1, 0]) < 1e-10


def test_mech_harmonic_period(well_veff):
    # small oscillation near the minimum: period = 2 pi sqrt(m/(eps Veff''))
    eps = 1e-2
    d = 1e-4
    v2 = (well_veff.value_at([d]) - 2 * well_veff.value_at([0.0])
          + well_veff.value_at([-d])) / d**2
    period = 2 * math.pi * math.sqrt(1.0 / (eps * v2))
    orbit = mech_run(MechState([0.0], [0.2]), 1.0, eps, well_veff,
                     dt=period / 2000, t_final=10 * period)
    assert orbit.period_estimate() == pytest.approx(period, rel=1e-2)


def test_mech_leapfrog_energy_bounded(well_veff):
    eps = 1e-2
    d = 1e-4
    v2 = (well_veff.value_at([d]) - 2 * well_veff.value_at([0.0])
          + well_veff.value_at([-d])) / d**2
    period = 2 * math.pi * math.sqrt(1.0 / (eps * v2))
    orbit = mech_run(MechState([0.0], [0.1]), 1.0, eps, well_veff,
                     dt=period / 1000, t_final=20 * period)
    assert np.max(np.abs(orbit.energies - orbit.energies[0])) < 1e-8


def test_mech_leaves_range(well_veff):
    with pytest.raises(MechError, match="range"):
        mech_run(MechState([1.0], [0.0]), 1.0, 0.0, well_veff, dt=1.0, t_final=100.0)


def test_orbit_distance_weighted_norm(well_veff):
    eps = 4e-3
    orbit = mech_run(MechState([0.0], [3.0]), 1.0, eps, well_veff,
                     dt=0.05, t_final=400.0)
    on = MechState(orbit.ps[137].copy(), orbit.qs[137].copy())
    assert orbit_distance(on, orbit) < 1e-10
    mid_q = float(orbit.qs[137, 0])
    mid_p = float(orbit.ps[137, 0])
    far_p = MechState([mid_p + 0.5], [mid_q])
    far_q = MechState([mid_p], [mid_q + 0.5])
    # a pure-p displacement costs delta, a pure-q one sqrt(eps) delta, up to
    # the closest-approach gain along the curve
    assert orbit_distance(far_p, orbit) <= 0.5 + 1e-12
    assert orbit_distance(far_q, orbit) <= math.sqrt(eps) * 0.5 + 1e-12
    assert orbit_distance(far_p, orbit) > 0.2
    assert orbit_distance(far_q, orbit) > 0.2 * math.sqrt(eps)


def test_orbit_distance_displacement_from_point_orbit(well_veff):
    # against a single-point orbit the weighted norm is exact
    eps = 0.01
    single = MechOrbit(np.array([0.0]), np.array([[0.1]]), np.array([[2.0]]),
                       np.array([0.0]), 1.0, eps)
    assert orbit_distance(MechState([0.1 + 0.3], [2.0]), single) \
        == pytest.approx(0.3, rel=1e-12)
    assert orbit_distance(MechState([0.1], [2.0 + 0.3]), single) \
        == pytest.approx(math.sqrt(eps) * 0.3, rel=1e-12)


def test_orbit_distance_is_level_set_distance(well_veff):
    # Criterion 8's eps^1 law rests on this: a point whose H_mech is off by dH
    # lies dH / ||grad H_mech||_* from the orbit, and at the turning point
    # (0, q0) the dual weighted norm of grad H_mech = (0, eps V^eff'(q0)) is
    # sqrt(eps) |V^eff'(q0)|.  A drift dH ~ eps^(3/2) therefore gives d ~ eps.
    q0, delta = 3.0, 1e-3
    slope = well_veff._spline.slope_uniform(q0)
    assert slope > 0.1                                   # off a critical point
    for eps in (1e-2, 1e-3):
        t_final = 5.0 / eps
        orbit = mech_run(MechState([0.0], [q0]), 1.0, eps, well_veff,
                         dt=t_final / 10_000, t_final=t_final)
        off = MechState([0.0], [q0 + delta])
        dh = (mech_energy(off, 1.0, eps, well_veff)
              - mech_energy(MechState([0.0], [q0]), 1.0, eps, well_veff))
        assert dh == pytest.approx(eps * slope * delta, rel=1e-3)
        d = orbit_distance(off, orbit)
        assert d == pytest.approx(math.sqrt(eps) * delta, rel=1e-9)
        assert d == pytest.approx(dh / (math.sqrt(eps) * slope), rel=1e-3)


def test_orbit_distance_matches_densified_polyline(well_veff, rng):
    # a coarse orbit (200 samples per period, 2.5 loops) against the brute-force
    # minimum over every 1/1000 of each segment.  The dense points lie on the
    # polyline, so they never beat the exact distance d; the nearest one sits
    # at most h/2 (h the longest sub-step) along the segment from the foot,
    # so by Pythagoras it is at most sqrt(d^2 + h^2/4) away.  A search limited
    # to the segments next to the nearest sample is up to 9x off on these points.
    eps = 1e-3
    curvature = np.max(np.abs(well_veff._spline(well_veff.grid.axes[0], 2)))
    period = 2 * math.pi / math.sqrt(eps * curvature)
    orbit = mech_run(MechState([0.0], [3.0]), 1.0, eps, well_veff,
                     dt=period / 200, t_final=2.5 * period)
    z = np.column_stack([orbit.ps[:, 0], math.sqrt(eps) * orbit.qs[:, 0]])
    dz = np.diff(z, axis=0)
    s = np.arange(1000) / 1000
    dense = np.vstack([(z[:-1, None] + s[:, None] * dz[:, None]).reshape(-1, 2), z[-1:]])
    half_sub = np.max(np.linalg.norm(dz, axis=1)) / 2000
    for _ in range(200):
        i = rng.integers(len(orbit.ts))
        scale = 10.0 ** rng.uniform(-5, -1)
        pt = MechState(orbit.ps[i] + scale * rng.standard_normal(1),
                       orbit.qs[i] + scale * rng.standard_normal(1) / math.sqrt(eps))
        d = orbit_distance(pt, orbit)
        w = np.array([pt.p[0], math.sqrt(eps) * pt.q[0]])
        brute = math.sqrt(np.min(np.sum((dense - w) ** 2, axis=1)))
        assert d <= brute * (1 + 1e-12)
        assert brute <= math.sqrt(d * d + half_sub**2) * (1 + 1e-12)


def test_orbit_steps_floor_and_target(family, grid512, well_veff):
    # where the leapfrog is exact (eps = 0, or a flat V^eff) the sample count
    # is the floor whatever the horizon
    flat = build_effective_potential(PotentialModel(), family, 1.0, grid512)
    for veff, eps in ((well_veff, 0.0), (flat, 1e-2)):
        for t_final in (5.0, 50.0, 5000.0):
            n = orbit_steps(veff, 1.0, eps, t_final)
            orbit = mech_run(MechState([1e-3], [0.0]), 1.0, eps, veff,
                             dt=t_final / n, t_final=t_final)
            assert len(orbit.ts) == MIN_STEPS + 1
    # in the well the count follows the horizon, and the eps = 1e-3
    # acceptance orbit (T = 5/eps) is no coarser than 200,000 steps
    assert orbit_steps(well_veff, 1.0, 1e-3, 5000.0) >= 200_000
    assert orbit_steps(well_veff, 1.0, 1e-3, 500.0) < 25_000


def test_sized_orbit_matches_fine_orbit_on_sweep():
    # the benchmark's sweep (horizon 0.5/eps, dt 4e-3, 100 samples): each
    # member's max d_eps against its sized orbit is within 1e-3 of that
    # against a 200,000-step orbit from the same start; members come back in
    # descending eps although the pool gets the longest first
    base = SimulationConfig(
        model=NonlinearityModel("power", sigma=1.0, c=2.0),
        potential=PotentialModel.gaussians([(-1.0, [0.0], 2.0)]),
        dim=1, grid_points=512, box_length=40 * math.pi, reference_energy=1.0,
        dt=4e-3, extraction_cadence=50, p_init=(0, 0, 0, 0), q_init=(3.0, 0, 0, 0),
        perturb_amplitude=0.5, perturb_kmax=2.0, seed=20260808)
    res = epsilon_sweep(base, [1e-3, 1e-2, 4e-3], t0=0.5, threads=2,
                        target_samples=100, keep_records=True)
    assert [e["epsilon"] for e in res.entries] == [1e-2, 4e-3, 1e-3]
    for rec in res.records:
        cfg, orbit = rec.config, rec.orbit
        assert len(orbit.ts) < 25_000
        fine = mech_run(MechState(orbit.ps[0], orbit.qs[0]), rec.summary["m_used"],
                        cfg.epsilon, rec.veff, dt=cfg.t_final / 200_000,
                        t_final=cfg.t_final)
        assert rec.summary["max_d_eps"] == pytest.approx(
            compare(rec, fine)["max_d_eps"], rel=1e-3)


def test_orbit_distance_empty():
    orbit = MechOrbit(np.array([]), np.empty((0, 1)), np.empty((0, 1)),
                      np.array([]), 1.0, 1e-2)
    with pytest.raises(MechError, match="empty"):
        orbit_distance(MechState([0.0], [0.0]), orbit)


def test_critical_values_and_margin(well_veff):
    crit = critical_values(well_veff)
    assert any(abs(c) < 1e-12 for c in crit)                 # value at infinity
    assert any(abs(c - well_veff.value_at([0.0])) < 1e-6 for c in crit)
    h = 0.5 * well_veff.value_at([0.0])                      # half-depth level
    assert critical_margin(h, well_veff) > 0.2


def test_critical_values_two_term_potential(family, grid512):
    # a well and a bump: V^eff has a minimum and a maximum.  Oracle: the local
    # extrema of the spline sampled 2000 times per grid interval; at that
    # spacing a smooth extremum is missed by at most |V''| h^2 / 8 < 1e-8
    pot = PotentialModel.gaussians([(-1.0, [0.0], 2.0), (0.4, [5.0], 1.5)])
    veff = build_effective_potential(pot, family, 1.0, grid512)
    x = grid512.axes[0]
    dense = veff._spline(np.linspace(x[0], x[-1], 2000 * (len(x) - 1) + 1))
    inner = dense[1:-1]
    ext = inner[((inner < dense[:-2]) & (inner < dense[2:]))
                | ((inner > dense[:-2]) & (inner > dense[2:]))]
    oracle = np.sort(ext[np.abs(ext) > 1e-9])            # the tails are roundoff
    assert len(oracle) == 2 and oracle[0] < -1.0 < 0.5 < oracle[1]
    crit = critical_values(veff)
    assert np.all(crit == np.unique(crit))
    assert np.any(np.abs(crit) < 1e-12)                   # the value at infinity
    big = crit[np.abs(crit) > 1e-9]
    assert big == pytest.approx(oracle, abs=1e-8)
    assert critical_margin(0.0, veff) < 1e-12
    assert critical_margin(0.3, veff) == pytest.approx(oracle[1] - 0.3, abs=1e-8)


def test_critical_values_without_potential(family, grid512):
    # V = 0: every piece of V^eff' is identically zero, so the root finder
    # reports NaN for each; only the value at infinity is left
    flat = build_effective_potential(PotentialModel(), family, 1.0, grid512)
    assert critical_values(flat).tolist() == [0.0]
    assert critical_margin(0.25, flat) == 0.25


@pytest.fixture(scope="module")
def family_3d():
    """3D power family, sigma = 0.5, c = 1 (the 3D `mech` smoke model), and
    its profile at E = 1 squared, cached for the double quadratures below."""
    fam = SolitonFamily(NonlinearityModel("power", sigma=0.5, c=1.0), 3, m_ref=1.0)
    prof = fam.radial_profile(1.0)
    return fam, functools.lru_cache(maxsize=None)(lambda r: float(prof(r)) ** 2)


def _veff_3d_oracle(b2, pot, q):
    """V^eff(q) and dV^eff/dq on the axis of `pot` by adaptive quadrature over
    (r, mu = cos theta): a term A e^{-|y - c|^2/2w^2} at distance
    D = |q e_axis - c| contributes 2 pi A r^2 b^2(r) e^{-(r^2 + D^2 + 2 r D mu)/2w^2},
    and its q-derivative -(D + r mu)/w^2 dD/dq times that."""
    value = slope = 0.0
    for t in pot.terms:
        c = np.asarray(t.center)
        off = q - c[pot.axis]
        D = math.hypot(off, math.hypot(*np.delete(c, pot.axis)))
        w2 = t.width**2

        def f(mu, r):
            return (2.0 * math.pi * t.amplitude * r * r * b2(r)
                    * math.exp(-(r * r + D * D + 2.0 * r * D * mu) / (2.0 * w2)))
        value += dblquad(f, 0.0, 40.0, -1.0, 1.0, epsabs=0.0, epsrel=1e-11)[0]
        if D > 0.0:
            slope += off / D * dblquad(lambda mu, r: -(D + r * mu) / w2 * f(mu, r),
                                       0.0, 40.0, -1.0, 1.0, epsabs=0.0, epsrel=1e-11)[0]
    return value, slope


@pytest.mark.parametrize("n, length", [(16, 60.0), (48, 44.0)])
def test_veff_3d_matches_double_quadrature(family_3d, n, length):
    # the well of the 3D `mech` smoke run on its 16^3 grid and on criterion
    # 10's 48^3 grid: V^eff does not depend on the field grid, and matches the
    # oracle to 1e-8 relative at every node where it is above 1e-12 of its
    # depth (further out the values reach 1e-21, where the profile's tail
    # interpolant, not the quadrature, sets the agreement)
    fam, b2 = family_3d
    pot = PotentialModel.gaussians([(-1.0, [0.0, 0.0, 0.0], 2.0)])
    veff = build_effective_potential(pot, fam, 1.0, Grid(3, n, length))
    assert veff.grid.n == (n,)
    depth = abs(veff.values[n // 2])
    for q, v in zip(veff.grid.axes[0], veff.values):
        if abs(v) > 1e-12 * depth:
            assert v == pytest.approx(_veff_3d_oracle(b2, pot, q)[0], rel=1e-8)


def test_veff_3d_cut_matches_quadrature(family_3d):
    # 3D: V^eff lives on the line through the box centre along the symmetry
    # axis (here axis 1, with a bump off the centre on it).  Values and
    # gradient against the double-quadrature oracle, at nodes on both terms'
    # centres (D = 0) and between them
    fam, b2 = family_3d
    grid = Grid(3, 32, 32.0)
    pot = PotentialModel.gaussians([(-1.0, [0.0, 0.0, 0.0], 2.0),
                                    (0.4, [0.0, 3.0, 0.0], 1.5)], axis=1)
    veff = build_effective_potential(pot, fam, 1.0, grid)
    assert veff.grid.dim == 1 and veff.grid.n == (32,) and veff.axis == 1
    assert veff.values.shape == veff.grad.shape == (32,)
    for i in (8, 12, 16, 19, 22):
        value, slope = _veff_3d_oracle(b2, pot, veff.grid.axes[0][i])
        assert veff.values[i] == pytest.approx(value, rel=1e-8)
        assert veff.grad[i] == pytest.approx(slope, rel=1e-8)


def test_veff_3d_centre_next_to_node(family_3d):
    # a well centred one ulp off a node (3 * 0.4 = 1.2000000000000002 on this
    # grid): at D = 2.2e-16 V^eff is its D = 0 value and dV^eff/dq is D V^eff''
    # ~ 5e-15; a form that divides by D turns both into rounding noise there
    fam, b2 = family_3d
    grid = Grid(3, 64, 25.6)
    node = grid.axes[0][35]
    assert node != 1.2 and abs(node - 1.2) < 1e-15
    on = build_effective_potential(PotentialModel.gaussians([(-1.0, [node, 0.0, 0.0], 2.0)]),
                                   fam, 1.0, grid)
    pot = PotentialModel.gaussians([(-1.0, [1.2, 0.0, 0.0], 2.0)])
    off = build_effective_potential(pot, fam, 1.0, grid)
    assert on.grad[35] == 0.0
    assert off.values[35] == pytest.approx(on.values[35], rel=1e-14)
    assert abs(off.grad[35]) < 1e-13
    assert off.values[35] == pytest.approx(_veff_3d_oracle(b2, pot, 1.2)[0], rel=1e-8)
    for i in (34, 36):                     # the neighbours, D = 0.4
        value, slope = _veff_3d_oracle(b2, pot, grid.axes[0][i])
        assert off.values[i] == pytest.approx(value, rel=1e-8)
        assert off.grad[i] == pytest.approx(slope, rel=1e-8)
