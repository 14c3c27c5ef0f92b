import math

import numpy as np
import pytest
from scipy.optimize import minimize

from solitonlab.field import (FieldState, Grid, apply_symmetry, h1_norm,
                              inner, l2_norm)
from solitonlab.groundstate import SolitonFamily, SolitonParameters
from solitonlab.model import NonlinearityModel
from solitonlab.modulation import _pairings as modulation_pairings
from solitonlab.modulation import (ExtractionError, LeavesChartError,
                                   SolitonCoordinates, _Workspace, extract,
                                   initial_guess, invert_projector,
                                   newton_jacobian, project, residuals)


def _bandlimited_noise(grid, rng, kmax=3.0):
    spec = np.fft.fftn(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    spec[np.abs(grid.k_axes[0]) > kmax] = 0.0
    return FieldState(grid, np.fft.ifftn(spec))


def _orthogonal_noise(family, p, grid, rng, size, both_senses=False):
    """Noise in the symplectic-orthogonal complement at eta_p, H1-normalized.

    both_senses=True additionally removes the plain-L2 tangent components so
    that an L2-distance minimizer shares the chart's fixed point.
    """
    tg = family.tangents(np.asarray(p, float), grid)
    raw = project(_bandlimited_noise(grid, rng), tg)
    if both_senses:
        # Gram-Schmidt against t_j and J A_j eta in the real L2 pairing
        dirs = []
        for j in tg.active:
            dirs.append(tg.t[j])
            dirs.append(-1j * tg.A_eta[j])
        vals = raw.values
        for _ in range(3):
            for d in dirs:
                dd = float(np.sum(d.real**2 + d.imag**2))
                c = float(np.sum(vals.real * d.real + vals.imag * d.imag)) / dd
                vals = vals - c * d
        raw = project(FieldState(grid, vals), tg)
    raw = FieldState(raw.grid, raw.values * (size / h1_norm(raw)))
    return raw


# -- projector --------------------------------------------------------------------

def test_projector_output_is_orthogonal(family, grid512, rng):
    p = np.array([0.2, 0, 0, 0.1])
    tg = family.tangents(p, grid512)
    out = project(_bandlimited_noise(grid512, rng), tg)
    cell = grid512.cell
    for j in tg.active:
        f = 2 * cell * np.sum(tg.A_eta[j].real * out.values.real
                              + tg.A_eta[j].imag * out.values.imag)
        g = 2 * cell * np.sum((1j * tg.t[j]).real * out.values.real
                              + (1j * tg.t[j]).imag * out.values.imag)
        assert abs(f) < 1e-10
        assert abs(g) < 1e-10


def test_projector_fixes_orthogonal_input(family, grid512, rng):
    # t_4 takes d b/dE in closed form, so Pi_p fixes its range to roundoff:
    # measured 2.0e-14 relative.  The bound dates from a t_4 differenced in
    # E, which left 6.4e-12.
    for p in (np.zeros(4), np.array([0.15, 0, 0, 0.0])):
        tg = family.tangents(p, grid512)
        phi = project(_bandlimited_noise(grid512, rng), tg)
        again = project(phi, tg)
        assert np.max(np.abs(again.values - phi.values)) \
            < 2e-11 * np.max(np.abs(phi.values))


def test_projector_idempotent(family, grid512, rng):
    tg = family.tangents(np.array([0.3, 0, 0, -0.1]), grid512)
    psi = _bandlimited_noise(grid512, rng)
    once = project(psi, tg)
    twice = project(once, tg)
    assert l2_norm(FieldState(grid512, twice.values - once.values)) \
        <= 1e-10 * l2_norm(once)


def test_projector_kills_tangent_directions(family, grid512):
    # <A_1 eta, Pi_p t_1> vanishes by the duality normalization
    tg = family.tangents(np.array([0.2, 0, 0, 0.05]), grid512)
    out = project(FieldState(grid512, tg.t[0]), tg)
    f = inner(FieldState(grid512, tg.A_eta[0]), out)
    assert abs(f) < 1e-8


# -- projector inverse --------------------------------------------------------------

def test_invert_identity_at_p0(family, grid512, rng):
    tg0 = family.tangents(np.zeros(4), grid512)
    phi = project(_bandlimited_noise(grid512, rng), tg0)
    u = invert_projector(phi, tg0, tg0)
    assert np.max(np.abs(u.values - phi.values)) < 1e-13 * np.max(np.abs(phi.values))


def test_invert_roundtrip(family, grid512, rng):
    tg = family.tangents(np.array([0.25, 0, 0, 0.1]), grid512)
    tg0 = family.tangents(np.zeros(4), grid512)
    phi = project(_bandlimited_noise(grid512, rng), tg)
    phi = FieldState(phi.grid, phi.values / h1_norm(phi))
    u = invert_projector(phi, tg, tg0)
    back = project(u, tg)
    assert l2_norm(FieldState(grid512, back.values - phi.values)) < 1e-11


def test_invert_iteration_count_at_p03(family, grid512, rng):
    # measured contraction for the 1D cubic at |p| = 0.3: 19 iterations to
    # increment <= 1e-12 * ||phi||
    import solitonlab.modulation as mod
    tg = family.tangents(np.array([0.3, 0, 0, 0.0]), grid512)
    tg0 = family.tangents(np.zeros(4), grid512)
    phi = project(_bandlimited_noise(grid512, rng), tg)
    phi = FieldState(phi.grid, phi.values / h1_norm(phi))
    calls = {"n": 0}
    orig = mod.project

    def counting(*a, **kw):
        calls["n"] += 1
        return orig(*a, **kw)

    mod.project = counting
    try:
        invert_projector(phi, tg, tg0)
    finally:
        mod.project = orig
    assert calls["n"] // 2 <= 25


# -- residuals ----------------------------------------------------------------------

def test_residuals_vanish_on_soliton(family, grid512):
    p = (0.2, 0, 0, 0.1)
    q = (1.5, 0, 0, 0.8)
    psi = family.build(SolitonParameters(p, q), grid512)
    r = residuals(psi, np.array(p), np.array(q), family)
    assert np.max(np.abs(r)) < 1e-10


def test_residuals_vanish_on_chart_point(family, grid512, rng):
    p = np.array([0.15, 0, 0, -0.05])
    q = np.array([0.7, 0, 0, 2.0])
    phi = _orthogonal_noise(family, p, grid512, rng, 1e-2)
    tg = family.tangents(p, grid512)
    psi = apply_symmetry(FieldState(grid512, tg.eta + phi.values), q)
    r = residuals(psi, p, q, family)
    assert np.max(np.abs(r)) < 1e-9


def test_residual_linear_response(family, grid512):
    # first-order Taylor: residual(q1 + d) ~ J[:, q1] * d
    p = np.array([0.1, 0, 0, 0.0])
    q = np.array([0.5, 0, 0, 0.3])
    psi = family.build(SolitonParameters(tuple(p), tuple(q)), grid512)
    ws = _Workspace(psi, family)
    J = newton_jacobian(ws, p, q)
    d = 1e-4
    qd = q.copy()
    qd[0] += d
    r = ws.residual(p, qd)
    pred = J[:, 2] * d     # columns ordered (p1, p4, q1, q4)
    assert np.max(np.abs(r - pred)) < 5e-3 * np.max(np.abs(pred))


def test_newton_jacobian_block_structure(family, grid512):
    # df/dp ~ -I; dg/dq ~ diag(-1 spatial, +1 gauge); off-blocks ~ 0
    p = np.array([0.2, 0, 0, 0.1])
    q = np.array([1.3, 0, 0, 0.7])
    psi = family.build(SolitonParameters(tuple(p), tuple(q)), grid512)
    ws = _Workspace(psi, family)
    J = newton_jacobian(ws, p, q)
    assert np.allclose(J[:2, :2], -np.eye(2), atol=1e-6)
    assert np.allclose(J[2:, 2:], np.diag([-1.0, 1.0]), atol=1e-6)
    assert np.max(np.abs(J[:2, 2:])) < 1e-6
    assert np.max(np.abs(J[2:, :2])) < 1e-6
    assert np.linalg.cond(J) < 10.0


def test_newton_jacobian_matches_finite_differences(family, grid512, rng):
    # off the chart point, with a generic remainder of L2 size 1e-2
    p = np.array([0.2, 0, 0, 0.1])
    q = np.array([1.3, 0, 0, 0.7])
    tg = family.tangents(p, grid512)
    noise = _bandlimited_noise(grid512, rng)
    noise = FieldState(noise.grid, noise.values * (1e-2 / l2_norm(noise)))
    ws = _Workspace(apply_symmetry(FieldState(grid512, tg.eta + noise.values), q), family)
    h = 1e-6
    ref = []
    for k in (0, 3, 4, 7):                # (p1, p4, q1, q4)
        z = np.concatenate([p, q])
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        ref.append((ws.residual(zp[:4], zp[4:]) - ws.residual(zm[:4], zm[4:])) / (2 * h))
    J = newton_jacobian(ws, p, q)
    assert np.max(np.abs(J - np.column_stack(ref))) < 1e-8


# -- initial guess ------------------------------------------------------------------

def test_initial_guess_exact_soliton(family, grid512):
    p = (0.3, 0, 0, 0.0)
    q = (2.2, 0, 0, 1.1)
    psi = family.build(SolitonParameters(p, q), grid512)
    guess, info = initial_guess(psi, family)
    assert not info["low_confidence"]
    assert np.max(np.abs(guess.p - np.array(p))) < 1e-6
    assert np.max(np.abs(guess.q - np.array(q))) < 1e-6


def test_initial_guess_fractional_offset(family, grid512):
    # centroid picks up an off-grid translation (3.7 units is 15.08 spacings)
    psi = family.build(SolitonParameters(q=(3.7, 0, 0, 0)), grid512)
    guess, _ = initial_guess(psi, family)
    assert guess.q[0] == pytest.approx(3.7, abs=grid512.spacing[0] ** 2)


def test_initial_guess_radiation_flagged(family, grid512, rng):
    noise = _bandlimited_noise(grid512, rng)
    noise = FieldState(noise.grid, noise.values * (0.05 / l2_norm(noise)))
    guess, info = initial_guess(noise, family)
    assert info["low_confidence"]


def test_initial_guess_zero_field_raises(family, grid512):
    zero = FieldState(grid512, np.zeros(grid512.n, complex))
    with pytest.raises(ExtractionError, match="mass below threshold"):
        initial_guess(zero, family)


# -- extraction ---------------------------------------------------------------------

def test_extract_exact_chart_point(family, grid512):
    p = np.array([0.2, 0, 0, 0.1])
    q = np.array([1.3, 0, 0, 0.7])
    psi = family.build(SolitonParameters(tuple(p), tuple(q)), grid512)
    dec = extract(psi, family)
    assert np.max(np.abs(dec.coords.p - p)) < 1e-9
    assert np.max(np.abs(dec.coords.q - q)) < 1e-9
    assert dec.phi_h1 < 1e-9


def test_extract_noisy_vs_optimization_oracle(family, grid512, rng):
    """Orthogonal 1e-3 noise: coordinates stay within 1e-5 of the clean ones,
    cross-checked against direct L2-distance minimization over (p, q)."""
    p = np.array([0.2, 0, 0, 0.0])
    q = np.array([1.0, 0, 0, 0.4])
    phi = _orthogonal_noise(family, p, grid512, rng, 1e-3, both_senses=True)
    tg = family.tangents(p, grid512)
    psi = apply_symmetry(FieldState(grid512, tg.eta + phi.values), q)

    dec = extract(psi, family)
    assert abs(dec.coords.p[0] - p[0]) < 1e-5
    assert abs(dec.coords.p[3] - p[3]) < 1e-5
    assert abs(dec.coords.q[0] - q[0]) < 1e-5
    assert abs(dec.coords.q[3] - q[3]) < 1e-5
    assert dec.phi_h1 == pytest.approx(1e-3, rel=1e-3)

    def dist2(z):
        from solitonlab.groundstate import GroundStateError
        pp = np.array([z[0], 0, 0, z[1]])
        qq = np.array([z[2], 0, 0, z[3]])
        try:
            d = psi.values - family.build(SolitonParameters(tuple(pp), tuple(qq)),
                                          grid512).values
        except GroundStateError:
            return 1e6
        return grid512.cell * float(np.sum(d.real**2 + d.imag**2))

    res = minimize(dist2, [p[0], p[3], q[0], q[3]], method="Powell",
                   options={"xtol": 1e-12, "ftol": 1e-16, "maxfev": 20000})
    res = minimize(dist2, res.x, method="Powell",
                   options={"xtol": 1e-12, "ftol": 1e-16, "maxfev": 20000})
    oracle = res.x
    # the L2 minimizer and the symplectic chart are distinct charts that agree
    # to second order in the remainder: measured spacing ~1.7e-5 at 1e-3 noise
    assert abs(dec.coords.p[0] - oracle[0]) < 3e-5
    assert abs(dec.coords.p[3] - oracle[1]) < 3e-5
    assert abs(dec.coords.q[0] - oracle[2]) < 3e-5
    assert abs(dec.coords.q[3] - oracle[3]) < 3e-5


def test_extract_near_identity_scaling(family, grid512, rng):
    # ||psi - soliton||_H1 = K sqrt(eps) => coordinate shifts O(sqrt(eps))
    p = np.array([0.1, 0, 0, 0.0])
    q = np.array([0.0, 0, 0, 0.0])
    tg = family.tangents(p, grid512)
    shifts = []
    eps_list = [1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        noise = _bandlimited_noise(grid512, rng)       # generic, not projected
        noise = FieldState(noise.grid, noise.values * (math.sqrt(eps) / h1_norm(noise)))
        psi = apply_symmetry(FieldState(grid512, tg.eta + noise.values), q)
        dec = extract(psi, family)
        shift = max(np.max(np.abs(dec.coords.p - p)), np.max(np.abs(dec.coords.q - q)))
        shifts.append(shift)
        assert shift < 2.0 * math.sqrt(eps)
    slope = np.polyfit(np.log10(eps_list), np.log10(shifts), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.2)


def test_extract_reconstruction(family, grid512, rng, monkeypatch):
    # dec.phi is the physical remainder, psi = e^{q.JA}(eta_p + phi), found
    # without a projector inversion
    import solitonlab.modulation as mod
    calls = []
    monkeypatch.setattr(mod, "invert_projector", lambda *a, **kw: calls.append(a))
    p = np.array([0.25, 0, 0, 0.05])
    q = np.array([2.0, 0, 0, 1.5])
    phi = _orthogonal_noise(family, p, grid512, rng, 5e-3)
    tg = family.tangents(p, grid512)
    psi = apply_symmetry(FieldState(grid512, tg.eta + phi.values), q)
    dec = extract(psi, family)
    assert calls == []
    assert h1_norm(dec.phi) == dec.phi_h1
    assert l2_norm(dec.phi) == dec.phi_l2
    tg_sol = family.tangents(dec.coords.p, grid512)
    rebuilt = apply_symmetry(FieldState(grid512, tg_sol.eta + dec.phi.values),
                             dec.coords.q)
    assert l2_norm(FieldState(grid512, rebuilt.values - psi.values)) < 1e-12


def test_extract_equivariance(family, grid512, rng):
    p = np.array([0.15, 0, 0, 0.0])
    q = np.array([0.5, 0, 0, 0.2])
    phi = _orthogonal_noise(family, p, grid512, rng, 1e-3)
    tg = family.tangents(p, grid512)
    psi = apply_symmetry(FieldState(grid512, tg.eta + phi.values), q)
    s = np.array([1.7, 0, 0, 0.9])
    dec_a = extract(psi, family)
    dec_b = extract(apply_symmetry(psi, s), family)
    assert np.max(np.abs(dec_b.coords.p - dec_a.coords.p)) < 1e-9
    dq = dec_b.coords.q - dec_a.coords.q - s
    dq[3] = (dq[3] + math.pi) % (2 * math.pi) - math.pi
    assert np.max(np.abs(dq)) < 1e-9
    assert abs(dec_b.phi_h1 - dec_a.phi_h1) < 1e-9


def test_extract_idempotent_reconstruction(family, grid512, rng):
    p = np.array([0.2, 0, 0, 0.1])
    q = np.array([1.0, 0, 0, 0.3])
    phi = _orthogonal_noise(family, p, grid512, rng, 1e-3)
    tg = family.tangents(p, grid512)
    psi = apply_symmetry(FieldState(grid512, tg.eta + phi.values), q)
    dec1 = extract(psi, family)
    tg_sol = family.tangents(dec1.coords.p, grid512)
    rebuilt = apply_symmetry(
        FieldState(grid512, tg_sol.eta + project(dec1.phi, tg_sol).values),
        dec1.coords.q)
    dec2 = extract(rebuilt, family, guess=dec1.coords)
    assert np.max(np.abs(dec2.coords.p - dec1.coords.p)) < 1e-10
    assert np.max(np.abs(dec2.coords.q - dec1.coords.q)) < 1e-10


def test_extract_leaves_chart(family, grid512, rng):
    psi = family.build(SolitonParameters(), grid512)
    noise = _orthogonal_noise(family, np.zeros(4), grid512, rng,
                              0.5 * h1_norm(psi))
    bad = FieldState(grid512, psi.values + noise.values)
    with pytest.raises(LeavesChartError):
        extract(bad, family, phi_frac_max=0.1)


def test_extract_diverges_on_far_guess(family, grid512):
    psi = family.build(SolitonParameters(q=(0, 0, 0, 0)), grid512)
    far = SolitonCoordinates(np.zeros(4), np.array([30.0, 0, 0, 0.0]))
    with pytest.raises(ExtractionError):
        extract(psi, family, guess=far, max_iter=8)


@pytest.fixture(scope="module")
def family3d():
    """Coarse 3D box with a relaxed wrap guard: the family and its 32^3 grid."""
    model = NonlinearityModel("power", sigma=0.5, c=1.0)
    from solitonlab.groundstate import mass_curve
    curve = mass_curve(model, 0.7, 1.4, 5, dim=3, r_max=25.0, n=1024)
    fam = SolitonFamily(model, 3, m_ref=curve.mass_at(1.0), curve=curve,
                        r_max=25.0, n_r=1024, wrap_tol=1e-6)
    return fam, Grid(3, 32, 28.0)


P3 = np.array([0.1, -0.05, 0.02, 0.0])
Q3 = np.array([0.8, 0.3, -0.5, 0.7])


def test_extract_3d_chart_point(family3d):
    # recover an exact chart point
    fam, grid = family3d
    psi = fam.build(SolitonParameters(tuple(P3), tuple(Q3)), grid)
    dec = extract(psi, fam, tol=1e-9)
    assert np.max(np.abs(dec.coords.p - P3)) < 1e-6
    assert np.max(np.abs(dec.coords.q - Q3)) < 1e-6


def test_tangent_derivatives_3d(family3d):
    # d t_l / d p_k against centred differences of the tangents, every active
    # pair
    fam, grid = family3d
    h = 1e-5
    tg = fam.tangents(P3, grid)
    for k in tg.active:
        pp, pm = P3.copy(), P3.copy()
        pp[k] += h
        pm[k] -= h
        up, dn = fam.tangents(pp, grid), fam.tangents(pm, grid)
        for l in tg.active:
            fd = (up.t[l] - dn.t[l]) / (2 * h)
            assert np.max(np.abs(tg.dt(l, k) - fd)) < 1e-8 * np.max(np.abs(fd)), (l, k)


def test_newton_jacobian_3d_matches_finite_differences(family3d, rng):
    # the centred differences at h = 1e-5 agree to about 1e-9, worst in the
    # (g_4, p_4) entry, where roundoff and truncation meet; 1e-5 is loose
    fam, grid = family3d
    tg = fam.tangents(P3, grid)
    spec = np.fft.fftn(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    spec[grid.k2 > 4.0] = 0.0
    noise = np.fft.ifftn(spec)
    noise *= 1e-2 / l2_norm(FieldState(grid, noise))
    ws = _Workspace(apply_symmetry(FieldState(grid, tg.eta + noise), Q3), fam)
    h = 1e-5
    ref = []
    for k in range(8):
        z = np.concatenate([P3, Q3])
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        ref.append((ws.residual(zp[:4], zp[4:]) - ws.residual(zm[:4], zm[4:])) / (2 * h))
    J = newton_jacobian(ws, P3, Q3)
    assert np.max(np.abs(J - np.column_stack(ref))) < 1e-5


def test_one_iteration_extract_builds_two_tangents(family, grid512, monkeypatch):
    # one bundle for the guess, one for the trial point; the Jacobian reuses
    # the guess's bundle
    p = np.array([0.2, 0, 0, 0.1])
    q = np.array([1.3, 0, 0, 0.7])
    psi = family.build(SolitonParameters(tuple(p), tuple(q)), grid512)
    calls = []
    orig = SolitonFamily.tangents

    def counting(self, *a, **kw):
        calls.append(a[0])
        return orig(self, *a, **kw)

    monkeypatch.setattr(SolitonFamily, "tangents", counting)
    dec = extract(psi, family, guess=SolitonCoordinates(p, q + np.array([1e-6, 0, 0, 1e-6])))
    assert dec.newton_iters == 1
    assert len(calls) == 2


# -- one transform per sample -----------------------------------------------------

def _off_chart_sample(family, grid, rng, p, q):
    """eta_p moved to q plus a generic remainder of L2 size 1e-2, as a fresh
    field that carries no spectrum yet."""
    tg = family.tangents(p, grid)
    noise = _bandlimited_noise(grid, rng)
    noise = noise.values * (1e-2 / l2_norm(noise))
    return FieldState(grid, apply_symmetry(FieldState(grid, tg.eta + noise), q).values)


def test_extract_spectra_are_fftn(family, grid512, rng):
    p, q = np.array([0.2, 0, 0, 0.1]), np.array([1.3, 0, 0, 0.7])
    tg = family.tangents(p, grid512)
    dec = extract(_off_chart_sample(family, grid512, rng, p, q), family)
    for vals, hat in ((tg.eta, tg.eta_hat), (dec.phi.values, dec.phi.spectrum)):
        want = np.fft.fftn(vals)
        assert np.max(np.abs(hat - want)) < 1e-13 * np.max(np.abs(want))


def _count_transforms(monkeypatch):
    """Record the input of every field.fftn and field.ifftn call, and count
    the tangent bundles built; returns (forward, inverse, bundles)."""
    from solitonlab import field
    fwd, inv, bundles = [], [], []
    fftn, ifftn, tangents = field.fftn, field.ifftn, SolitonFamily.tangents

    def counting_fftn(x, *a, **kw):
        fwd.append(np.array(x))
        return fftn(x, *a, **kw)

    def counting_ifftn(x, *a, **kw):
        inv.append(np.array(x))
        return ifftn(x, *a, **kw)

    def counting_tangents(self, *a, **kw):
        bundles.append(None)
        return tangents(self, *a, **kw)

    monkeypatch.setattr(field, "fftn", counting_fftn)
    monkeypatch.setattr(field, "ifftn", counting_ifftn)
    monkeypatch.setattr(SolitonFamily, "tangents", counting_tangents)
    return fwd, inv, bundles


def test_one_forward_transform_per_sample(family, grid512, rng, monkeypatch):
    # the diagnostics and the extraction of one sample share one transform
    # of the field; the remainder phi is never transformed, and every other
    # forward transform is a tangent bundle's eta
    from solitonlab.evolve import hamiltonian
    from solitonlab.field import momenta
    p, q = np.array([0.2, 0, 0, 0.1]), np.array([1.3, 0, 0, 0.7])
    psi = _off_chart_sample(family, grid512, rng, p, q)
    inputs, _, bundles = _count_transforms(monkeypatch)
    hamiltonian(psi, family.model, None, 0.0)
    momenta(psi)
    dec = extract(psi, family, guess=SolitonCoordinates(p, q))
    assert dec.newton_iters >= 1
    assert sum(np.array_equal(x, psi.values) for x in inputs) == 1
    assert not any(np.allclose(x, dec.phi.values) for x in inputs)
    assert len(inputs) == 1 + len(bundles)


def test_transforms_of_a_sample_at_the_root(family, grid512, monkeypatch):
    # a sample whose guess is the root takes no Newton step: its diagnostics
    # and extraction transform psi forward once and the bundle's eta once,
    # and make two inverse transforms, the pull-back and A_1 eta
    from solitonlab.evolve import hamiltonian
    from solitonlab.field import boundary_mass_fraction, momenta
    p, q = np.array([0.2, 0, 0, 0.1]), np.array([1.3, 0, 0, 0.7])
    psi = FieldState(grid512, family.build(SolitonParameters(tuple(p), tuple(q)),
                                           grid512).values)
    fwd, inv, bundles = _count_transforms(monkeypatch)
    hamiltonian(psi, family.model, None, 0.0)
    momenta(psi)
    boundary_mass_fraction(psi)
    dec = extract(psi, family, guess=SolitonCoordinates(p, q))
    assert dec.newton_iters == 0 and len(bundles) == 1
    assert len(fwd) == 2 and np.array_equal(fwd[0], psi.values)
    assert len(inv) == 2


# -- stacked pairings against the per-bracket sums ----------------------------------

def _bracket(cell, u, v):
    return 2.0 * cell * float(np.sum(u.real * v.real + u.imag * v.imag))


def _bracket_pairings(tg, vals):
    cell = tg.grid.cell
    return np.array([_bracket(cell, tg.A_eta[j], vals) for j in tg.active]
                    + [_bracket(cell, 1j * tg.t[j], vals) for j in tg.active])


def _bracket_project(vals, tg):
    cell, out = tg.grid.cell, vals.copy()
    for j in tg.active:
        out -= _bracket(cell, tg.A_eta[j], vals) * tg.t[j]
        out += _bracket(cell, 1j * tg.t[j], vals) * (-1j * tg.A_eta[j])
    return out


def _bracket_jacobian(ws, p, q):
    tg = ws.tangents(p)
    g, act = ws.grid, tg.active
    P = ws.pulled_back(q)
    phi = P.values - tg.eta
    phi_hat = P.spectrum - tg.eta_hat
    A_phi = [phi if l == 3 else np.fft.ifftn(-g.k_deriv[l] * phi_hat) for l in act]
    cols = []
    for k in act:
        f = [_bracket(g.cell, tg.t[k], A) for A in A_phi]
        gd = [_bracket(g.cell, 1j * tg.dt(l, k), phi) for l in act]
        cols.append(np.concatenate([f, gd]) - _bracket_pairings(tg, tg.t[k]))
    for k in act:
        cols.append(_bracket_pairings(tg, ws.q_derivative(q, k)))
    return np.column_stack(cols)


def _close(a, b, rel=1e-13):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@pytest.mark.parametrize("dim", [1, 3])
def test_stacked_products_match_bracket_sums(family, grid512, family3d, dim):
    # the pairings, the projector and the Jacobian as matrix products of the
    # bundle's blocks agree with bracket-by-bracket sums to roundoff
    rng = np.random.default_rng(5)
    if dim == 1:
        fam, grid = family, grid512
        p, q = np.array([0.2, 0, 0, 0.1]), np.array([1.3, 0, 0, 0.7])
    else:
        fam, grid = family3d[0], Grid(3, 16, 28.0)
        p, q = P3, Q3
    tg = fam.tangents(p, grid)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    psi = apply_symmetry(FieldState(grid, tg.eta + 1e-2 * noise), q)
    ws = _Workspace(psi, fam)
    v = ws.pulled_back(q).values - tg.eta
    assert _close(modulation_pairings(tg, v), _bracket_pairings(tg, v))
    assert _close(project(FieldState(grid, noise), tg).values, _bracket_project(noise, tg))
    assert _close(newton_jacobian(ws, p, q), _bracket_jacobian(ws, p, q))


def test_tangent_blocks_are_the_bundle_arrays(family3d):
    # A_j eta, t_j and eta are views of the bundle's two real blocks: a 3D
    # bundle holds each array once
    fam, grid = family3d[0], Grid(3, 16, 28.0)
    tg = fam.tangents(P3, grid)
    assert tg.A.shape == tg.T.shape == (4, 2 * grid.size)
    for a, j in enumerate(tg.active):
        assert np.shares_memory(tg.A_eta[j], tg.A[a]) and np.shares_memory(tg.t[j], tg.T[a])
        assert np.array_equal(tg.A[a], tg.A_eta[j].ravel().view(float))
    assert tg.eta is tg.A_eta[3]
