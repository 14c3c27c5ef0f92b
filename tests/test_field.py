import math

import numpy as np
import pytest

from solitonlab.field import (FieldState, Grid, GridMismatchError, apply_A,
                              apply_symmetry, boundary_mass_fraction, gradient,
                              h1_norm, inner, l2_norm, load_field, momenta,
                              omega, save_field, w1s_norm)


def _sech_field(grid):
    return FieldState(grid, 1.0 / np.cosh(grid.x[0]) + 0j * grid.x[0])


def _random_field(grid, rng):
    return FieldState(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def test_inner_is_twice_l2(grid512, rng):
    psi = _random_field(grid512, rng)
    assert inner(psi, psi) == pytest.approx(2.0 * l2_norm(psi) ** 2, rel=1e-13)


def test_inner_with_i_psi_vanishes(grid512, rng):
    psi = _random_field(grid512, rng)
    ipsi = FieldState(grid512, 1j * psi.values)
    assert abs(inner(psi, ipsi)) <= 1e-13 * l2_norm(psi) ** 2


def test_inner_ground_state_is_4m(grid512):
    # inner(b, b) = 2 * P4 = 4m; for sech, m = 1
    b = _sech_field(grid512)
    assert inner(b, b) == pytest.approx(4.0, rel=1e-12)


def test_parseval(grid512, rng):
    psi = _random_field(grid512, rng)
    phys = l2_norm(psi) ** 2
    spec = grid512.cell / grid512.size * np.sum(np.abs(np.fft.fftn(psi.values)) ** 2)
    assert spec == pytest.approx(phys, rel=1e-12)


def test_plane_wave_h1_norm(grid512):
    L = grid512.length[0]
    k = grid512.k_axes[0][7]
    psi = FieldState(grid512, np.exp(1j * k * grid512.x[0]) + 0j)
    assert h1_norm(psi) ** 2 == pytest.approx(L * (1 + k**2), rel=1e-12)


def test_sech_l2_norm(grid512):
    assert l2_norm(_sech_field(grid512)) ** 2 == pytest.approx(2.0, rel=1e-12)


def test_zero_norms(grid512):
    z = FieldState(grid512, np.zeros(grid512.n, complex))
    assert l2_norm(z) == h1_norm(z) == w1s_norm(z, 4.0) == 0.0


def test_w1s_plane_wave(grid512):
    L = grid512.length[0]
    k = grid512.k_axes[0][5]
    psi = FieldState(grid512, np.exp(1j * k * grid512.x[0]) + 0j)
    expect = L ** (1.0 / 4.0) * (1.0 + abs(k))
    assert w1s_norm(psi, 4.0) == pytest.approx(expect, rel=1e-12)


def test_momenta_real_field(grid512):
    psi = _sech_field(grid512)
    P = momenta(psi)
    assert abs(P[0]) < 1e-13
    assert P[3] == pytest.approx(2.0, rel=1e-12)


def test_momenta_boosted_soliton(grid512, family):
    from solitonlab.groundstate import SolitonParameters
    v = 0.4
    psi = family.build(SolitonParameters((v, 0, 0, 0), (0, 0, 0, 0)), grid512)
    assert momenta(psi)[0] == pytest.approx(v * 1.0, abs=1e-10)


def test_momenta_gauge_invariance(grid512, rng):
    psi = _random_field(grid512, rng)
    rotated = FieldState(grid512, np.exp(1j * 0.7) * psi.values)
    assert np.allclose(momenta(psi), momenta(rotated), atol=1e-12)


def test_momenta_imaginary_residue(grid512, rng):
    # the physical-space integral psi-bar i d_x psi is real up to roundoff
    psi = _random_field(grid512, rng)
    g = grid512
    dpsi = np.fft.ifftn(1j * g.k_deriv[0] * np.fft.fftn(psi.values))
    z = g.cell * np.sum(np.conj(psi.values) * 1j * dpsi)
    assert abs(z.imag) <= 1e-13 * l2_norm(psi) ** 2
    assert z.real == pytest.approx(momenta(psi)[0], rel=1e-10)


def test_apply_symmetry_identity(grid512, rng):
    psi = _random_field(grid512, rng)
    out = apply_symmetry(psi, (0, 0, 0, 0))
    assert np.allclose(out.values, psi.values, atol=1e-14)


def test_apply_symmetry_composition(grid512):
    psi = _sech_field(grid512)
    q1 = np.array([1.3, 0, 0, 0.4])
    q2 = np.array([-0.6, 0, 0, 1.9])
    a = apply_symmetry(apply_symmetry(psi, q1), q2)
    b = apply_symmetry(psi, q1 + q2)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_apply_symmetry_gauge_pi(grid512):
    psi = _sech_field(grid512)
    out = apply_symmetry(psi, (0, 0, 0, math.pi))
    assert np.max(np.abs(out.values + psi.values)) < 1e-12


def test_momenta_invariant_under_symmetry(grid512, family):
    from solitonlab.groundstate import SolitonParameters
    psi = family.build(SolitonParameters((0.3, 0, 0, 0.1), (0, 0, 0, 0)), grid512)
    moved = apply_symmetry(psi, (2.7, 0, 0, 1.1))
    assert np.allclose(momenta(psi), momenta(moved), atol=1e-12)


def test_apply_A4_identity(grid512, rng):
    psi = _random_field(grid512, rng)
    assert np.array_equal(apply_A(psi, 4).values, psi.values)


def test_apply_A1_plane_wave(grid512):
    k = grid512.k_axes[0][9]
    psi = FieldState(grid512, np.exp(1j * k * grid512.x[0]) + 0j)
    out = apply_A(psi, 1)
    assert np.max(np.abs(out.values + k * psi.values)) < 1e-12


def test_bracket_with_A_gives_momenta(grid512, family):
    from solitonlab.groundstate import SolitonParameters
    psi = family.build(SolitonParameters((0.25, 0, 0, 0.0), (0.5, 0, 0, 0.2)), grid512)
    P = momenta(psi)
    for j in (1, 4):
        assert inner(psi, apply_A(psi, j)) == pytest.approx(2 * P[j - 1 if j < 4 else 3],
                                                            rel=1e-10)


def test_symplectic_form_antisymmetric(grid512, rng):
    a = _random_field(grid512, rng)
    b = _random_field(grid512, rng)
    scale = l2_norm(a) * l2_norm(b)
    assert abs(omega(a, b) + omega(b, a)) <= 1e-13 * scale


def test_grid_mismatch_raises(grid512):
    other = Grid(1, 256, grid512.length[0])
    a = _sech_field(grid512)
    b = FieldState(other, np.zeros(other.n, complex))
    with pytest.raises(GridMismatchError):
        inner(a, b)


def test_gradient_of_plane_wave(grid512):
    k = grid512.k_axes[0][4]
    psi = FieldState(grid512, np.exp(1j * k * grid512.x[0]) + 0j)
    g = gradient(psi)[0]
    assert np.max(np.abs(g.values - 1j * k * psi.values)) < 1e-12


def test_boundary_mass_fraction(grid512):
    centered = _sech_field(grid512)
    assert boundary_mass_fraction(centered) < 1e-20
    edge = FieldState(grid512, np.roll(centered.values, grid512.n[0] // 2))
    assert boundary_mass_fraction(edge) > 0.5


def test_save_load_roundtrip(tmp_path, grid512, rng):
    psi = _random_field(grid512, rng)
    path = tmp_path / "field.bin"
    save_field(psi, path)
    back = load_field(path)
    assert back.grid.n == grid512.n
    assert back.grid.length == pytest.approx(grid512.length)
    assert np.array_equal(back.values, psi.values)


def test_save_load_3d(tmp_path, rng):
    g = Grid(3, 8, 10.0)
    psi = FieldState(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    path = tmp_path / "field3.bin"
    save_field(psi, path)
    back = load_field(path)
    assert back.grid.dim == 3
    assert np.array_equal(back.values, psi.values)


@pytest.mark.parametrize("cut", [-1, -16, 16, 8])
def test_load_rejects_wrong_payload_size(tmp_path, cut):
    # truncated by a byte or a value, or trailing bytes after the payload
    g = Grid(1, 32, 10.0)
    path = tmp_path / "field.bin"
    save_field(FieldState(g, np.ones(g.n, complex)), path)
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
    with pytest.raises(ValueError, match="payload is"):
        load_field(path)


def test_load_rejects_short_header(tmp_path):
    path = tmp_path / "field.bin"
    path.write_bytes(b"NLSFLD01" + b"\0" * 20)
    with pytest.raises(ValueError, match="header"):
        load_field(path)


def test_fft_roundtrip_invariant(grid512, rng):
    psi = _random_field(grid512, rng)
    back = np.fft.ifftn(np.fft.fftn(psi.values))
    assert np.max(np.abs(back - psi.values)) <= 1e-12 * np.max(np.abs(psi.values))


# -- immutability and the carried spectrum -------------------------------------------

def test_field_state_is_read_only(grid512, rng):
    psi = _random_field(grid512, rng)
    for arr in (psi.values, psi.spectrum):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(AttributeError, match="immutable"):
        psi.values = psi.values * 2.0


def _spectrum_error(psi):
    want = np.fft.fftn(psi.values)
    return np.max(np.abs(psi.spectrum - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("dim,q", [(1, (1.3, 0, 0, 0)), (1, (1.3, 0, 0, 0.7)),
                                   (1, (0, 0, 0, 0.7)), (3, (1.3, -0.4, 2.1, 0.7))],
                         ids=["shift", "shift-gauge", "gauge", "3d"])
def test_apply_symmetry_spectrum_is_fftn(grid512, rng, dim, q):
    grid = grid512 if dim == 1 else Grid(3, 16, 12.0)
    out = apply_symmetry(_random_field(grid, rng), q)
    assert _spectrum_error(out) < 1e-13


def test_apply_A_and_gradient_spectra_are_fftn(grid512, rng):
    psi = _random_field(grid512, rng)
    assert _spectrum_error(apply_A(psi, 1)) < 1e-13
    assert _spectrum_error(gradient(psi)[0]) < 1e-13


def test_identity_actions_return_the_field(grid512, rng):
    psi = _random_field(grid512, rng)
    assert apply_symmetry(psi, (0, 0, 0, 0)) is psi
    assert apply_A(psi, 4) is psi


# -- the shared per-sample arrays --------------------------------------------------

def test_density_and_power_are_read_only_and_computed_once(grid512, rng, monkeypatch):
    import solitonlab.field as field
    psi = _random_field(grid512, rng)
    calls = []
    fftn = field.fftn
    monkeypatch.setattr(field, "fftn", lambda a: calls.append(None) or fftn(a))
    for arr in (psi.density, psi.power):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert psi.density is psi.density and psi.power is psi.power
    assert len(calls) == 1
    assert np.array_equal(psi.density, np.abs(psi.values) ** 2)
    assert np.array_equal(psi.power, np.abs(psi.spectrum) ** 2)


@pytest.mark.parametrize("dim", [1, 3])
def test_diagnostics_through_shared_arrays_are_bit_for_bit(grid512, rng, cubic, dim):
    # hamiltonian, momenta, boundary_mass_fraction and h1_norm read the
    # cached density and power with the expressions that squared the field
    # themselves
    from solitonlab.evolve import hamiltonian
    import scipy.fft as sfft
    grid = grid512 if dim == 1 else Grid(3, 16, 12.0)
    psi = _random_field(grid, rng)
    V = rng.standard_normal(grid.n)
    g = grid
    ph2, s = np.abs(sfft.fftn(psi.values)) ** 2, np.abs(psi.values) ** 2
    kin = g.cell / int(np.prod(g.n)) * np.sum(g.k2 * ph2)
    h = float(kin + -g.cell * np.sum(cubic.beta(s)) + 0.3 * g.cell * np.sum(V * s))
    assert hamiltonian(psi, cubic, V, 0.3) == h
    P = np.zeros(4)
    for j in range(dim):
        P[j] = -(g.cell / int(np.prod(g.n))) * np.sum(g.k_deriv[j] * ph2)
    P[3] = g.cell * np.sum(s)
    assert np.array_equal(momenta(psi), P)
    assert h1_norm(psi) == float(np.sqrt(np.sum((1.0 + g.k2) * ph2) * g.cell
                                         / int(np.prod(g.n))))
    mask = np.zeros(g.n, dtype=bool)
    for j in range(dim):
        idx = [slice(None)] * dim
        idx[j] = slice(0, 5)
        mask[tuple(idx)] = True
        idx[j] = slice(g.n[j] - 5, g.n[j])
        mask[tuple(idx)] = True
    assert boundary_mass_fraction(psi) == float(np.sum(s[mask]) / float(np.sum(s)))


def test_grid_constants_are_set_once():
    g = Grid(3, (8, 6, 4), 10.0)
    assert g.size == 192 and isinstance(g.size, int)
    m = g.edge_mask(2)
    assert g.edge_mask(2) is m and not m.flags.writeable
    assert m.sum() == 192 - (8 - 4) * (6 - 4) * (4 - 4)


def test_transform_pair_is_scipy_fft_bit_for_bit(rng):
    import scipy.fft as sfft
    from solitonlab.field import fftn, ifftn
    for shape in [(512,), (16, 16, 16), (6, 5, 4)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(fftn(a), sfft.fftn(a))
        assert np.array_equal(ifftn(a), sfft.ifftn(a))
        out = np.empty(shape, complex)
        assert ifftn(a, out) is out and np.array_equal(out, sfft.ifftn(a))


def test_shift_factor_from_cos_and_sin_is_exp_bit_for_bit(rng):
    # the translation's factor exp(-i k q) from cos and sin of its real
    # angle is np.exp's, bit for bit, so translated fields keep their bits
    import scipy.fft as sfft
    for grid in (Grid(1, 512, 40 * math.pi), Grid(3, 16, 12.0)):
        for scale in (0.01, 1.0, 30.0):
            q = rng.standard_normal(4) * scale
            psi = _random_field(grid, rng)
            shift = sum(grid.k[j] * q[j] for j in range(grid.dim))
            ph = sfft.fftn(psi.values) * np.exp(-1j * shift) * np.exp(-1j * q[3])
            out = apply_symmetry(psi, q)
            assert np.array_equal(out.spectrum, ph)
