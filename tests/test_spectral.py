import math

import numpy as np
import pytest

from solitonlab import spectral
from solitonlab.groundstate import GroundStateProfile, solve_ground_state
from solitonlab.model import NonlinearityModel
from solitonlab.spectral import (SpectralError, build_operators, check_h2_h3_h5,
                                 eigen_report, kernel_residuals)


@pytest.fixture(scope="module")
def ops_1d(cubic):
    prof = solve_ground_state(cubic, 1.0, 1, r_max=40.0, n=2048)
    return build_operators(prof, cubic, n=1024, r_max=40.0)


def test_operator_assembly_1d(ops_1d, cubic):
    # L+ = -D2 + 1 - 2 sech^2, L- = -D2 + 1 - 6 sech^2 on the diagonal
    x = ops_1d.x
    sech2 = 1.0 / np.cosh(x) ** 2
    lap_diag = 30.0 / (12.0 * (x[1] - x[0]) ** 2)
    dplus = np.diag(ops_1d.matrices[("plus", 0)]) - lap_diag
    dminus = np.diag(ops_1d.matrices[("minus", 0)]) - lap_diag
    assert np.max(np.abs(dplus - (1.0 - 2.0 * sech2))) < 1e-10
    assert np.max(np.abs(dminus - (1.0 - 6.0 * sech2))) < 1e-10


def test_operators_symmetric(ops_1d):
    for m in ops_1d.matrices.values():
        assert np.max(np.abs(m - m.T)) < 1e-12


def test_free_operator_lowest_eigenvalue(cubic):
    # degenerate input: vanishing profile leaves -D2 + E with Dirichlet box
    r = np.linspace(0.0, 40.0, 512)
    tiny = GroundStateProfile(1.0, 1, r, np.full(512, 1e-300), cubic,
                              residual=0.0, decay_rate=1.0, mass=0.0)
    ops = build_operators(tiny, cubic, n=512, r_max=40.0)
    rep = eigen_report(ops)
    lowest = rep.eigenvalues[("plus", 0)][0]
    assert lowest == pytest.approx(1.0 + (math.pi / 80.0) ** 2, rel=1e-6)
    assert rep.kernel_dim[("plus", 0)] == 0
    assert not rep.h3_ok


def test_eigen_report_1d_cubic(ops_1d):
    rep = eigen_report(ops_1d)
    # L+: kernel at 0 spanned by b, no negative direction
    assert abs(rep.eigenvalues[("plus", 0)][0]) < 1e-4
    assert rep.kernel_dim[("plus", 0)] == 1
    assert rep.negative_count[("plus", 0)] == 0
    assert rep.kernel_overlap[("plus", 0)] > 0.999
    # L-: single negative eigenvalue -3 (Poschl-Teller), kernel spanned by b'
    assert rep.eigenvalues[("minus", 0)][0] == pytest.approx(-3.0, abs=1e-2)
    assert rep.negative_count[("minus", 0)] == 1
    assert rep.kernel_dim[("minus", 0)] == 1
    assert rep.kernel_overlap[("minus", 0)] > 0.999
    # no internal mode in the gap
    assert rep.internal_modes == []
    assert rep.h3_ok and rep.h5_ok
    # the pencil's translation zero mode carries the combined FD error
    assert rep.pencil_min > -1e-4


def test_pencil_second_eigenvalue_is_continuum(ops_1d):
    # all pencil eigenvalues except the translation zero mode sit at/above E^2
    rep = eigen_report(ops_1d, gap_window=(0.01, 0.999))
    assert rep.internal_modes == []


def test_kernel_residuals_1d(cubic):
    prof = solve_ground_state(cubic, 1.0, 1, r_max=40.0, n=2048)
    rp, rm = kernel_residuals(prof, cubic, n=4096, r_max=40.0)
    assert rp < 1e-6
    assert rm < 1e-5


def test_eigenvalue_grid_convergence(cubic):
    # doubling n moves the discrete eigenvalues below E by < 1e-4
    prof = solve_ground_state(cubic, 1.0, 1, r_max=40.0, n=2048)
    vals = []
    for n in (1024, 2048):
        rep = eigen_report(build_operators(prof, cubic, n=n, r_max=40.0))
        lam_p = [v for v in rep.eigenvalues[("plus", 0)] if v < 1.0]
        lam_m = [v for v in rep.eigenvalues[("minus", 0)] if v < 1.0]
        vals.append((np.array(lam_p), np.array(lam_m)))
    assert np.max(np.abs(vals[0][0] - vals[1][0])) < 1e-4
    assert np.max(np.abs(vals[0][1] - vals[1][1])) < 1e-4


def test_domain_size_guard(cubic):
    prof = solve_ground_state(cubic, 1.0, 1)
    with pytest.raises(SpectralError, match="too small"):
        build_operators(prof, cubic, n=256, r_max=5.0)


def test_3d_sectors_kernel_structure():
    model = NonlinearityModel("power", sigma=0.5, c=1.0)
    prof = solve_ground_state(model, 1.0, 3, r_max=30.0, n=1536)
    ops = build_operators(prof, model, n=1024, r_max=30.0)
    rep = eigen_report(ops)
    # gauge kernel (b) in the radial sector, translation kernel (b') at l = 1
    assert rep.kernel_dim[("plus", 0)] == 1
    assert rep.kernel_overlap[("plus", 0)] > 0.999
    assert rep.kernel_dim[("minus", 1)] == 1
    assert rep.kernel_overlap[("minus", 1)] > 0.999
    assert rep.negative_count[("plus", 0)] == 0


def test_check_h2_h3_h5_1d_cubic(cubic):
    out = check_h2_h3_h5(cubic, 1.0, dim=1, n=1024)
    assert out["h2_ok"] and out["h3_ok"] and out["h5_ok"]
    assert out["dm_dE"] == pytest.approx(0.5, abs=1e-3)
    assert "note" in out            # 1D surrogate caveat is always recorded


def test_check_h2_fails_3d_cubic(cubic):
    with pytest.warns(UserWarning):
        out = check_h2_h3_h5(cubic, 1.0, dim=3, n=512, r_max=25.0)
    assert not out["h2_ok"]
    assert out["dm_dE"] < 0


def test_check_h2_holds_3d_sqrt(monkeypatch):
    model = NonlinearityModel("power", sigma=0.5, c=1.0)
    solves = []

    def counting(*args, **kw):
        solves.append(args)
        return solve_ground_state(*args, **kw)
    monkeypatch.setattr(spectral, "solve_ground_state", counting)
    out = check_h2_h3_h5(model, 1.0, dim=3, n=512, r_max=30.0)
    assert out["h2_ok"]
    assert out["dm_dE"] > 0
    # one solve: the slope is the scaling law's, which a centred difference
    # of two solves (error O(s^2) ~ 5e-7) confirms
    assert len(solves) == 1
    s = 2e-3
    m_lo, m_hi = (solve_ground_state(model, 1.0 + d, 3, r_max=30.0).mass for d in (-s, s))
    assert out["dm_dE"] == pytest.approx((m_hi - m_lo) / (2.0 * s), rel=1e-6)
