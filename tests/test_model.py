import math

import numpy as np
import pytest

from solitonlab.model import (ConfigError, NonlinearityModel, PotentialModel,
                              SimulationConfig, config_hash, load_config,
                              validate_config)


def _beta3(m, s):
    """(beta, beta', beta'') of the model at s."""
    return float(m.beta(s)), float(m.beta_prime(s)), float(m.beta_second(s))


def test_beta_power_cubic_values():
    m = NonlinearityModel("power", sigma=1.0, c=2.0)
    assert _beta3(m, 0.0) == (0.0, 0.0, 2.0)
    assert _beta3(m, 1.0) == (1.0, 2.0, 2.0)


def test_beta_power_sqrt_values():
    m = NonlinearityModel("power", sigma=0.5, c=1.0)
    b, bp, bpp = _beta3(m, 4.0)
    assert b == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert bp == pytest.approx(2.0, rel=1e-15)
    assert bpp == pytest.approx(0.25, rel=1e-15)


def test_beta_saturable():
    m = NonlinearityModel("saturable", c=3.0)
    assert m.beta_prime(0.0) == 0.0
    b, bp, bpp = _beta3(m, 1.0)
    assert bp == pytest.approx(1.5)
    assert bpp == pytest.approx(0.75)
    assert b == pytest.approx(3.0 * (1.0 - math.log(2.0)))


@pytest.mark.parametrize("m", [
    NonlinearityModel("power", 1.0, 2.0),
    NonlinearityModel("power", 0.5, 1.0),
    NonlinearityModel("saturable", c=2.0),
])
def test_beta_prime_matches_finite_difference(m):
    # gradient of beta agrees with beta' to O(h^2) over [0, 10]
    s = np.linspace(0.1, 10.0, 60)
    h = 1e-5
    fd = (m.beta(s + h) - m.beta(s - h)) / (2 * h)
    assert np.max(np.abs(fd - m.beta_prime(s)) / np.abs(m.beta_prime(s))) < 1e-8


@pytest.mark.parametrize("m", [
    NonlinearityModel("power", 1.0, 2.0),
    NonlinearityModel("power", 0.5, 1.0),
    NonlinearityModel("power", 1.5, 2.0),
    NonlinearityModel("saturable", c=2.0),
])
def test_beta_prime_in_place(m):
    # the Stepper's in-place phase relies on the out= form being bit for bit
    s = np.random.default_rng(3).random(10_000) * 4.0
    want = m.beta_prime(s)
    out = np.empty_like(s)
    assert m.beta_prime(s, out=out) is out
    assert np.array_equal(out, want)
    assert m.beta_prime(s, out=s) is s
    assert np.array_equal(s, want)


def test_beta_prime_cubic_in_place_is_c_times_s():
    # sigma = 1 skips the power pass; the Stepper's phase stays c * s bit for bit
    m = NonlinearityModel("power", 1.0, 2.0)
    s = np.random.default_rng(5).random(10_000) * 4.0
    want = m.c * s
    assert m.beta_prime(s, out=s) is s
    assert np.array_equal(s, want)


def test_model_validation():
    with pytest.raises(ValueError):
        NonlinearityModel("power", sigma=2.5)
    with pytest.raises(ValueError):
        NonlinearityModel("power", c=-1.0)
    with pytest.raises(ValueError):
        NonlinearityModel("weird")


def test_potential_single_peak():
    pot = PotentialModel.gaussians([(1.0, [0.0], 1.0)])
    assert pot(0.0) == pytest.approx(1.0)
    assert pot.gradient(0.0)[0] == pytest.approx(0.0)
    assert pot(1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert pot.gradient(1.0)[0] == pytest.approx(-math.exp(-0.5), rel=1e-15)


def test_potential_empty():
    pot = PotentialModel()
    assert pot(2.3) == 0.0
    assert pot.gradient(2.3)[0] == 0.0


def test_potential_gradient_matches_fd(rng):
    pot = PotentialModel.gaussians([(-1.0, [0.3, 0.0, -0.2], 2.0),
                                    (0.5, [-1.0, 0.5, 0.0], 1.3)])
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-4, 4, size=3)
        g = pot.gradient(*x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (pot(*(x + e)) - pot(*(x - e))) / (2 * h)
            assert abs(fd - g[j]) <= 1e-8 * max(1.0, abs(g[j]))


def test_axisymmetry_flag():
    on_axis = PotentialModel.gaussians([(1.0, [0.5, 0.0, 0.0], 1.0)], axis=0)
    off_axis = PotentialModel.gaussians([(1.0, [0.5, 0.2, 0.0], 1.0)], axis=0)
    assert on_axis.is_axisymmetric()
    assert not off_axis.is_axisymmetric()


def test_validate_config_ok_and_mu():
    cfg = SimulationConfig(grid_points=256, box_length=40 * math.pi,
                           dt=1e-3, epsilon=1e-2)
    cfg = validate_config(cfg)
    assert cfg.mu == pytest.approx(10.0**-0.5, rel=1e-15)
    assert cfg.spacing == pytest.approx(40 * math.pi / 256)


def test_validate_config_grid_points():
    with pytest.raises(ConfigError, match="grid_points not power of two"):
        validate_config(SimulationConfig(grid_points=100))


def test_validate_config_epsilon():
    with pytest.raises(ConfigError, match="epsilon negative"):
        validate_config(SimulationConfig(epsilon=-1.0))


@pytest.mark.parametrize("dim, axis", [(1, 2), (3, 3), (3, -1)])
def test_validate_config_potential_axis(dim, axis):
    # the mechanics run on this axis: one the grid lacks is refused up front
    pot = PotentialModel.gaussians([(-1.0, [0.0] * dim, 2.0)], axis=axis)
    with pytest.raises(ConfigError, match="potential axis"):
        validate_config(SimulationConfig(dim=dim, potential=pot))


def test_validate_config_collects_all_errors():
    try:
        validate_config(SimulationConfig(grid_points=100, epsilon=-1.0, dt=-1.0))
    except ConfigError as e:
        assert len(e.errors) == 3
    else:
        pytest.fail("expected ConfigError")


def test_load_config_roundtrip(tmp_path):
    text = """
[model]
kind = power
sigma = 1.0
c = 2.0

[potential]
amplitudes = -1.0
centers = 0.0
widths = 2.0

[grid]
dim = 1
n = 256
box_length = 125.66370614359172

[run]
reference_energy = 1.0
epsilon = 0.01
dt = 0.001
t_final = 2.0
q_init = 3.0 0 0 0
seed = 7

[output]
dir = out
"""
    path = tmp_path / "run.ini"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.model.c == 2.0
    assert cfg.potential.terms[0].amplitude == -1.0
    assert cfg.q_init == (3.0, 0.0, 0.0, 0.0)
    assert cfg.epsilon == 0.01
    assert cfg.seed == 7


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_config_hash_sensitivity():
    a = SimulationConfig(epsilon=1e-2)
    b = SimulationConfig(epsilon=1e-2)
    c = SimulationConfig(epsilon=2e-2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
