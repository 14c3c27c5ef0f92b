import logging
import math
import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, TimeoutError

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings, strategies as st

from solitonlab import evolve
from solitonlab.evolve import (BlowupError, Stepper, hamiltonian,
                               potential_on_grid, run, step)
from solitonlab.field import FieldState, Grid, l2_norm, momenta
from solitonlab.groundstate import SolitonParameters
from solitonlab.model import NonlinearityModel, PotentialModel


def _sech(grid):
    return FieldState(grid, 1.0 / np.cosh(grid.x[0]) + 0j)


def _reference_block(grid, dt, model, V, eps, vals, n_steps):
    """The numpy.fft kernel step by step: per-axis transforms, a fresh array
    per substep and the phase exp(-i dt (beta'(|psi|^2) - eps V))."""
    V = np.zeros(grid.n) if V is None else V
    lin_half = np.exp(0.5j * dt * grid.k2)
    lin_full = lin_half**2

    def nonlinear(v):
        phase = model.beta_prime(np.abs(v) ** 2)
        if eps != 0.0:
            phase = phase - eps * V
        return v * np.exp(-1j * dt * phase)

    vals = np.fft.ifftn(lin_half * np.fft.fftn(vals))
    for _ in range(n_steps - 1):
        vals = nonlinear(vals)
        vals = np.fft.ifftn(lin_full * np.fft.fftn(vals))
    vals = nonlinear(vals)
    return np.fft.ifftn(lin_half * np.fft.fftn(vals))


def _kernel_pair(grid, model, V, eps, psi, blocks=3, n_steps=40, dt=1e-3):
    st = Stepper(grid, dt, model, V, eps)
    new, ref = psi.copy(), psi.copy()
    for _ in range(blocks):
        new = st.step_block(new, n_steps)
        ref = _reference_block(grid, dt, model, V, eps, ref, n_steps)
    return new, ref


@pytest.mark.parametrize("model,eps", [
    (NonlinearityModel("power", 1.0, 2.0), 1e-3),
    (NonlinearityModel("saturable", 1.0, 2.0), 0.0),
    (NonlinearityModel("power", 0.5, 1.0), 1e-3),
], ids=["cubic-well", "saturable-free", "sqrt-well"])
def test_kernel_bit_identical_1d(grid512, model, eps):
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0], 2.0)]), grid512)
    x = grid512.x[0]
    psi = (1.0 / np.cosh(x - 3.0)) * np.exp(0.4j * x) + 0j
    new, ref = _kernel_pair(grid512, model, V, eps, psi)
    assert np.array_equal(new, ref)


def _pin(axes, forward, inorm, scipy_call, a):
    # the Stepper's call, out of place and in place, against scipy.fft's
    want = scipy_call(a)
    assert np.array_equal(evolve.c2c(a, axes, forward, inorm, None, 1), want)
    b = a.copy()
    assert evolve.c2c(b, axes, forward, inorm, b, 1) is b
    assert np.array_equal(b, want)


def test_pocketfft_entry_point_pins_scipy_fft():
    # the Stepper calls the compiled routine behind scipy.fft directly: a
    # scipy whose private module changed would otherwise change results
    # silently
    rng = np.random.default_rng(9)
    a = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    _pin((0,), True, 0, sfft.fft, a)
    _pin((0,), False, 2, sfft.ifft, a)
    _pin((0,), False, 0, lambda v: sfft.ifft(v, norm="forward"), a)
    f = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16))
    _pin((0, 1, 2), True, 0, sfft.fftn, f)
    _pin((0, 1, 2), False, 2, sfft.ifftn, f)
    for axes in [(0, 1), (2,), (0,)]:
        _pin(axes, True, 0, lambda v: sfft.fftn(v, axes=axes), f)
        _pin(axes, False, 0, lambda v: sfft.ifftn(v, axes=axes, norm="forward"), f)
        _pin(axes, False, 2, lambda v: sfft.ifftn(v, axes=axes), f)


def test_kernel_matches_reference_3d():
    grid = Grid(3, 16, 16.0)
    model = NonlinearityModel("power", 0.5, 1.0)
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0, 0.0, 0.0], 2.0)]), grid)
    r2 = sum(xj**2 for xj in grid.x)
    psi = np.broadcast_to(1.5 * np.exp(-0.5 * r2) * np.exp(0.3j * grid.x[0]), grid.n) + 0j
    new, ref = _kernel_pair(grid, model, V, 1e-2, psi, blocks=2, n_steps=10)
    assert np.max(np.abs(new - ref)) < 1e-13 * np.max(np.abs(ref))


def _scipy_reference_block(grid, dt, model, V, eps, vals, n_steps):
    """The Stepper's scipy.fft arithmetic on one thread and the whole field:
    fftn/ifftn, `mult * h`, and the phase's cos and sin in one buffer."""
    lin_half = np.exp(0.5j * dt * grid.k2)
    lin_full = lin_half**2
    epsV = eps * np.broadcast_to(V, grid.n)
    rot = np.empty(grid.n, complex)

    def linear(v, mult):
        # `mult * h`, spelled as a call: numpy reuses a large temporary of
        # `mult * fftn(v)` as `h *= mult`, and the complex multiply is not
        # commutative bit for bit
        return sfft.ifftn(np.multiply(mult, sfft.fftn(v)))

    def nonlinear(v):
        phase = model.beta_prime(np.abs(v) ** 2)
        phase -= epsV
        phase *= -dt
        np.cos(phase, out=rot.real)
        np.sin(phase, out=rot.imag)
        return v * rot

    vals = linear(vals, lin_half)
    for _ in range(n_steps - 1):
        vals = linear(nonlinear(vals), lin_full)
    return linear(nonlinear(vals), lin_half)


def _well_3d(n):
    grid = Grid(3, n, 44.0 * n / 48)
    model = NonlinearityModel("power", 0.5, 1.0)
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0, 0.0, 0.0], 2.0)]), grid)
    r2 = sum(xj**2 for xj in grid.x)
    psi = np.broadcast_to(1.5 * np.exp(-0.5 * r2) * np.exp(0.3j * grid.x[0]), grid.n) + 0j
    return grid, model, V, psi


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("n", [16, 48])
def test_threaded_step_byte_identical_3d(monkeypatch, n, threads):
    # 3 threads cut 16 points into uneven slabs of 5, 5 and 6
    monkeypatch.setattr(evolve, "_cpu_count", lambda: threads)
    grid, model, V, psi = _well_3d(n)
    st = Stepper(grid, 1e-3, model, V, 1e-2)
    assert st.threads == threads
    new, ref = psi.copy(), psi.copy()
    for _ in range(2):
        new = st.step_block(new, 10)
        ref = _scipy_reference_block(grid, 1e-3, model, V, 1e-2, ref, 10)
    assert np.array_equal(new, ref)


def test_threaded_step_stress(monkeypatch):
    # more threads than cores, switching every microsecond: a lost update in
    # the meetings would hang a thread or let one run ahead into a wrong field
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 4)
    grid, model, V, psi = _well_3d(16)
    st = Stepper(grid, 1e-3, model, V, 1e-2)
    ref = _scipy_reference_block(grid, 1e-3, model, V, 1e-2, psi, 40)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: out.append(st.step_block(psi, 40)),
                                  daemon=True)
        caller.start()
        caller.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and out
    assert np.array_equal(out[0], ref)


def test_threaded_step_uses_every_cpu():
    grid, model, V, _ = _well_3d(48)
    assert Stepper(grid, 1e-3, model, V, 1e-2).threads == min(evolve._cpu_count(), 48)


def test_step_block_leaves_no_thread(monkeypatch, cubic, grid512):
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 2)
    grid, model, V, psi = _well_3d(16)
    before = threading.active_count()
    Stepper(grid, 1e-3, model, V, 1e-2).step_block(psi, 5)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    assert Stepper(grid512, 1e-3, cubic).threads == 1


class _WorkerFault(NonlinearityModel):
    def beta_prime(self, s, out=None):
        if threading.current_thread().name.startswith("ThreadPoolExecutor"):
            raise FloatingPointError("fault in a worker thread")
        return super().beta_prime(s, out)


def test_threaded_step_raises_a_worker_error(monkeypatch):
    # a worker's exception reaches the caller, and the caller's thread stops
    # at its next meeting instead of waiting there for ever
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 2)
    grid, _, V, psi = _well_3d(16)
    st = Stepper(grid, 1e-3, _WorkerFault("power", 0.5, 1.0), V, 1e-2)
    before = threading.active_count()
    raised = []

    def call():
        with pytest.raises(FloatingPointError, match="worker thread"):
            st.step_block(psi, 5)
        raised.append(True)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(60)
    assert not caller.is_alive() and raised
    assert threading.active_count() == before


def _child_step(n):
    grid, model, V, psi = _well_3d(n)
    st = Stepper(grid, 1e-3, model, V, 1e-2)
    return st.threads, st.step_block(psi, 5)


def test_forked_child_steps_after_parent(monkeypatch):
    # a forked pool worker steps on its own threads after the parent has
    monkeypatch.setattr(evolve, "_cpu_count", lambda: 2)
    threads, parent = _child_step(16)
    ex = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
    try:
        child_threads, child = ex.submit(_child_step, 16).result(timeout=60)
    except TimeoutError:
        for proc in ex._processes.values():    # a hung child blocks shutdown
            proc.kill()
        raise
    finally:
        ex.shutdown()
    assert child_threads == threads == 2
    assert np.array_equal(child, parent)


@pytest.mark.parametrize("dim,n,length", [(1, 512, 40 * math.pi), (3, 16, 16.0)],
                         ids=["1d", "3d"])
def test_step_block_leaves_input_unchanged(cubic, dim, n, length):
    grid = Grid(dim, n, length)
    r2 = sum(xj**2 for xj in grid.x)
    vals = np.broadcast_to(np.exp(-0.5 * r2) * np.exp(0.3j * grid.x[0]), grid.n) + 0j
    keep = vals.copy()
    out = Stepper(grid, 1e-3, cubic).step_block(vals, 5)
    assert np.array_equal(vals, keep)
    assert not np.shares_memory(out, vals)


# smooth random fields: a few low Fourier modes on top of a sech envelope
_GRID128 = Grid(1, 128, 16 * math.pi)
_coeffs = st.lists(st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                                      allow_infinity=False),
                   min_size=7, max_size=7)


def _smooth_field(coeffs):
    x = _GRID128.x[0]
    modes = sum(c * np.exp(1j * k * x)
                for c, k in zip(coeffs, _GRID128.k_axes[0][np.r_[-3:4]]))
    return (1.0 + modes) / np.cosh(0.5 * x) + 0j


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(coeffs=_coeffs, dt=st.floats(1e-4, 5e-3), eps=st.floats(0.0, 5e-2))
def test_property_time_reversal(cubic, coeffs, dt, eps):
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0], 2.0)]), _GRID128)
    psi = _smooth_field(coeffs)
    fwd = Stepper(_GRID128, dt, cubic, V, eps).step_block(psi, 20)
    back = Stepper(_GRID128, -dt, cubic, V, eps).step_block(fwd, 20)
    assert np.max(np.abs(back - psi)) < 1e-12


@_PROPERTY
@given(coeffs=_coeffs, dt=st.floats(1e-4, 5e-3), eps=st.floats(0.0, 5e-2))
def test_property_mass_conserved(cubic, coeffs, dt, eps):
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0], 2.0)]), _GRID128)
    psi = _smooth_field(coeffs)
    out = Stepper(_GRID128, dt, cubic, V, eps).step_block(psi, 50)
    m0, m1 = np.sum(np.abs(psi) ** 2), np.sum(np.abs(out) ** 2)
    assert abs(m1 - m0) < 1e-13 * m0


def test_hamiltonian_zero_field(cubic, grid512):
    z = FieldState(grid512, np.zeros(grid512.n, complex))
    assert hamiltonian(z, cubic, None, 0.0) == 0.0


def test_hamiltonian_sech(cubic, grid512):
    # int (sech')^2 = 2/3, int sech^4 = 4/3 -> H = -2/3
    psi = _sech(grid512)
    assert hamiltonian(psi, cubic, None, 0.0) == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_hamiltonian_gauge_invariant(cubic, grid512):
    psi = _sech(grid512)
    rot = FieldState(grid512, np.exp(1j * 1.234) * psi.values)
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0], 2.0)]), grid512)
    a = hamiltonian(psi, cubic, V, 1e-2)
    b = hamiltonian(rot, cubic, V, 1e-2)
    assert a == pytest.approx(b, rel=1e-14)


def test_linear_step_plane_wave_phase(grid512):
    # integrator orientation: i psi_t = Lap psi + ..., so e^{ikx} -> e^{+i k^2 t}
    free = NonlinearityModel("power", 1.0, 1e-30)
    k = grid512.k_axes[0][3]
    psi = FieldState(grid512, np.exp(1j * k * grid512.x[0]) + 0j)
    dt = 1e-3
    out = psi
    for _ in range(100):
        out = step(out, dt, free, None, 0.0)
    expect = np.exp(1j * k**2 * 0.1) * psi.values
    assert np.max(np.abs(out.values - expect)) < 1e-11


def test_standing_soliton_phase(cubic, family, grid512):
    # exact 1D cubic soliton at rest: psi(t) = e^{-i E t} b + O(dt^2 t)
    psi = family.build(SolitonParameters(), grid512)
    dt = 1e-3
    t = 1.0
    st = Stepper(grid512, dt, cubic)
    vals = st.step_block(psi.values.copy(), int(t / dt))
    expect = np.exp(-1j * t) * psi.values
    assert np.max(np.abs(vals - expect)) < 1e-5


def test_strang_second_order(cubic, grid512):
    # dt and dt/2 runs vs a fine reference: error ratio ~ 4
    psi0 = FieldState(grid512, (1.0 / np.cosh(grid512.x[0]))
                      * np.exp(0.3j * grid512.x[0]) + 0j)
    t = 0.5

    def err(dt):
        st = Stepper(grid512, dt, cubic)
        out = st.step_block(psi0.values.copy(), int(round(t / dt)))
        ref = Stepper(grid512, dt / 8, cubic).step_block(
            psi0.values.copy(), int(round(8 * t / dt)))
        return np.max(np.abs(out - ref))

    r = err(2e-3) / err(1e-3)
    assert 3.3 < r < 4.7


def test_time_reversal(cubic, grid512):
    psi0 = _sech(grid512)
    dt = 1e-3
    st_f = Stepper(grid512, dt, cubic)
    st_b = Stepper(grid512, -dt, cubic)
    vals = st_f.step_block(psi0.values.copy(), 500)
    back = st_b.step_block(vals, 500)
    assert np.max(np.abs(back - psi0.values)) < 1e-11


def test_mass_conservation_long(cubic):
    grid = Grid(1, 256, 40 * math.pi)
    psi = FieldState(grid, (1.0 / np.cosh(grid.x[0])) * np.exp(-0.2j * grid.x[0]) + 0j)
    m0 = l2_norm(psi) ** 2
    st = Stepper(grid, 1e-3, cubic)
    vals = st.step_block(psi.values.copy(), 100_000)
    m1 = grid.cell * np.sum(np.abs(vals) ** 2)
    assert abs(m1 - m0) / m0 < 1e-10


def test_momenta_conserved_free(cubic, grid512):
    psi = FieldState(grid512, (1.0 / np.cosh(grid512.x[0]))
                     * np.exp(-0.2j * grid512.x[0]) + 0j)
    P0 = momenta(psi)
    st = Stepper(grid512, 1e-3, cubic)
    vals = st.step_block(psi.values.copy(), 5000)
    P1 = momenta(FieldState(grid512, vals))
    assert abs(P1[0] - P0[0]) < 1e-8
    assert abs(P1[3] - P0[3]) < 1e-10 * P0[3]


def test_mass_conserved_with_potential(cubic, grid512):
    V = potential_on_grid(PotentialModel.gaussians([(-1.0, [0.0], 2.0)]), grid512)
    psi = _sech(grid512)
    st = Stepper(grid512, 1e-3, cubic, V, eps=1e-2)
    vals = st.step_block(psi.values.copy(), 5000)
    m0 = l2_norm(psi) ** 2
    m1 = grid512.cell * np.sum(np.abs(vals) ** 2)
    assert abs(m1 - m0) / m0 < 1e-10


def test_energy_drift_second_order(cubic, grid512):
    # bounded H oscillation scales like dt^2 (max over the run, not endpoint)
    psi = FieldState(grid512, 1.4 * (1.0 / np.cosh(grid512.x[0]))
                     * np.exp(-0.3j * grid512.x[0]) + 0j)
    h0 = hamiltonian(psi, cubic, None, 0.0)
    drifts = []
    for dt in (2e-2, 1e-2):
        st = Stepper(grid512, dt, cubic)
        vals = psi.values.copy()
        worst = 0.0
        for _ in range(int(round(2.0 / dt) / 10)):
            vals = st.step_block(vals, 10)
            worst = max(worst, abs(hamiltonian(FieldState(grid512, vals),
                                               cubic, None, 0.0) - h0))
        drifts.append(worst)
    assert 2.8 < drifts[0] / drifts[1] < 5.5


def test_free_soliton_travel_law(cubic, family, grid512):
    # q1(t) = q1(0) + v t for the exact soliton (short-horizon version)
    from solitonlab.modulation import extract
    v = 0.4
    psi = family.build(SolitonParameters((v, 0, 0, 0), (0, 0, 0, 0)), grid512)
    final, diags = run(psi, cubic, None, 0.0, 1e-3, 5.0, cadence=1000)
    dec = extract(final, family)
    assert dec.coords.q[0] == pytest.approx(v * 5.0, abs=1e-6)
    assert dec.coords.p[0] == pytest.approx(v, abs=1e-8)


def test_run_zero_horizon(cubic, grid512):
    psi = _sech(grid512)
    final, diags = run(psi, cubic, None, 0.0, 1e-3, 0.0)
    assert np.array_equal(final.values, psi.values)
    assert len(diags) == 1


def test_run_records_diagnostics(cubic, grid512):
    psi = _sech(grid512)
    final, diags = run(psi, cubic, None, 0.0, 1e-3, 0.1, cadence=25)
    assert len(diags) == 5
    assert diags[0].time == 0.0
    assert diags[-1].time == pytest.approx(0.1)
    masses = np.array([d.momenta[3] for d in diags])
    assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-12


def test_run_keeps_no_sample_array_on_psi0(cubic, grid512):
    # sample 0 is recorded on a FieldState of the run's own: the caller's psi0
    # gains no spectrum, density or power, and a spectrum it holds is reused
    psi = _sech(grid512)
    run(psi, cubic, None, 0.0, 1e-3, 0.1, cadence=25)
    assert set(vars(psi)) == {"grid", "values"}
    held = FieldState(grid512, psi.values, sfft.fftn(psi.values))
    seen = []
    run(held, cubic, None, 0.0, 1e-3, 0.0, observer=lambda i, t, f: seen.append(f))
    assert set(vars(held)) == {"grid", "values", "spectrum"}
    assert seen[0] is not held and np.shares_memory(seen[0].spectrum, held.spectrum)


def test_run_heartbeat(caplog, cubic, grid512):
    # 200 steps at cadence 5: 41 samples, one line at each tenth of them
    with caplog.at_level(logging.INFO, logger="solitonlab"):
        run(_sech(grid512), cubic, None, 0.0, 1e-3, 0.2, cadence=5)
    lines = [r.getMessage() for r in caplog.records if r.name == "solitonlab"]
    assert len(lines) == 10
    assert lines[0].startswith("t = 0.02: 5 of 41 samples, ")
    assert lines[-1].startswith("t = 0.2: 41 of 41 samples, ")
    assert all(float(m.split(", ")[-1].split()[0]) > 0 for m in lines)


def test_run_heartbeat_silent_by_default(capfd, cubic, grid512):
    run(_sech(grid512), cubic, None, 0.0, 1e-3, 0.05, cadence=5)
    assert capfd.readouterr() == ("", "")


def test_blowup_guard_nonfinite(cubic, grid512):
    bad = FieldState(grid512, np.full(grid512.n, np.nan, complex))
    with pytest.raises(BlowupError):
        step(bad, 1e-3, cubic)


def test_blowup_guard_growth(cubic, grid512):
    st = Stepper(grid512, 1e-3, cubic)
    st._max0 = 1e-9   # simulate a run that started tiny
    with pytest.raises(BlowupError):
        st.step_block(np.ones(grid512.n, complex), 1)
