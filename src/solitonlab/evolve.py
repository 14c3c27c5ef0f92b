"""Strang split-step spectral time stepping with conservation bookkeeping.

The integrator advances  i psi_t = Lap psi + beta'(|psi|^2) psi - eps V psi
(the gauge-conjugate orientation: with it a soliton of momentum p travels
with velocity +p/m and its gauge angle grows at +(E + v^2/4), the sign
conventions used by the extraction chart and the effective mechanical
system).  Substep order is linear-half / nonlinear-full / linear-half; the
nonlinear+potential substep is a pure phase rotation and therefore exact,
which lets consecutive steps be fused into blocks at one FFT pair per step.

The kernel (`Stepper`) makes every transform a direct call to pocketfft's
`c2c(a, axes, forward, inorm, out, nthreads)`, the compiled routine in which
`scipy.fft.fft`, `ifft`, `fftn` and `ifftn` end after their argument
handling.  The results are theirs bit for bit, and at N = 512 a call costs
about half as much as through `scipy.fft`, whose dispatch had become the
largest part of a 1D step.  The norm codes are those scipy passes: 0 (no
factor) for the forward transforms, 2 (the factor 1/N) for the inverse ones,
and 0 for group B's inverse pass below, scipy's `norm="forward"`;
`nthreads` is 1, since the threads are the kernel's own.  Only the first
forward transform of a block reads the caller's array; every later
transform overwrites its input, and the substeps work in place.  The linear
substep is `mult * h` with the multiplier as the first operand (the complex
multiply uses FMA, so `h * mult` differs in the last bit).  The nonlinear
substep writes |psi|^2 into a float buffer of the Stepper and turns it, in
place, into the phase -dt (beta'(|psi|^2) - eps V), with `eps V`
precomputed; exp(i phase) goes into one complex buffer as cos and sin.  In
1D this is bit for bit the arithmetic of numpy.fft.fftn and np.exp; in 3D it
agrees with it to roundoff.

The 1D loop (`_block`) makes only the substeps' calls: per step the two
`c2c` transforms and the multiplier, then the nonlinear substep, a closure
built once per Stepper by `_phase_substep` over its buffers and the
prebuilt real and imaginary views of its rotation buffer.  The ufuncs are
bound to locals, their outputs are positional, and nothing is looked up on
the Stepper inside the loop.  The threaded 3D kernel builds the same closure
over each thread's slab of the buffers, so both kernels share one
definition of the phase.

Threads: a 3D field is stepped on every CPU the process may use (n threads,
at most the shortest axis).  The threaded kernel makes the transforms' axis
passes itself, one `c2c` call per thread and group of passes, on the
slab of the field that holds whole lines along those axes:

  A  forward passes along axes 0 and 1     slabs along axis 2
  B  forward pass along axis 2, the        slabs along axis 1
     multiplier, inverse pass along axis 0
     and ifftn's factor 1/N
  C  inverse passes along axes 1 and 2,    slabs along axis 0
     the nonlinear substep

The threads meet only between groups, three times a step; A and B work on
a contiguous copy of their slab.  fftn makes the same passes in the same
order (axis 0 first, and ifftn multiplies by 1/N at the end of its axis-0
pass), so the result is the one-thread result byte for byte.  A thread that
reaches a meeting first spins, yielding its CPU, rather than sleeping: on a
virtual machine a sleeping thread leaves its virtual CPU idle, and waking it
again waits for the host, which a busy host adds to the wall time as steal.
(Scipy's own `workers=` threads meet three times per transform and sleep at
every meeting.)  A 1D line is too short to split: it steps on one thread
with `fft` over the whole line, as does a 3D field in a process that may use
one CPU only.  The thread pool is opened and shut down by each `step_block`
call, never kept at module level: a pool thread alive at a fork leaves the
forked child a pool whose threads do not exist, and a child that steps
through it waits for ever.

Every substep conserves mass exactly in exact arithmetic; in float64 the
step carries a per-step round-off with a fixed sign, about +1.2e-16
relative at N = 512, so the mass drift grows linearly with the step count
(about 6e-10 after 5e6 steps).  Two parts of the linear substep bias it:
the multiplier exp(i theta), theta = tau k^2, whose |.|^2 - 1 is rounded
from cos near 1 and averages +2.3e-17 over the soliton's spectrum, and the
fixed-sign gain of the FFT round trip, which acts on all of psi.  An
increment-form linear substep, psi + ifft(d fft(psi)) with
d = e^{i theta} - 1 = -2 sin^2(theta/2) + i sin(theta), removes both: the
sin form has no rounding bias, and the FFT's gain then acts only on the
increment, of size O(theta) |psi|.  That change is still open; this kernel
keeps the exp(i theta) arithmetic.
"""
from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter, sleep

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c

from .field import FieldState, Grid, boundary_mass_fraction
from .model import NonlinearityModel, PotentialModel

__all__ = ["BlowupError", "EvolveDiagnostics", "Stepper", "hamiltonian", "step", "run"]

log = logging.getLogger("solitonlab")


class BlowupError(RuntimeError):
    pass


@dataclass
class EvolveDiagnostics:
    time: float
    hamiltonian: float
    momenta: np.ndarray           # P_1..P_4
    boundary_mass: float


def potential_on_grid(potential: PotentialModel, grid: Grid) -> np.ndarray:
    if potential is None or not potential.terms:
        return np.zeros(grid.n)
    return np.broadcast_to(potential(*grid.x), grid.n).copy()


def hamiltonian(psi: FieldState, model: NonlinearityModel,
                V: np.ndarray | None, eps: float) -> float:
    """H = ∫|grad psi|^2 - ∫beta(|psi|^2) + eps ∫V |psi|^2 (gradient spectral)."""
    g = psi.grid
    kin = g.cell / g.size * (g.k2 * psi.power).sum()
    s = psi.density
    pot = -g.cell * model.beta(s).sum()
    ext = eps * g.cell * (V * s).sum() if (eps != 0.0 and V is not None) else 0.0
    return float(kin + pot + ext)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):                    # Python >= 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(n: int, parts: int) -> list[slice]:
    edges = np.linspace(0, n, parts + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


_pause = getattr(os, "sched_yield", lambda: sleep(0))


class _Meeting:
    """A barrier whose waiters spin instead of sleeping: each turn of the loop
    releases the GIL and yields the CPU.  The waits inside a block are short
    (the threads' shares are equal), and a waiter that slept would leave its
    CPU idle, to be woken again at the next meeting."""

    def __init__(self, parties: int):
        self._parties = parties
        self._arrived = 0
        self._round = 0
        self._broken = False
        self._lock = threading.Lock()

    def wait(self):
        with self._lock:
            this = self._round
            self._arrived += 1
            if self._arrived == self._parties:
                self._arrived = 0
                self._round += 1
                return
        while self._round == this:
            if self._broken:
                raise threading.BrokenBarrierError
            _pause()

    def abort(self):
        self._broken = True


class Stepper:
    """Precomputed multipliers and buffers for a fixed (grid, dt, model, eps V).

    The caller's array is read, never written: the first forward transform
    copies it, and every later transform and substep works in place.
    """

    def __init__(self, grid: Grid, dt: float, model: NonlinearityModel,
                 V: np.ndarray | None = None, eps: float = 0.0):
        self.grid = grid
        self.dt = dt
        self.model = model
        self.epsV = (None if eps == 0.0 or V is None
                     else eps * np.broadcast_to(V, grid.n))
        theta = (0.5 * dt) * grid.k2        # exp(i theta) from its real angle
        self.lin_half = np.empty(theta.shape, complex)
        np.cos(theta, out=self.lin_half.real)
        np.sin(theta, out=self.lin_half.imag)
        self.lin_full = self.lin_half**2
        self._axes = tuple(range(grid.dim))
        self._max0 = None
        self._s = np.empty(grid.n)           # |psi|^2, then the phase
        self._rot = np.empty(grid.n, complex)
        self.threads = 1 if grid.dim == 1 else min(_cpu_count(), *grid.n)
        if self.threads == 1:
            self._nonlinear = self._phase_substep(self._s, self._rot, np.s_[...])
        if self.threads > 1:
            # thread j's slabs for the groups A, B, C (module docstring)
            n0, n1, n2 = grid.n
            self._slabs = list(zip(
                [np.s_[:, :, sl] for sl in _cuts(n2, self.threads)],
                [np.s_[:, sl, :] for sl in _cuts(n1, self.threads)],
                _cuts(n0, self.threads)))
            self._inv_n = 1.0 / grid.size

    def _phase_substep(self, s, rot, part):
        """The nonlinear substep on the part `part` (an index) of the field,
        with buffers `s` (float) and `rot` (complex) of that part's shape: a
        function that multiplies vals, in place, by
        exp(-i dt (beta'(|vals|^2) - eps V)); `s` holds |vals|^2 and then the
        phase."""
        absolute, square, multiply, subtract = np.absolute, np.square, np.multiply, np.subtract
        cos, sin, beta_prime, mdt = np.cos, np.sin, self.model.beta_prime, -self.dt
        re, im = rot.real, rot.imag
        epsV = None if self.epsV is None else self.epsV[part]

        def nonlinear(vals):
            absolute(vals, s)
            square(s, s)
            beta_prime(s, s)
            if epsV is not None:
                subtract(s, epsV, s)
            multiply(s, mdt, s)
            cos(s, re)
            sin(s, im)
            multiply(vals, rot, vals)

        return nonlinear

    def _guard(self, vals):
        m = np.max(np.abs(vals))
        if not np.isfinite(m):
            raise BlowupError("non-finite value during time step")
        if self._max0 is None:
            self._max0 = m
        elif m > 1e3 * self._max0:
            raise BlowupError("amplitude grew by 1e3: integration aborted")

    def step_block(self, vals: np.ndarray, n_steps: int) -> np.ndarray:
        """Exactly n_steps Strang steps (interior substeps fused).  The input
        is guarded only on the first block: a later one is the guarded output
        of the block before."""
        if n_steps <= 0:
            return vals
        if self._max0 is None:
            self._guard(vals)
        if self.threads == 1:
            vals = self._block(vals, n_steps)
        else:
            vals = self._threaded_block(vals, n_steps)
        self._guard(vals)
        return vals

    def _block(self, vals, n_steps):
        """n_steps fused steps on one thread; the first forward transform
        copies `vals`, everything after it works in place on the copy."""
        axes, half, full = self._axes, self.lin_half, self.lin_full
        nonlinear, multiply = self._nonlinear, np.multiply
        h = c2c(vals, axes, True, 0, None, 1)
        multiply(half, h, h)
        c2c(h, axes, False, 2, h, 1)
        for _ in range(n_steps - 1):
            nonlinear(h)
            c2c(h, axes, True, 0, h, 1)
            multiply(full, h, h)
            c2c(h, axes, False, 2, h, 1)
        nonlinear(h)
        c2c(h, axes, True, 0, h, 1)
        multiply(half, h, h)
        return c2c(h, axes, False, 2, h, 1)

    def _threaded_block(self, vals, n_steps):
        work = np.array(vals, dtype=complex)
        meet = _Meeting(self.threads)

        def share(j):
            try:
                self._share(work, n_steps, self._slabs[j], meet.wait)
            except threading.BrokenBarrierError:
                pass                # another thread failed and raises its error
            except BaseException:
                meet.abort()
                raise

        with ThreadPoolExecutor(self.threads - 1) as pool:
            others = [pool.submit(share, j) for j in range(1, self.threads)]
            share(0)
            for f in others:
                f.result()
        return work

    def _share(self, work, n_steps, slabs, meet):
        """One thread's part of n_steps fused steps on `work`, in place; `meet`
        waits for the other threads between the groups A, B and C."""
        a, b, c = slabs
        wa, wb, wc = work[a], work[b], work[c]
        # A and B transform a contiguous copy of their strided slabs: passes
        # over the strided views run markedly slower on two threads at once
        buf = np.empty(max(wa.size, wb.size), complex)
        ba, bb = buf[:wa.size].reshape(wa.shape), buf[:wb.size].reshape(wb.shape)
        bb_re = bb.view(float)
        nonlinear = self._phase_substep(self._s[c], self._rot[c], c)
        half, full = self.lin_half[b], self.lin_full[b]
        for i in range(n_steps + 1):
            np.copyto(ba, wa)
            c2c(ba, (0, 1), True, 0, ba, 1)
            np.copyto(wa, ba)
            meet()
            np.copyto(bb, wb)
            c2c(bb, (2,), True, 0, bb, 1)
            np.multiply(half if i in (0, n_steps) else full, bb, out=bb)
            c2c(bb, (0,), False, 0, bb, 1)
            bb_re *= self._inv_n
            np.copyto(wb, bb)
            meet()
            c2c(wc, (1, 2), False, 0, wc, 1)
            if i < n_steps:
                nonlinear(wc)
                meet()


def step(psi: FieldState, dt: float, model: NonlinearityModel,
         V: np.ndarray | None = None, eps: float = 0.0) -> FieldState:
    """One Strang step (half linear, full nonlinear+potential, half linear)."""
    st = Stepper(psi.grid, dt, model, V, eps)
    return FieldState(psi.grid, st.step_block(psi.values, 1))


def run(psi0: FieldState, model: NonlinearityModel, potential: PotentialModel | None,
        eps: float, dt: float, t_final: float, cadence: int = 50,
        observer=None, timing: dict | None = None):
    """Step to t_final, invoking observer(i_sample, t, FieldState) every
    `cadence` steps (including t = 0 and the final time); a truthy return
    from the observer stops the run after that sample.  Returns the last
    field and the diagnostics series.  A `timing` dict receives the wall
    seconds spent stepping (`step_s`) and in the diagnostics (`diag_s`),
    the steps taken (`n_steps`) and the Stepper's `step_threads`.  At each
    tenth of the samples an INFO line on the "solitonlab" logger gives t,
    the samples done and the steps per second so far."""
    grid = psi0.grid
    V = potential_on_grid(potential, grid) if potential is not None else None
    st = Stepper(grid, dt, model, V, eps)
    # bound at each call, not at import: a wrapper put on field.momenta before
    # the run (the --trace probes of perfbench/spans.py) then sees its calls
    from .field import momenta as _momenta

    n_steps = int(round(t_final / dt))
    n_samples = 1 + -(-n_steps // cadence)
    vals = psi0.values
    diags = []
    i_sample = 0
    wall = {"step_s": 0.0, "diag_s": 0.0}
    t_start = perf_counter()

    def record(done, f):
        nonlocal i_sample
        t = done * dt
        t0 = perf_counter()
        diags.append(EvolveDiagnostics(
            time=t,
            hamiltonian=hamiltonian(f, model, V, eps),
            momenta=_momenta(f),
            boundary_mass=boundary_mass_fraction(f),
        ))
        wall["diag_s"] += perf_counter() - t0
        stop = observer is not None and observer(i_sample, t, f)
        i_sample += 1
        if 10 * i_sample // n_samples > 10 * (i_sample - 1) // n_samples:
            log.info("t = %g: %d of %d samples, %.0f steps/s", t, i_sample,
                     n_samples, done / (perf_counter() - t_start))
        return stop

    # a FieldState of its own, with psi0's spectrum if it holds one: the
    # caller's psi0 keeps none of the arrays the diagnostics compute (in 3D
    # each is a field-sized array held for the whole run)
    stop = record(0, FieldState(grid, psi0.values, vars(psi0).get("spectrum")))
    done = 0
    while done < n_steps and not stop:
        blk = min(cadence, n_steps - done)
        t0 = perf_counter()
        vals = st.step_block(vals, blk)
        wall["step_s"] += perf_counter() - t0
        done += blk
        stop = record(done, FieldState(grid, vals))
    if timing is not None:
        timing.update(wall, n_steps=done, step_threads=st.threads)
    return FieldState(grid, vals), diags
