"""Spans around the public functions of each solitonlab layer.

The wrappers are installed from the benchmark's side, on the names the
callers look up at call time (``harness.extract``, ``harness.orbit_distance``,
``evolve.hamiltonian``, ...), so no file of the package changes.  A span is
``[name, start, end, parent, fft_calls, value, error]``: ``parent`` indexes
the span that was open when this one began, ``fft_calls`` counts the
``numpy.fft`` transforms made directly inside it, ``value`` is a per-call
quantity (steps of a Strang block, Newton iterations of an extraction, ...)
and ``error`` names the exception that ended the call, if one did.

``epsilon_sweep`` runs its members in a forked process pool.  A forked worker
starts an empty span list whose roots hang under the span that was open in
the parent at fork time, and writes its spans to ``<out_dir>/worker-<pid>.json``
each time its outermost span closes; ``merge_workers`` reads them back.
Times are ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which all
processes of one machine share.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import resource
from time import perf_counter

NAME, START, END, PARENT, FFT, VALUE, ERROR = range(7)

# numpy.fft entry points the package calls through the module attribute
FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn")


class SetupDone(BaseException):
    """Raised by a set-up-only repetition at its first Strang step; ``args[0]``
    is the step's start time.  A BaseException, so that no ``except
    Exception`` in the package stops it; a pool worker sends it back to the
    parent like any other exception."""


def stop_at_first_step(*args, **kwargs):
    raise SetupDone(perf_counter())


def _partial(args, out):
    return bool(out.summary["partial"])


def _block_steps(args, out):
    return int(args[2])


def _newton_iters(args, out):
    return int(out.newton_iters)


def _orbit_samples(args, out):
    return len(out.ts)


def probes(full: bool):
    """(owner, attribute, span name, value function) for every wrapped name.

    The owner is the module or class where the caller looks the name up.
    Without ``full`` only the probes the end-to-end metrics need are kept:
    the run's partial flag, the Strang blocks (first-step time and step
    count) and the extractions (attempts and failures).
    """
    from solitonlab import evolve, field, groundstate, harness, modulation

    light = [
        (harness, "scenario_run", "harness.scenario_run", _partial),
        (evolve.Stepper, "step_block", "evolve.Stepper.step_block", _block_steps),
        (harness, "extract", "modulation.extract", _newton_iters),
    ]
    if not full:
        return light
    return light + [
        (harness, "epsilon_sweep", "harness.epsilon_sweep", None),
        (evolve, "run", "evolve.run", None),
        (evolve, "hamiltonian", "evolve.hamiltonian", None),
        (field, "momenta", "field.momenta", None),
        (evolve, "boundary_mass_fraction", "field.boundary_mass_fraction", None),
        (modulation, "newton_jacobian", "modulation.newton_jacobian", None),
        (modulation, "invert_projector", "modulation.invert_projector", None),
        (groundstate.SolitonFamily, "tangents", "groundstate.SolitonFamily.tangents", None),
        (harness, "mech_run", "mech.mech_run", _orbit_samples),
        (harness, "orbit_distance", "mech.orbit_distance", None),
        (groundstate, "solve_ground_state", "groundstate.solve_ground_state", None),
        (groundstate, "mass_curve", "groundstate.mass_curve", None),
    ]


class Tracer:
    """In-memory span recorder for one process and its forked workers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list = []
        self.stack: list = []
        self.worker = False
        self.fork_parent = -1
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self):
        self.fork_parent = self.stack[-1] if self.stack else -1

    def _in_child(self):
        self.spans, self.stack = [], []
        self.worker = True

    def wrap(self, fn, name, value=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if value is not None:
                    rec[VALUE] = value(args, out)
                return out
            except Exception as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if tracer.worker and not stack:
                    tracer._dump()

        return traced

    def _count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][FFT] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, full: bool):
        """Wrap the probed names; with ``full`` also count numpy.fft calls."""
        done = {}
        for owner, attr, name, value in probes(full):
            fn = getattr(owner, attr)
            if id(fn) not in done:
                done[id(fn)] = self.wrap(fn, name, value)
            setattr(owner, attr, done[id(fn)])
        if full:
            import numpy.fft
            for attr in FFT_FUNCS:
                setattr(numpy.fft, attr, self._count(getattr(numpy.fft, attr)))

    def _dump(self):
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"fork_parent": self.fork_parent,
                       "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       "spans": self.spans}, fh)
        os.replace(tmp, path)

    def merge_workers(self) -> int:
        """Append the spans the workers wrote, re-parented into this list;
        returns the summed peak RSS (KiB) of the workers."""
        rss = 0
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path) as fh:
                data = json.load(fh)
            base = len(self.spans)
            for rec in data["spans"]:
                rec[PARENT] = data["fork_parent"] if rec[PARENT] < 0 else rec[PARENT] + base
                self.spans.append(rec)
            rss += data["maxrss_kib"]
            os.remove(path)
        return rss


def _union_length(intervals, lo, hi) -> float:
    """Length of the part of [lo, hi] that the intervals cover."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.  Pool
    members run side by side in other processes, so children are merged as
    intervals rather than summed."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [rec[END] - rec[START] - _union_length(children[i], rec[START], rec[END])
            for i, rec in enumerate(spans)]


def inclusive_ffts(spans) -> list:
    """numpy.fft calls made inside each span, its descendants included."""
    out = [rec[FFT] for rec in spans]
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            out[p] += out[i]
    return out


STEP = "evolve.Stepper.step_block"
EXTRACT = "modulation.extract"
MEMBER = "harness.scenario_run"
ROOT = "operation"
DIAG = ("evolve.hamiltonian", "field.momenta", "field.boundary_mass_fraction")
LAYERS = ("harness", "evolve", "field", "modulation", "groundstate", "mech")

SOLVE = ("groundstate.solve_ground_state", "groundstate.mass_curve")


def _peak_overlap(intervals) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
                    key=lambda ev: (ev[0], ev[1]))
    cur = peak = 0
    for _, d in events:
        cur += d
        peak = max(peak, cur)
    return peak


def first_step_start(spans) -> float | None:
    starts = [rec[START] for rec in spans if rec[NAME] == STEP]
    return min(starts) if starts else None


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced repetition (0 where a layer never ran)."""
    selfs = self_times(spans)
    ffts = inclusive_ffts(spans)
    by = {}
    for i, rec in enumerate(spans):
        by.setdefault(rec[NAME], []).append(i)

    def ids(name):
        return by.get(name, [])

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in ids(name))

    def per(x, n):
        return x / n if n else 0.0

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    steps = sum(spans[i][VALUE] for i in ids(STEP))
    # ground-state solves not nested in another one (mass_curve calls
    # solve_ground_state once per energy)
    solve_s = sum(dur(i) for n in SOLVE for i in ids(n) if parent_name(i) not in SOLVE)
    n_ext = len(ids(EXTRACT))
    samples = len(ids("evolve.hamiltonian"))
    diag = sum(dur(i) for n in DIAG for i in ids(n) if parent_name(i) == "evolve.run")
    members = [(spans[i][START], spans[i][END]) for i in ids(MEMBER)]
    member_s = [e - s for s, e in members]
    root = ids(ROOT)[0]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        layer = rec[NAME].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += selfs[i]

    out = {
        "evolve.step_us": per(total(STEP), steps) * 1e6,
        "evolve.steps": steps,
        "evolve.fft_calls_per_step": per(sum(ffts[i] for i in ids(STEP)), steps),
        "evolve.diag_ms": per(diag, samples) * 1e3,
        "modulation.extract_ms": per(total(EXTRACT), n_ext) * 1e3,
        "modulation.extractions": n_ext,
        "modulation.extract_failed": sum(spans[i][ERROR] is not None for i in ids(EXTRACT)),
        "modulation.newton_iters": sum(spans[i][VALUE] or 0 for i in ids(EXTRACT)),
        "modulation.jacobian_ms": per(total("modulation.newton_jacobian"),
                                      len(ids("modulation.newton_jacobian"))) * 1e3,
        "modulation.jacobian_calls": len(ids("modulation.newton_jacobian")),
        "modulation.invert_ms": per(total("modulation.invert_projector"),
                                    len(ids("modulation.invert_projector"))) * 1e3,
        "modulation.invert_calls": len(ids("modulation.invert_projector")),
        "modulation.fft_calls_per_extract": per(sum(ffts[i] for i in ids(EXTRACT)), n_ext),
        "groundstate.tangents_ms": per(total("groundstate.SolitonFamily.tangents"),
                                       len(ids("groundstate.SolitonFamily.tangents"))) * 1e3,
        "groundstate.tangents_per_extract": per(len(ids("groundstate.SolitonFamily.tangents")),
                                                n_ext),
        "groundstate.solve_s": solve_s,
        "mech.mech_run_s": total("mech.mech_run"),
        "mech.orbit_samples": sum(spans[i][VALUE] or 0 for i in ids("mech.mech_run")),
        "mech.orbit_distance_ms": per(total("mech.orbit_distance"),
                                      len(ids("mech.orbit_distance"))) * 1e3,
        "mech.orbit_distance_calls": len(ids("mech.orbit_distance")),
        "harness.self_ms": per(sum(selfs[i] for i in ids(MEMBER)), samples if members else 0) * 1e3,
        "harness.member_s_max": max(member_s, default=0.0),
        "harness.member_s_sum": sum(member_s),
        "harness.worker_idle_s": (_peak_overlap(members) * dur(root) - sum(member_s)
                                  if members else 0.0),
    }
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    out["trace.unattributed_s"] = selfs[root]
    out["trace.self_sum_s"] = sum(layer_self.values())
    out["trace.run_s"] = dur(root)
    return out
