"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload free_run --seed 1 --trace 0 --out-dir .perfbench/x

Imports solitonlab from ``src/`` next to this directory, wraps the layer
functions (``spans.probes``), times the workload's operation, checks its
outputs and prints one JSON object on the last line of standard output.
With ``--setup-only`` the operation is stopped at its first Strang step and
only ``setup_s`` is reported.  Run by ``run.py``; a fresh process per
repetition makes each repetition's peak RSS its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans as sp  # noqa: E402  (after the path set-up above)


def _failures(wl, recs, crashed: bool) -> int:
    """Scenario runs (sweep members) that were partial or raised; an
    operation that raised outside them fails as a whole."""
    bad = sum(1 for rec in recs if rec[sp.NAME] == sp.MEMBER
              and (rec[sp.VALUE] or rec[sp.ERROR] is not None))
    return wl.operations if crashed and bad == 0 else bad


def setup_only(tracer, wl, inputs) -> int:
    """Time the operation up to its first Strang step (in a sweep, the
    first member's) and stop it there.  A set-up that fails gives no time;
    the full repetitions count the failure."""
    from solitonlab import evolve
    evolve.Stepper.step_block = sp.stop_at_first_step
    setup_s, crash = None, "the operation ended without a Strang step"
    try:
        tracer.wrap(wl.operation, sp.ROOT)(inputs)
    except sp.SetupDone as done:
        setup_s, crash = done.args[0] - tracer.spans[0][sp.START], None
    except Exception as e:
        crash = f"{type(e).__name__}: {e}"
    print(json.dumps({"setup_s": setup_s, "crash": crash}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import solitonlab
    if not os.path.abspath(solitonlab.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"solitonlab imported from {solitonlab.__file__}, not this checkout")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = sp.Tracer(args.out_dir)
    tracer.install(full=bool(args.trace))
    if args.setup_only:
        return setup_only(tracer, wl, inputs)

    crash = None
    try:
        out = tracer.wrap(wl.operation, sp.ROOT)(inputs)
    except Exception as e:      # a failed operation is counted, not fatal
        out, crash = None, f"{type(e).__name__}: {e}"
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + tracer.merge_workers()
    recs = list(tracer.spans)

    root = recs[0]
    t_first = sp.first_step_start(recs)
    steps = sum(rec[sp.VALUE] for rec in recs if rec[sp.NAME] == sp.STEP)
    extracts = [rec for rec in recs if rec[sp.NAME] == sp.EXTRACT]
    failed = _failures(wl, recs, crash is not None)
    errors, figures = [], {}
    if failed == 0:
        checks = wl.check(inputs, out)
        errors, figures = checks.errors, checks.figures
        if steps != wl.steps:
            errors.append(f"Strang steps {steps}, expected {wl.steps}")
    result = {
        "run_s": root[sp.END] - root[sp.START],
        "setup_s": (t_first - root[sp.START]) if t_first is not None else None,
        "steps": steps,
        "peak_rss_kib": rss_kib,
        "attempted": wl.operations,
        "failed": failed,
        "extractions": len(extracts),
        "extract_failed": sum(rec[sp.ERROR] is not None for rec in extracts),
        "crash": crash,
        "errors": errors,
        "figures": figures,
    }
    if args.trace:
        result["layers"] = sp.layer_metrics(recs)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent", "fft_calls",
                                      "value", "error"],
                           "spans": recs}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
