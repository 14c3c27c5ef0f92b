"""solitonlab benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload free_run --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh interpreter
(``rep.py``); repetitions continue while another one still fits in
``--seconds``, and at least one runs.  ``--trace 0`` then adds set-up-only
repetitions until the run holds MIN_SETUPS set-up times, and reports the
end-to-end metrics (see ``end_to_end``).  ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics as medians over the
traced ones, plus ``trace.overhead_s`` (traced minus untraced run time).
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the lines before it list every
repetition and the operations attempted and failed.  Spans of the last
traced repetition are written to ``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
REP_TIMEOUT_S = 170.0
# set-up times per run: the sweep's repetitions are long, so it tops up with
# repetitions that stop at the first Strang step
MIN_SETUPS = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_rep(workload: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    """One repetition in a child process (and its own process group, so a
    hung pool is killed whole)."""
    out_dir = os.path.join(OUT, f"rep-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out-dir", out_dir]
    if trace:
        cmd += ["--trace-file", os.path.join(OUT, f"trace-{workload}.json")]
    if setup_only:
        cmd += ["--setup-only"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException as e:  # timeout, or this process told to stop
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            raise SystemExit(f"{workload}: repetition exceeded {REP_TIMEOUT_S:.0f} s")
        raise
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: repetition exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def repeat(seconds: float, body) -> list:
    """Call ``body()`` while one more call, as long as the last one, still
    fits in ``seconds``."""
    t0 = time.monotonic()
    out = []
    while True:
        t = time.monotonic()
        out.append(body())
        now = time.monotonic()
        if now - t0 + (now - t) > seconds:
            return out


def end_to_end(reps: list, setups: list) -> dict:
    """``run_s`` and ``steps_per_s`` over all the run's repetitions taken
    together: this machine's speed switches between two levels, and a
    median of a few repetitions jumps between them where the mean follows
    the share of time spent at each (README.md, Machine).  ``setup_s`` is
    the median of every set-up time of the run, set-up-only repetitions
    included; ``peak_rss_mb`` the median peak."""
    ok = [r for r in reps if r["failed"] == 0]
    if not ok:
        raise SystemExit("every repetition failed: no metric to report")
    vals = {
        "run_s": statistics.fmean(r["run_s"] for r in ok),
        "setup_s": statistics.median(setups),
        "steps_per_s": (sum(r["steps"] for r in ok)
                        / sum(r["run_s"] - r["setup_s"] for r in ok)),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] * 1024 / 1e6 for r in ok),
    }
    assert vals.keys() == END_TO_END.keys(), "BENCHMARK.json end_to_end differs"
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in vals.items()}


def per_layer(traced: list, untraced: list) -> dict:
    ok = [r for r in traced if r["failed"] == 0]
    if not ok:
        raise SystemExit("every traced repetition failed: no metric to report")
    vals = {k: statistics.median(r["layers"][k] for r in ok) for k in ok[0]["layers"]}
    vals["trace.untraced_run_s"] = statistics.median(
        r["run_s"] for r in untraced if r["failed"] == 0)
    vals["trace.overhead_s"] = vals["trace.run_s"] - vals["trace.untraced_run_s"]
    assert vals.keys() == PER_LAYER.keys(), "BENCHMARK.json per_layer differs"
    return {k: {"value": vals[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds through run_rep, which kills the running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "solitonlab", "__init__.py")):
        print("error: src/solitonlab not found; run from a solitonlab checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        pairs = repeat(args.seconds, lambda: (run_rep(args.workload, args.seed, False),
                                              run_rep(args.workload, args.seed, True)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        reps = untraced + traced
    else:
        untraced = repeat(args.seconds, lambda: run_rep(args.workload, args.seed, False))
        reps = untraced
        setups = [r["setup_s"] for r in reps if r["failed"] == 0]
        for _ in range(MIN_SETUPS - len(setups)):
            r = run_rep(args.workload, args.seed, False, setup_only=True)
            print(f"set-up only: setup_s={r['setup_s']}"
                  + (f" crash={r['crash']}" if r["crash"] else ""))
            if r["setup_s"] is not None:
                setups.append(r["setup_s"])

    for i, r in enumerate(reps):
        print(f"rep {i}: run_s={r['run_s']:.4f} setup_s={r['setup_s']} "
              f"steps={r['steps']} peak_rss_kib={r['peak_rss_kib']} "
              f"failed={r['failed']}/{r['attempted']} "
              f"extractions failed={r['extract_failed']}/{r['extractions']}"
              + (f" crash={r['crash']}" if r["crash"] else "")
              + (f" check errors: {'; '.join(r['errors'])}" if r["errors"] else ""))
        print("  " + ", ".join(f"{k} {v:.4g}" for k, v in r["figures"].items()))
    kind = {"free_run": "scenario runs", "sweep": "sweep members"}.get(args.workload, "3D runs")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"{kind}: {attempted} attempted, {failed} failed; extractions: "
          f"{sum(r['extractions'] for r in reps)} attempted, "
          f"{sum(r['extract_failed'] for r in reps)} failed")

    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setups)
    print(json.dumps({"correct": not any(r["errors"] for r in reps),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
