"""The bnscan benchmark: one workload, measured from outside the program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan_hard --seed 1 --seconds 35 --trace 0

Each pass over the workload runs in a fresh process (``worker.py``), so
every pass pays the import and the fill of the program's caches, as a user
of ``sinv compute`` does.  Passes repeat until the next one would end
after ``--seconds``; the run reports medians over passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (all rows of the
workload), ``knot_s_p50`` (median per-knot time), ``peak_rss_mb``
(``ru_maxrss`` of the pass process) and ``setup_s`` (interpreter start,
import, building the inputs and file writing).  ``--trace 1`` alternates one
untraced pass with two traced ones and reports the per-layer metrics of
``spans.py`` from the traced passes, plus the tracing overhead.  The
counts named in ``spans.REPEATED`` must be identical in every traced pass,
and every wrapped attribute must hold its original function afterwards.

Every row of every pass goes through the gate of ``gate.py`` after the
pass; ``failed`` counts the rows that failed it.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Without ``src/bnscan`` next to this directory the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import load_expected, pass_problems  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from spans import REPEATED  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SRC = os.path.join(os.path.dirname(HERE), "src", "bnscan")
PASS_TIMEOUT_S = 150

UNITS = {"wall_s": "s", "knot_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class PassError(RuntimeError):
    """A worker process failed or printed no result."""


def spawn(args, timeout):
    """Run the worker in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        capture_output=True, text=True, timeout=timeout, cwd=HERE,
    )
    if proc.returncode != 0:
        raise PassError(f"worker {' '.join(args)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_passes(workload, seed, seconds, trace):
    """Fresh-process passes until the next would end after ``seconds``."""
    plan = ("plain", "traced", "traced") if trace else ("plain",)
    passes = []
    start = time.monotonic()
    while True:
        kind = plan[len(passes) % len(plan)]
        args = ["--workload", workload, "--seed", str(seed)]
        if kind == "traced":
            os.makedirs(OUT, exist_ok=True)
            n = sum(1 for p in passes if p["kind"] == "traced")
            args += ["--traced", os.path.join(
                OUT, f"spans-{workload}-seed{seed}-{n}.jsonl")]
        t0 = time.monotonic()
        result = spawn(args + ["--spawned", repr(t0)], PASS_TIMEOUT_S)
        result["kind"] = kind
        passes.append(result)
        now = time.monotonic()
        if len(passes) >= len(plan) and now - start + (now - t0) > seconds:
            return passes


def check(passes, expected, references):
    """(attempted, failed, problems by knot) over every pass."""
    attempted = failed = 0
    problems = {}
    for p in passes:
        found = pass_problems(p["names"], p["rows"], expected, references)
        attempted += len(p["names"])
        failed += len(found)
        problems.update(found)
    return attempted, failed, problems


def end_to_end(plain):
    med = statistics.median
    values = {
        "wall_s": med(p["wall_s"] for p in plain),
        "knot_s_p50": med(p["knot_s_p50"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "setup_s": med(p["setup_s"] for p in plain),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(plain, traced):
    """Median self times over traced passes; counts from the first one.

    Returns (metrics, problems): a problem is a count that did not repeat
    between traced passes, or a wrapped attribute left patched.
    """
    from spans import Tracer

    units = {k: u for k, (_v, u) in Tracer().metrics(1).items()}
    units["trace.overhead_s"] = "s"
    problems = []
    first = traced[0]["trace"]
    for p in traced[1:]:
        for key in REPEATED:
            if p["trace"][key] != first[key]:
                problems.append(f"{key} {first[key]} then {p['trace'][key]}")
    if not all(p["restored"] for p in traced):
        problems.append("a wrapped attribute was not restored")
    metrics = {}
    for key, unit in units.items():
        value = (statistics.median(p["trace"][key] for p in traced)
                 if unit == "s" else first[key])
        metrics[key] = {"value": value, "unit": unit}
    rows_failed = sum(1 for row in traced[0]["rows"] if row.get("error"))
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["cli.rows_failed"] = {"value": rows_failed, "unit": "count"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / plain_wall, "unit": "ratio"}
    metrics["trace.overhead_share"] = {
        "value": metrics["trace.overhead_s"]["value"] / traced_wall,
        "unit": "ratio"}
    return metrics, problems


def describe(passes):
    """Information lines; not metrics."""
    for i, p in enumerate(passes):
        slowest = max(range(len(p["knot_s"])), key=p["knot_s"].__getitem__)
        print(f"pass {i} {p['kind']}: wall {p['wall_s']:.3f} s, "
              f"knot p50 {p['knot_s_p50']:.3f} s, max {p['knot_s'][slowest]:.3f} s "
              f"({p['names'][slowest]}), setup {p['setup_s']:.3f} s, "
              f"rss {p['peak_rss_mb']:.1f} MB")


def main(argv=None):
    ap = argparse.ArgumentParser(description="bnscan benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"error: no program at {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()["workloads"][args.workload]
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
        references = None
        if args.workload == "dt_front":
            references = spawn(["--workload", args.workload, "--seed",
                                str(args.seed), "--reference"], PASS_TIMEOUT_S)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    describe(passes)
    attempted, failed, problems = check(passes, expected, references)
    for name, reasons in sorted(problems.items()):
        print(f"FAILED {name}: {'; '.join(reasons)}")
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    correct = failed == 0
    if args.trace:
        metrics, trace_problems = per_layer(plain, traced)
        for reason in trace_problems:
            print(f"TRACE {reason}")
        correct = correct and not trace_problems
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
