"""One pass over a workload, in the fresh process that ``run.py`` starts.

A pass imports ``bnscan`` from ``src/`` of the checkout, builds the
workload's inputs, writes one single-line knot file per row, and then
calls ``bnscan.cli.run(Job(...))`` once per file, timing each call from
outside.  Nothing is warmed up first: like a user of ``sinv compute``,
the pass pays the import and the fill of the program's caches.

Usage (one JSON object is printed on stdout)::

    python3 worker.py --workload W --seed N --spawned T [--traced PATH]
    python3 worker.py --workload W --seed N --reference

``--spawned`` is the ``time.monotonic()`` reading of the parent just
before it started this process; set-up time runs from there until the
input files are written.  ``--traced`` wraps the layers (see
``spans.py``) and writes the spans to PATH.  ``--reference`` computes the
s of each DT row's braid closure from its PD code, for the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")


class MissingProgramError(RuntimeError):
    """``bnscan`` is not importable from ``src/`` of the checkout."""


def import_cli():
    sys.path.insert(0, SRC)
    try:
        import bnscan.cli as cli
    except ImportError as exc:
        raise MissingProgramError(f"cannot import bnscan from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise MissingProgramError(f"bnscan imported from {where}, not {SRC}")
    return cli


def row_record(name, out):
    """The checked fields of the rows ``cli.run`` returned for one knot."""
    if len(out) != 1:
        return {"name": name, "error": f"{len(out)} rows for one knot"}
    row = out[0]
    rec = {"name": row.name, "s": dict(row.s_values), "error": row.error}
    if row.quadruple is not None:
        rec["sq1"] = list(row.quadruple)
    return rec


def write_inputs(workdir, lines):
    paths = []
    for i, line in enumerate(lines):
        path = os.path.join(workdir, f"{i:03d}.txt")
        with open(path, "w") as f:
            f.write(line + "\n")
        paths.append(path)
    return paths


def run_pass(workload, seed, spawned, trace_path=None):
    cli = import_cli()
    from inputs import build

    wl = build(workload, seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=WORK)
    tracer = None
    try:
        paths = write_inputs(workdir, [r.line() for r in wl.rows])
        setup_s = time.monotonic() - spawned
        if trace_path:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        knot_s = []
        outs = []
        try:
            clock = time.perf_counter
            start = clock()
            for i, path in enumerate(paths):
                if tracer:
                    tracer.knot = i
                t0 = clock()
                out = cli.run(cli.Job(input_path=path, mode=wl.mode,
                                      rings=wl.rings))
                knot_s.append(clock() - t0)
                outs.append(out)
            wall_s = clock() - start
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [r.name for r in wl.rows]
    result = {
        "names": names,
        "rows": [row_record(n, out) for n, out in zip(names, outs)],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "knot_s": knot_s,
        "knot_s_p50": statistics.median(knot_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.write(trace_path, names)
        result["trace"] = {
            k: v for k, (v, _unit) in tracer.metrics(len(names)).items()
        }
        result["trace"]["trace.overhead_s"] = tracer.overhead_s()
        result["restored"] = tracer.restored()
    return result


def reference(workload, seed):
    """s over F2 of each drawn braid closure, scanned from its PD code.

    A row the program could not compute maps to its error message.
    """
    cli = import_cli()
    from inputs import DT_STRANDS, braid_closure, build, pd_text

    wl = build(workload, seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=WORK)
    try:
        drawn = [r for r in wl.rows if r.braid is not None]
        lines = [f"{r.name};{pd_text(braid_closure(r.braid, DT_STRANDS))}"
                 for r in drawn]
        paths = write_inputs(workdir, lines)
        out = {}
        for r, path in zip(drawn, paths):
            (row,) = cli.run(cli.Job(input_path=path, mode="s", rings=("f2",)))
            out[r.name] = row.error or row.s_values["f2"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float)
    ap.add_argument("--traced", metavar="PATH")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.reference:
            result = reference(args.workload, args.seed)
        else:
            spawned = time.monotonic() if args.spawned is None else args.spawned
            result = run_pass(args.workload, args.seed, spawned, args.traced)
    except MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
