"""Batch front end: knot tables in, invariant tables out.

One knot per input line (``name;PD[...]`` or ``name;DT[...]``); jobs run
independently per knot, optionally across a process pool, and results are
emitted in input order as CSV or JSON plus an aligned text report.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from typing import NamedTuple

from .coeff import F2, Z, Z4, ring_from_name
from .complex import HALF_WIDTH, dump, reduce_pass, scan
from .diagram import orient_and_sign, parse_knot_line, scan_order
from .sinv import base_change, from_filtered, khovanov_table, s_from_based
from .sq1 import refine_scanned


class Job(NamedTuple):
    input_path: str
    mode: str = "s"
    rings: tuple[str, ...] = ("f2",)
    jobs: int = 1
    fail_fast: bool = False
    dump_dir: str | None = None


class ResultRow(NamedTuple):
    name: str
    mode: str
    s_values: dict
    quadruple: tuple | None
    kh_tables: dict
    time_ms: float
    error: str | None


def _check_dump_name(name, repeats):
    """Refuse a knot name that would put its dump file outside the directory,
    or that the row on line ``repeats`` (None if no earlier row) dumps under."""
    if any(sep and sep in name for sep in (os.sep, os.altsep, "\0")):
        raise ValueError(f"knot name {name!r} cannot name a dump file")
    if repeats is not None:
        raise ValueError(
            f"knot name {name!r} repeats line {repeats}; "
            "its dump would overwrite that row's"
        )


def _write_dump(dump_dir, filename, C):
    with open(os.path.join(dump_dir, filename), "w") as f:
        f.write(dump(C))


def _compute_row(args):
    name, line, mode, rings, dump_dir, repeats = args
    t0 = time.perf_counter()
    s_values, quad, kh_tables, error = {}, None, {}, None
    try:
        if dump_dir:
            _check_dump_name(name, repeats)
        pd = parse_knot_line(line)
        order = scan_order(orient_and_sign(pd))
        # F2 alone scans over F2, where even entries vanish and the
        # complex stays smaller, and in mode s it stops at the reduced
        # complex, whose one survivor gives s; every other field list
        # reads one closed scan over Z through base_change, which is
        # faster than Fraction or mod-p arithmetic inside every
        # cobordism product
        ring = Z4 if mode == "sq1" else F2 if rings == ("f2",) else Z
        C = scan(order, ring, mode)
        if mode == "sq1":
            s_values["f2"], quad = refine_scanned(C)
        else:
            D = from_filtered(C)
            for rname in rings:
                # over the scan ring itself both steps change nothing
                E = reduce_pass(base_change(D, ring_from_name(rname)))
                if mode == "s":
                    s_values[rname] = s_from_based(E).s
                else:
                    kh_tables[rname] = {
                        f"{h},{q}": v
                        for (h, q), v in sorted(khovanov_table(E).items())
                    }
        if dump_dir:
            _write_dump(dump_dir, f"{name}.txt", C)
    except Exception as exc:  # any failure belongs to this row alone
        error = f"{type(exc).__name__}: {exc}"
    time_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    return ResultRow(name, mode, s_values, quad, kh_tables, time_ms, error)


def run(job: Job):
    """Compute one row per knot of the input file, in input order.

    Modes s and kh read their numbers off a saturated complex, which
    needs a field; each ring is kept once, in order, under its own name
    (``F2`` and ``f02`` are ``f2``).  Mode sq1 always works over Z/4Z and
    F2, whatever known rings it is given.  Every row scans its diagram
    once, over F2 when that is its only ring, else over Z (Z/4Z in mode
    sq1).  A row with
    no name before its ``;``, or no ``;``, is named ``line{N}`` after
    its line number.  An unknown mode or ring name raises ValueError,
    in every mode, before the input is read.  With ``fail_fast`` the
    first failing row raises RuntimeError at once.  With ``dump_dir``
    each row whose name an earlier row already has is an error row,
    since both would write one dump file; the decision is made before
    any row is computed.
    """
    if job.mode not in HALF_WIDTH:
        raise ValueError(f"unknown mode {job.mode!r}")
    rings = tuple(dict.fromkeys(ring_from_name(rname).name for rname in job.rings))
    if job.mode != "sq1" and not rings:
        raise ValueError(f"mode {job.mode} needs at least one ring")
    for rname in rings:
        if job.mode != "sq1" and not ring_from_name(rname).is_field:
            raise ValueError(f"mode {job.mode} needs a field, not ring {rname!r}")
    with open(job.input_path) as f:
        text = f.read()
    tasks = []
    first_lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name = stripped.split(";", 1)[0].strip() if ";" in stripped else ""
        name = name or f"line{lineno}"
        first_line = first_lines.setdefault(name, lineno)
        repeats = first_line if first_line != lineno else None
        tasks.append((name, stripped, job.mode, rings, job.dump_dir, repeats))
    if job.dump_dir:
        os.makedirs(job.dump_dir, exist_ok=True)
    pool = None
    if job.jobs > 1 and len(tasks) > 1:
        # a serial run does not load the process-pool module tree
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=job.jobs)
    rows = []
    try:
        for row in (pool.map if pool else map)(_compute_row, tasks):
            if job.fail_fast and row.error:
                raise RuntimeError(f"{row.name}: {row.error}")
            rows.append(row)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return rows


def _ring_columns(rows):
    names = []
    for row in rows:
        for rname in row.s_values:
            if rname not in names:
                names.append(rname)
    return names


def rows_to_csv(rows):
    import csv

    rings = _ring_columns(rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["name"] + [f"s_{r}" for r in rings]
    header += ["r_plus", "s_plus", "r_minus", "s_minus", "kh", "time_ms", "error"]
    writer.writerow(header)
    for row in rows:
        quad = row.quadruple or ("", "", "", "")
        kh = json.dumps(row.kh_tables, sort_keys=True) if row.kh_tables else ""
        writer.writerow(
            [row.name]
            + [row.s_values.get(r, "") for r in rings]
            + list(quad)
            + [kh, row.time_ms, row.error or ""]
        )
    return buf.getvalue()


def rows_to_json(rows):
    out = []
    for row in rows:
        entry = {
            "name": row.name,
            "mode": row.mode,
            "s": row.s_values,
            "time_ms": row.time_ms,
        }
        if row.quadruple is not None:
            entry["sq1"] = list(row.quadruple)
        if row.kh_tables:
            entry["kh"] = row.kh_tables
        if row.error:
            entry["error"] = row.error
        out.append(entry)
    return json.dumps(out, indent=1, sort_keys=True)


def report(rows):
    """Aligned text table plus summary counts."""
    rings = _ring_columns(rows)
    header = ["name"] + [f"s_{r}" for r in rings] + ["sq1", "time_ms", "status"]
    table = [header]
    nonstandard = 0
    for row in rows:
        quad = ""
        if row.quadruple is not None:
            quad = "(" + ",".join(str(x) for x in row.quadruple) + ")"
            s = row.s_values.get("f2")
            if s is not None and any(x != s for x in row.quadruple):
                nonstandard += 1
        table.append(
            [row.name]
            + [str(row.s_values.get(r, "")) for r in rings]
            + [quad, str(row.time_ms), row.error or "ok"]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in table
    ]
    done = sum(1 for r in rows if not r.error)
    lines.append("")
    lines.append(
        f"{done} of {len(rows)} knots processed; "
        f"{nonstandard} non-standard refinement quadruples"
    )
    return "\n".join(lines)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="sinv",
        description="s-invariants and their refinement from knot tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    comp = sub.add_parser("compute", help="process a knot table")
    comp.add_argument("--input", required=True)
    comp.add_argument("--mode", choices=tuple(HALF_WIDTH), default="s")
    comp.add_argument("--ring", default="f2")
    comp.add_argument("--out")
    comp.add_argument("--format", choices=("csv", "json"), default="csv")
    comp.add_argument("--jobs", type=int, default=1)
    comp.add_argument("--fail-fast", action="store_true")
    comp.add_argument("--dump-complex", dest="dump_dir")
    args = parser.parse_args(argv)

    rings = tuple(r.strip() for r in args.ring.split(",") if r.strip())
    job = Job(
        input_path=args.input,
        mode=args.mode,
        rings=rings,
        jobs=max(1, args.jobs),
        fail_fast=args.fail_fast,
        dump_dir=args.dump_dir,
    )
    try:
        rows = run(job)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(report(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
