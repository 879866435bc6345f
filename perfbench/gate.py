"""Correctness gate: every row of every pass is checked after timing.

A row fails when the program reported an error for it, when it is
missing, when it differs from the values recorded in ``expected.json``,
or when an independent check disagrees:

* positive braids: a ``T(2,k)`` row is the closure of sigma_1^k, a
  positive braid with w = k crossings on b = 2 strands, so its s is
  w - b + 1 = k - 1 over every field;
* DT rows: a DT code fixes the knot only up to mirror image, so |s| of a
  ``dt_front`` row must equal |s| of the same braid closure scanned from
  its PD code.

For the same reason ``expected.json`` records |s| for DT rows and the
sign of their s is not compared: a parser may realize either mirror
embedding of a DT code.
"""

from __future__ import annotations

import json
import os
import re

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")

_TORUS_2 = re.compile(r"^T\(2,(\d+)\)$")
KEYS = ("s", "sq1")


def load_expected(path=EXPECTED):
    with open(path) as f:
        return json.load(f)


def recorded(row, mirror=False):
    """The values of ``row`` that ``expected.json`` holds; |s| if ``mirror``."""
    values = {k: row[k] for k in KEYS if k in row}
    if mirror and "s" in values:
        values["s"] = {ring: abs(s) for ring, s in values["s"].items()}
    return values


def row_problems(row, expected, reference=None):
    """Reasons why one output row is wrong; empty when it is right.

    ``row`` and ``expected`` hold the keys ``s`` and ``sq1`` as
    the worker reports them.  ``reference`` is given for DT rows only:
    the s of the PD braid closure, or the error that computing it raised.
    A DT row is compared up to mirror image.
    """
    out = []
    if row.get("error"):
        out.append(f"error: {row['error']}")
        return out
    got = recorded(row, mirror=reference is not None)
    for key in KEYS:
        if key in expected and got.get(key) != expected[key]:
            out.append(f"{key} = {got.get(key)!r}, expected {expected[key]!r}")
    m = _TORUS_2.match(row["name"])
    if m:
        want = int(m.group(1)) - 1
        for ring, s in row.get("s", {}).items():
            if s != want:
                out.append(f"s_{ring} = {s}, positive-braid formula gives {want}")
    if isinstance(reference, str):
        out.append(f"PD closure failed: {reference}")
    elif reference is not None:
        for ring, s in row.get("s", {}).items():
            if abs(s) != abs(reference):
                out.append(f"|s_{ring}| = {abs(s)}, PD closure gives {abs(reference)}")
    return out


def pass_problems(names, rows, expected, references=None):
    """Map each failing knot of one pass to its reasons.

    ``names`` lists the knots the pass attempted; every one of them needs
    exactly one output row.  ``references`` maps each DT row to its
    reference (see ``row_problems``).
    """
    references = references or {}
    by_name = {}
    problems = {}
    for row in rows:
        if row["name"] in by_name:
            problems[row["name"]] = ["duplicate output row"]
        by_name[row["name"]] = row
    for name in names:
        if name in problems:
            continue
        if name not in expected:
            problems[name] = ["no expected values recorded"]
        elif name not in by_name:
            problems[name] = ["no output row"]
        else:
            found = row_problems(by_name[name], expected[name],
                                 references.get(name))
            if found:
                problems[name] = found
    return problems
