"""Workload inputs: knot diagrams read from ``data/`` and varied by a seed.

Everything here is plain Python with no import of ``bnscan``, so the
benchmark's inputs do not move when the program under test changes.

Seed semantics:

* Fixed-diagram workloads (``scan_hard``, ``sq1_table``):
  the seed relabels the edges of every PD code and permutes the order of
  the rows.  The knot, and therefore the expected s values and
  quadruples, stay the same.  The order of the crossings is
  kept: the program's scan order breaks ties by crossing index, and
  permuting the crossings moved the girth of ``rb5_24`` between 8 and 10
  and of ``k16`` between 6 and 8, which changes the work, not just its
  labels.
* ``dt_front``: the 24 rows of ``data/dt_front.txt``, closures of
  14-letter braid words on 5 strands given as DT codes (``draw.py`` drew
  them and checks them).  The run seed permutes the order of the rows.
  The words are one fixed draw: the cost of a DT row is set by where its
  planar flip state falls in the parser's 2^n search, so a fresh draw
  per seed would move the wall time by more than the host's timing noise
  (see README.md).
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# 24 crossings on 5 strands, girth 10 in the scan order of the program
# at the time the benchmark was defined.
RB5_24 = (-2, 4, 1, 1, 1, 3, 4, -1, 2, -3, 4, 1, 4, -1, -2, 2, -4, -1, -3,
          2, 2, -3, -2, 4)

# strands of the braid words in data/dt_front.txt
DT_STRANDS = 5


@dataclass(frozen=True)
class Row:
    """One knot of a workload: its name and the text of its input line."""

    name: str
    code: str  # "PD[...]" or "DT[...]"
    braid: tuple[int, ...] | None = None  # the braid word, when drawn

    def line(self):
        return f"{self.name};{self.code}"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    rings: tuple[str, ...]
    rows: tuple[Row, ...]


# --- PD codes -----------------------------------------------------------------

_X_RE = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def pd_crossings(code):
    return [tuple(int(g) for g in m.groups()) for m in _X_RE.finditer(code)]


def pd_text(crossings):
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in crossings) + "]"


def braid_closure(word, strands):
    """PD crossings of the closure of a braid word (sigma_i = i).

    Strands run downward and positive letters cross strand i over i+1.
    Legs are listed counterclockwise from the incoming under-strand.
    """
    labels = iter(range(1, 2 * len(word) + strands + 1))
    top = [next(labels) for _ in range(strands)]
    cur = list(top)
    crossings = []
    for letter in word:
        p = abs(letter) - 1
        if not 0 <= p < strands - 1:
            raise ValueError(f"letter {letter} outside B_{strands}")
        in_l, in_r = cur[p], cur[p + 1]
        out_l, out_r = next(labels), next(labels)
        if letter > 0:
            crossings.append((in_r, in_l, out_l, out_r))
        else:
            crossings.append((in_l, out_l, out_r, in_r))
        cur[p], cur[p + 1] = out_l, out_r
    close = {}
    for a, b in zip(top, cur):
        if a == b:
            raise ValueError("closure has a crossing-free strand")
        close[a] = b
    crossings = [tuple(close.get(e, e) for e in x) for x in crossings]
    # compact the labels to 1..2n in order of first appearance
    renum = {}
    for x in crossings:
        for e in x:
            renum.setdefault(e, len(renum) + 1)
    return [tuple(renum[e] for e in x) for x in crossings]


def relabel(code, rng):
    """The same diagram, crossing for crossing, with its edges relabelled."""
    crossings = pd_crossings(code)
    labels = sorted({e for x in crossings for e in x})
    fresh = list(range(1, len(labels) + 1))
    rng.shuffle(fresh)
    new = dict(zip(labels, fresh))
    return pd_text([tuple(new[e] for e in x) for x in crossings])


# --- workloads ----------------------------------------------------------------


def read_table(filename):
    """Rows of ``name ; code`` lines, or ``name ; code ; braid word``."""
    rows = []
    with open(os.path.join(DATA, filename)) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                name, code, *word = line.split(";")
                braid = tuple(int(x) for x in word[0].split()) if word else None
                rows.append(Row(name.strip(), "".join(code.split()), braid))
    return rows


def _fixed(rows, seed):
    rng = random.Random(f"perfbench-{seed}")
    rows = [Row(r.name, relabel(r.code, rng)) for r in rows]
    rng.shuffle(rows)
    return tuple(rows)


def build(name, seed):
    """The workload ``name`` for ``seed``."""
    if name == "dt_front":
        rows = read_table("dt_front.txt")
        random.Random(f"perfbench-{seed}").shuffle(rows)
        return Workload(name, "s", ("f2",), tuple(rows))
    if name == "scan_hard":
        rows = [Row("rb5_24", pd_text(braid_closure(RB5_24, 5)))]
        rows += read_table("k16.txt")
        return Workload(name, "s", ("f2", "q"), _fixed(rows, seed))
    if name == "sq1_table":
        return Workload(name, "sq1", ("z4", "f2"),
                        _fixed(read_table("mixed_knots.txt"), seed))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dt_front", "scan_hard", "sq1_table")
