"""Sparse filtered complexes, Gaussian elimination and the scan driver.

The scan builds the deformed complex one crossing at a time: tensor with
the crossing's two-term complex, deloop every circle, then saturate with
quantum-degree-preserving Gaussian eliminations inside the mode's
homological window and truncate outside its retention window.  Over a
field the final complex has strictly quantum-raising coboundaries; over
Z/4Z entries equal to 2 survive at equal quantum degree.  A scan in mode
s over F2 leaves one pair of the last crossing open, the marked arc, and
closes it once the arc's dot is set to 0: it returns the reduced
complex, closed like any other (see ``scan``).  Only its grading tells
it apart: its generators sit at even quantum degrees, those of a closed
knot complex at odd ones.

One complex class serves the scan, whose entries are cobordisms, and the
readoff, whose entries are ring scalars once the scan output has been
evaluated; both cancel through ``gauss_eliminate``.
"""

from __future__ import annotations

import heapq
import os
from typing import Callable, NamedTuple

from .cob import (
    SRC,
    TGT,
    Cob,
    MismatchError,
    NotClosedError,
    Tangle,
    compose,
    deloop_iso,
    evaluate,
    glue_caches,
    glue_cobs,
    glue_tangles,
    identity_cob,
)
from .coeff import F2

DEBUG = os.environ.get("BNSCAN_DEBUG", "") == "1"

INF = 10**9

# the half-width w of the homological window [-w, w] each scan mode keeps
HALF_WIDTH = {"s": 1, "sq1": 2, "kh": INF}

# Crossing piece matchings on legs 0..3 (counterclockwise from the
# incoming under-strand): resolution 0 joins legs (0,3) and (1,2),
# resolution 1 joins (0,1) and (2,3).
PIECE0_MATCH = (3, 2, 1, 0)
PIECE1_MATCH = (1, 0, 3, 2)

# The matching of the marked arc: a reduced scan leaves the knot open at
# one point, whose two sides are the arc's ends (see ``scan``).
MARKED_ARC = (1, 0)


class NotCancellableError(ValueError):
    """Gaussian elimination requested along a non-invertible entry."""


class InconsistentError(RuntimeError):
    """A computed complex failed a check on the shape its result needs."""


def crossing_complex(ring):
    """The two-term complex of one crossing: pieces and the saddle.

    Returns ((tangle0, tangle1), saddle) with the 0-resolution in local
    degree 0 and the 1-resolution in local degree 1, quantum shift +1.
    """
    t0 = Tangle(PIECE0_MATCH, 0, 0)
    t1 = Tangle(PIECE1_MATCH, 0, 1)
    # one disc bounded by the single cycle through all four legs, undotted
    saddle = Cob(t0, t1, {0: ring.one})
    return (t0, t1), saddle


class Entries(NamedTuple):
    """The entry algebra of a complex.

    ``compose(g, f)`` is g after f; ``coefficient(f)`` is the k with
    f = k * id, or None; ``filtered(f, a, b)`` tells whether f fits the
    object labels a -> b without lowering the quantum filtration;
    ``malformed(f)`` names what breaks the entry's own form, or is None.
    """

    is_zero: Callable
    add: Callable
    compose: Callable
    scale: Callable
    coefficient: Callable
    filtered: Callable
    malformed: Callable


def cob_entries(ring):
    """Cobordisms between tangles: the entries of the scan."""

    def filtered(f, a, b):
        return f.src == a and f.tgt == b and (
            a.circles > 0 or b.circles > 0 or f.degree() >= 0
        )

    return Entries(
        Cob.is_zero, lambda f, g: f.plus(ring, g),
        lambda g, f: compose(ring, g, f), lambda f, k: f.scaled(ring, k),
        Cob.identity_coefficient, filtered, Cob.malformed,
    )


def scalar_entries(ring):
    """Ring scalars between generators labelled by quantum degree."""
    return Entries(
        ring.is_zero, ring.add, ring.mul, ring.mul, lambda k: k,
        lambda k, qa, qb: not ring.is_zero(k) and qb >= qa, lambda k: None,
    )


class FilteredComplex:
    """Sparse bigraded complex: objects per degree, entries per object.

    Objects have stable integer ids and labels ``obj[id]``: a tangle
    during the scan, a quantum degree once evaluated.  ``out[src]`` maps
    target ids to entries one homological degree up, ``inc[tgt]`` indexes
    the sources; the entry algebra (cobordisms unless given) says how
    entries test for zero, add, compose and scale.  ``h`` holds the ids
    in the order they were added, which every walk by degree keeps
    within a degree (``objects_at``, the stable ``sorted(C.h, key=C.h.get)``).
    Mutation goes through the add/remove/update helpers so the indexes
    stay coherent; only ``deloop`` writes the entries of its fresh halves
    into them directly, and ``check`` tests their coherence.
    """

    def __init__(self, ring, entries=cob_entries):
        self.ring = ring
        self.entries = entries(ring)
        self.obj: dict[int, object] = {}
        self.h: dict[int, int] = {}
        self.out: dict[int, dict[int, object]] = {}
        self.inc: dict[int, set[int]] = {}
        self._next = 0

    # -- bookkeeping -------------------------------------------------------

    def add_object(self, h, label, oid=None):
        """Add an object in degree h under a fresh id, or under ``oid``.

        An ``oid`` that a live object holds is refused with ValueError.
        """
        if oid is None:
            oid = self._next
        elif oid in self.obj:
            raise ValueError(f"object id {oid} is already in use")
        self._next = max(self._next, oid + 1)
        self.obj[oid] = label
        self.h[oid] = h
        self.out[oid] = {}
        self.inc[oid] = set()
        return oid

    def remove_object(self, oid):
        for tgt in self.out[oid]:
            self.inc[tgt].discard(oid)
        for src in self.inc[oid]:
            self.out[src].pop(oid, None)
        del self.obj[oid], self.h[oid], self.out[oid], self.inc[oid]

    def set_entry(self, src, tgt, entry):
        if self.entries.is_zero(entry):
            self.out[src].pop(tgt, None)
            self.inc[tgt].discard(src)
            return
        self.out[src][tgt] = entry
        self.inc[tgt].add(src)

    def add_to_entry(self, src, tgt, extra):
        cur = self.out[src].get(tgt)
        self.set_entry(
            src, tgt, extra if cur is None else self.entries.add(cur, extra)
        )

    def degrees(self):
        return sorted(set(self.h.values()))

    def objects_at(self, d):
        return [oid for oid, h in self.h.items() if h == d]

    def rebuild(self, into, label=None, entry=None, flip=False):
        """Copy every object and entry into the empty ``into``, keeping ids.

        ``label`` and ``entry`` map object labels and entries on the way;
        ``flip`` turns the complex upside down (degrees negated, entries
        transposed).
        """
        for oid in sorted(self.h, key=self.h.get):
            h = self.h[oid]
            lab = self.obj[oid] if label is None else label(self.obj[oid])
            into.add_object(-h if flip else h, lab, oid)
        for a, outs in self.out.items():
            for b, f in outs.items():
                src, tgt = (b, a) if flip else (a, b)
                into.set_entry(src, tgt, f if entry is None else entry(f))
        return into

    # -- verification ------------------------------------------------------

    def check(self):
        """Debug invariants: coherent indexes, well-formed entries, d^2 = 0
        and no falling jumps.

        Raises InconsistentError, so the check also runs under ``python -O``.
        """
        if not self.obj.keys() == self.h.keys() == self.out.keys() == self.inc.keys():
            raise InconsistentError("obj, h, out and inc hold different ids")
        listed = {(a, b) for a, outs in self.out.items() for b in outs}
        indexed = {(a, b) for b, srcs in self.inc.items() for a in srcs}
        if listed != indexed:
            a, b = min(listed ^ indexed)
            raise InconsistentError(f"out and inc disagree on {a} -> {b}")
        e = self.entries
        for a, outs in self.out.items():
            acc: dict = {}
            for b, f in outs.items():
                if self.h[b] != self.h[a] + 1:
                    raise InconsistentError(f"entry {a} -> {b} skips a degree")
                bad = e.malformed(f)
                if bad:
                    raise InconsistentError(f"entry {a} -> {b} has {bad}")
                if not e.filtered(f, self.obj[a], self.obj[b]):
                    raise InconsistentError(
                        f"entry {a} -> {b} does not fit its objects"
                        " or lowers the filtration"
                    )
                for c, g in self.out[b].items():
                    gf = e.compose(g, f)
                    acc[c] = e.add(acc[c], gf) if c in acc else gf
            for c, total in acc.items():
                if not e.is_zero(total):
                    raise InconsistentError(f"d^2 != 0 through {a} -> {c}")


# -- the scan steps ----------------------------------------------------------


def initial_complex(ring, n_plus, n_minus, marked=False):
    """The seed complex: one closed object carrying the global shifts.

    Tensoring every crossing piece at local degrees {0,1} and quantum
    shifts {0,1} on top of this reproduces the usual normalization
    (homological degrees offset by the negative crossing count).  A
    diagram without crossings is one circle, so its seed is that circle,
    or with ``marked`` the empty tangle of a reduced complex: the circle
    cut open at the marked point, its dot set to 0, is the arc closed
    again.  With crossings ``scan`` opens the arc at the last step
    instead.
    """
    C = FilteredComplex(ring)
    if n_plus or n_minus:
        C.add_object(-n_minus, Tangle((), 0, n_plus - 2 * n_minus))
    else:
        C.add_object(0, Tangle((), 0 if marked else 1))
    return C


def tensor_with_crossing(C, step):
    """Glue one crossing onto every object; Koszul signs on the saddle.

    The glued tangles and glue plans come from the caches of the step's
    interface (``glue_caches``).  The saddle entry of an object,
    identity glued beside the saddle, depends only on its matching and
    the parity of its degree, so it is glued once per such shape and
    those objects share its terms: no code mutates terms in place.
    """
    ring = C.ring
    if C.obj:
        m = next(iter(C.obj.values())).n_points
        used = {p for p, _x in step.pairs} | set(step.left_order)
        if used != set(range(m)) or len(step.boundary_before) != m:
            raise MismatchError(
                f"interface covers positions {sorted(used)} of a {m}-point boundary"
            )
    pieces, saddle = crossing_complex(ring)
    piece_id = [identity_cob(ring, piece) for piece in pieces]
    pairs, left_order, piece_order = step.pairs, step.left_order, step.piece_order
    shapes, tables = glue_caches(pairs, left_order, piece_order)

    D = FilteredComplex(ring)
    info: dict = {}  # oid -> (glued object, end map) beside each piece
    new_id: dict = {}  # oid -> its ids beside each piece
    for oid in sorted(C.h, key=C.h.get):
        t, h = C.obj[oid], C.h[oid]
        glued = []
        for piece in pieces:
            key = (t.match, piece.match)
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = glue_tangles(
                    t, piece.match, pairs, left_order, piece_order
                )
            raw, end_map = shape
            qshift = t.qshift + piece.qshift
            glued.append((Tangle(raw.match, raw.circles, qshift), end_map))
        info[oid] = glued
        new_id[oid] = (
            D.add_object(h, glued[0][0]), D.add_object(h + 1, glued[1][0])
        )
    # every (source, target) pair below is written once
    for src, outs in C.out.items():
        src_info, src_ids = info[src], new_id[src]
        for tgt, f in outs.items():
            tgt_info, tgt_ids = info[tgt], new_id[tgt]
            for k in (0, 1):
                D.set_entry(src_ids[k], tgt_ids[k], glue_cobs(
                    ring, f, piece_id[k], pairs,
                    src_info[k], tgt_info[k], tables=tables,
                ))
    saddles: dict = {}  # (matching, degree parity) -> terms of the saddle entry
    for oid, t in C.obj.items():
        glued = info[oid]
        key = (t.match, C.h[oid] % 2)
        terms = saddles.get(key)
        if terms is None:
            sign = ring.neg(ring.one) if key[1] else ring.one
            terms = saddles[key] = glue_cobs(
                ring, identity_cob(ring, t), saddle, pairs, *glued, tables=tables,
            ).scaled(ring, sign).terms
        D.set_entry(*new_id[oid], Cob(glued[0][0], glued[1][0], terms))
    if DEBUG:
        D.check()
    return D


def deloop(C):
    """Replace every circled object by its two shifted circle-free halves.

    The last circle of an object t splits off as t'{+1} + t'{-1}; each
    entry into t is replaced by its (p_plus, p_minus) halves and each
    entry out of t by its (i_plus, i_minus) halves, both read off the
    entry's canonical form by ``deloop_iso``, one call per entry.  The
    halves are fresh objects, so their entries go straight into the
    indexes.  Halves with more circles go back on the queue; no id
    enters it twice, so every id popped is a live circled object.
    """
    ring = C.ring
    out, inc = C.out, C.inc
    queue = [oid for oid in sorted(C.h, key=C.h.get) if C.obj[oid].circles > 0]
    while queue:
        oid = queue.pop()
        h = C.h[oid]
        halves = C.obj[oid].halves()
        id_p = C.add_object(h, halves[0])
        id_m = C.add_object(h, halves[1])
        inc_p, inc_m = inc[id_p], inc[id_m]
        for src in inc[oid]:
            outs = out[src]
            f_plus, f_minus = deloop_iso(ring, outs[oid], TGT, halves)
            if f_plus.terms:
                outs[id_p] = f_plus
                inc_p.add(src)
            if f_minus.terms:
                outs[id_m] = f_minus
                inc_m.add(src)
        outs_p, outs_m = out[id_p], out[id_m]
        for tgt, g in out[oid].items():
            g_plus, g_minus = deloop_iso(ring, g, SRC, halves)
            if g_plus.terms:
                outs_p[tgt] = g_plus
                inc[tgt].add(id_p)
            if g_minus.terms:
                outs_m[tgt] = g_minus
                inc[tgt].add(id_m)
        C.remove_object(oid)
        if halves[0].circles:
            queue += (id_p, id_m)
    if DEBUG:
        C.check()
    return C


def drop_marked_dots(C):
    """Set the dot on the marked arc to 0 and close the arc: the reduced complex.

    Every object must be the marked arc, without circles, so an entry's
    summands are the undotted strip (mask 0) and the dotted one (mask 1,
    the arc's cycle).  The dotted ones are dropped, which is the ring map
    x -> 0 of the arc's algebra F[H, x]/(x^2 - Hx), so composition and
    elimination commute with it.  The undotted strip then composes,
    cancels and evaluates like the empty cobordism at the same grading,
    so every object becomes the empty tangle at its qshift and every
    entry a new Cob of its undotted coefficient, or none.  Raises
    InconsistentError for any other object or summand, also under
    ``python -O``.
    """
    obj = C.obj
    for oid, t in obj.items():
        if t.match != MARKED_ARC or t.circles:
            raise InconsistentError(f"object {oid} is not the marked arc: {t}")
        obj[oid] = Tangle((), 0, t.qshift)
    for a, outs in C.out.items():
        for b, f in list(outs.items()):
            if f.terms.keys() - {0, 1}:
                raise InconsistentError(
                    f"entry {a} -> {b} keeps a summand other than the undotted one"
                )
            kept = {0: f.terms[0]} if 0 in f.terms else {}
            C.set_entry(a, b, Cob(obj[a], obj[b], kept))
    return C


def cancellable_coefficient(C, a, b):
    """The unit k when the entry a -> b is k times an identity.

    Cobordism identities join equal tangles at equal qshift; every unit
    scalar counts as one.
    """
    entry = C.out[a].get(b)
    k = None if entry is None else C.entries.coefficient(entry)
    return k if k is not None and C.ring.is_unit(k) else None


def gauss_eliminate(C, a, b):
    """Cancel the pair (a, b) along a unit-identity entry.

    The remaining differential picks up the correction term composed
    through the cancelled pair; returns the updated (src, tgt) pairs.
    The scan's reductions and the s readoff both eliminate here.
    """
    k = cancellable_coefficient(C, a, b)
    if k is None:
        raise NotCancellableError(f"entry {a}->{b} is not a unit identity")
    ring = C.ring
    minus_inv = ring.neg(ring.invert(k))
    unit = minus_inv == ring.one
    comp, scale = C.entries.compose, C.entries.scale
    srcs = [s for s in C.inc[b] if s != a]
    tgts = [(t, g) for t, g in C.out[a].items() if t != b]
    touched = []
    for s in srcs:
        delta = C.out[s][b]
        for t, gamma in tgts:
            correction = comp(gamma, delta)
            if not unit:
                correction = scale(correction, minus_inv)
            C.add_to_entry(s, t, correction)
            touched.append((s, t))
    C.remove_object(a)
    C.remove_object(b)
    return touched


def reduce_pass(C, lo=-INF, hi=INF):
    """Saturate eliminations, then keep only the degrees [lo, hi].

    Candidates are unit-identity entries between objects with equal
    labels: equal tangles in the scan, equal quantum degrees once
    evaluated.  They are processed lowest homological degree first, then
    by an estimate of the fill-in they cause, then by object ids; the
    queue is revalidated lazily.  Eliminations run from one degree below
    the kept window: afterwards no such entry remains with source degree
    inside [lo - 1, hi], and every object outside [lo, hi] is removed.
    """
    def fill_estimate(a, b):
        return (len(C.inc[b]) - 1) * (len(C.out[a]) - 1)

    heap = []

    def push(a, b):
        h = C.h[a]
        if not (lo - 1 <= h <= hi):
            return
        if (C.obj[a] == C.obj[b]
                and cancellable_coefficient(C, a, b) is not None):
            heapq.heappush(heap, (h, fill_estimate(a, b), a, b))

    for a, outs in C.out.items():
        for b in outs:
            push(a, b)
    while heap:
        _h, _fill, a, b = heapq.heappop(heap)
        if a not in C.obj or b not in C.obj:
            continue
        if cancellable_coefficient(C, a, b) is None:
            continue
        touched = gauss_eliminate(C, a, b)
        for s, t in touched:
            push(s, t)
    for oid in [oid for oid, h in C.h.items() if not lo <= h <= hi]:
        C.remove_object(oid)
    if DEBUG:
        C.check()
    return C


def scan(order, ring, mode="s"):
    """Run the whole scan for one knot diagram.

    Each mode keeps the homological window [-w, w] of its half-width
    ``HALF_WIDTH[mode]``: 1 for "s", the window of the s-invariant, 2 for
    "sq1", the wider one of the Bockstein refinement, and INF for "kh",
    which keeps everything (the final complex computes the graded
    homology).  Degrees never fall, and the last n - i crossings raise
    them by at most n - i, so after step i only degrees -w - n + i to w
    can reach the final window; those are kept.  Eliminations run from
    one degree lower, -w - 1 - n + i: a pair cancelled with its source
    there removes from the lowest kept degree a cocycle that is a
    boundary, which leaves the kept differentials their images.  The
    seed is delooped first, which splits the circle of a diagram without
    crossings and leaves any other seed as it is.

    A scan in mode "s" over F2 returns the reduced complex.  Its last
    step glues the crossing by the first three of its four pairs; the
    last pair stays open as the marked point, so every object is the
    marked arc plus circles, and delooping it makes half the objects a
    closed step would.  Right after that deloop ``drop_marked_dots``
    sets the dot on the arc to 0 and closes the arc, so the complex ends
    closed like any other, and the readoff finds s at the one survivor.
    Over F2 Bar-Natan's theory splits, the closed complex being the
    reduced one tensored with the rank-2 algebra of a circle (Wigderson,
    *The Bar-Natan theory splits*, JKTR 2016; Shumakovitch, *Torsion of
    the Khovanov homology*, Fund. Math. 2014), so the reduced survivor
    sits at s where the closed ones sit at s +- 1.  Its quantum degrees
    are all even, those of a closed knot complex odd, which is how the
    readoff tells the two apart.  Every other ring and mode closes every
    pair.
    """
    if mode not in HALF_WIDTH:
        raise ValueError(f"unknown scan mode {mode!r}")
    w = HALF_WIDTH[mode]
    od = order.diagram
    n = od.pd.n
    marked = mode == "s" and ring == F2
    C = deloop(initial_complex(ring, od.n_plus, od.n_minus, marked))
    for i, step in enumerate(order.steps, start=1):
        last = marked and i == n
        if last:
            p, x = step.pairs[-1]
            step = step._replace(
                pairs=step.pairs[:-1], left_order=(p,), piece_order=(x,)
            )
        C = tensor_with_crossing(C, step)  # the last complex is freed here
        deloop(C)
        if last:
            drop_marked_dots(C)
        reduce_pass(C, -w - n + i, w)
    if any(t.match or t.circles for t in C.obj.values()):
        raise NotClosedError("scan left open objects")
    return C


def dump(C):
    """Stable debug dump: one line per generator, one per entry.

    The objects are empty tangles; the walk goes through the degrees once.
    """
    lines = []
    index: dict = {}
    count: dict = {}
    walk = sorted(C.h, key=C.h.get)
    for oid in walk:
        h = C.h[oid]
        i = index[oid] = count.get(h, 0)
        count[h] = i + 1
        lines.append(f"{h} {C.obj[oid].qshift} {i}")
    for oid in walk:
        h, i, outs = C.h[oid], index[oid], C.out[oid]
        for tgt in sorted(outs, key=index.get):
            coeff, jump = evaluate(C.ring, outs[tgt])
            lines.append(f"{h} {i} {index[tgt]} {coeff} {jump // 2}")
    return "\n".join(lines) + "\n"
