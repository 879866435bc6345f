"""Checks and reference paths that only the tests use.

``canon`` and ``strictly_raising`` state properties of the library's
values and complexes; ``two_scan_refine`` is the Sq1 refinement computed
from two scans (the diagram and its mirror), the cross-check for the
one-scan path through the dual complex.  ``cancel_below`` is steps 9-10
of the s readoff worked from below, the oracle for the readoff that runs
them as steps 7-8 on the dual complex.  ``deloop_maps`` reads the four
delooping maps off an identity through ``cob.deloop_iso``;
``neck_cut_deloop_maps`` builds them as surfaces, its oracle.

The rest is the oracle of the cobordism products: the reduction in comps
form, where a summand is keyed by ``(comps, hpow)`` and ``comps`` is the
sorted tuple of its discs ``(ends, dot)``, each ``ends`` the sorted ends
of one boundary cycle.  An end is ``(side, kind, index)``: side ``SRC``
or ``TGT``, kind ``ARC`` or ``CIRCLE``, and the index of the arc (in the
order of ``arcs``) or of the circle.  ``shape_cycles`` sorts the cycles
of a shape by their ends, which is the order of the dot mask bits of
``cob.Cob``.  Every pair of summands is glued and reduced from scratch,
with no plan or table, and the oracle counts the powers of H itself;
gluing beside a crossing names the glued ends through
``reference_glue``, not through the end map of ``cob.glue_tangles``.
``comps_of`` and ``cob_from_comps`` convert between that form and the
dot masks of ``cob.Cob``, whose power of H the grading implies
(``graded_hpow``); ``cob_from_comps`` refuses a summand whose counted
power differs from it.

``reference_scan_order`` is the scan order's oracle: the plain search
that tests every unplaced crossing at every step and, for its one-step
lookahead, glues every next candidate in full.  ``seifert_circles``
counts the circles of a diagram's oriented smoothing, for the bounds
that the diagram puts on s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from bnscan.cob import (
    SRC,
    TGT,
    Cob,
    Tangle,
    deloop_iso,
    glue_tangles,
    identity_cob,
)
from bnscan.coeff import Q, Z, Z4, Modular
from bnscan.complex import InconsistentError, gauss_eliminate, scan
from bnscan.diagram import (
    _BACKTRACK_BUDGET,
    NotAKnotError,
    ScanOrder,
    ScanStep,
    mirror_pd,
    orient_and_sign,
    scan_order,
    without_kinks,
)
from bnscan.sq1 import Sq1Quadruple, half_refinement_from_based


# The kind of a surface end: an arc of a tangle, or one of its circles.
ARC, CIRCLE = 0, 1


def canon(ring, a):
    """The canonical representative of ``a`` in a ring of ``bnscan.coeff``."""
    if isinstance(ring, Modular):
        return a % ring.m
    if ring is Q:
        return Fraction(a)
    if ring is Z:
        return int(a)
    raise ValueError(f"no canonical form for {ring!r}")


def arcs(t):
    """The arcs of a tangle as (p, q) pairs with p < q, ordered by p."""
    return tuple((p, q) for p, q in enumerate(t.match) if p < q)


def seifert_circles(od):
    """The number of Seifert circles of an oriented diagram.

    Each crossing is smoothed the oriented way: leg 0, the incoming
    under-strand, joins the outgoing over-leg, and the incoming over-leg
    joins leg 2.  The over-strand enters at leg 1 when the sign is +1,
    else at leg 3.  The circles are the classes of edge labels under
    these joins.
    """
    parent: dict = {}

    def find(e):
        while parent.setdefault(e, e) != e:
            e = parent[e]
        return e

    for legs, sign in zip(od.pd.crossings, od.signs):
        over_in, over_out = (1, 3) if sign > 0 else (3, 1)
        for x, y in ((0, over_out), (over_in, 2)):
            parent[find(legs[x])] = find(legs[y])
    return len({find(e) for e in parent})


def strictly_raising(C):
    """Does every entry of a scan's based complex raise the quantum degree?"""
    return all(C.q[b] > C.q[a] for a, outs in C.out.items() for b in outs)


def cancel_below(D):
    """Steps 9-10: kill the coboundary into homological degree 0.

    The lowest quantum degree hit from degree -1 goes first, each
    against its lowest-q unit source.  Two generators survive in degree
    0, or one in a reduced complex, whose quantum degrees are all even.
    """
    while True:
        hit = sorted(
            {t for s in D.objects_at(-1) for t in D.out[s]},
            key=lambda t: (D.q[t], t),
        )
        if not hit:
            break
        g = hit[0]
        partner = min(
            (s for s in D.inc[g] if D.ring.is_unit(D.out[s][g])),
            key=lambda s: (D.q[s], s),
            default=None,
        )
        if partner is None:
            raise InconsistentError(
                "no unit partner below; is the ground ring a field?"
            )
        gauss_eliminate(D, partner, g)
    want = 1 if all(q % 2 == 0 for q in D.q.values()) else 2
    if len(D.objects_at(0)) != want:
        raise InconsistentError(
            f"expected {want} surviving generators, found {len(D.objects_at(0))}"
        )
    return D


def _half_refinement(pd):
    order = scan_order(orient_and_sign(pd))
    return half_refinement_from_based(scan(order, Z4, "sq1"))


def two_scan_refine(pd):
    """(s over F2, quadruple), the negative pair from the mirror's own scan."""
    s_f2, r_plus, s_plus = _half_refinement(pd)
    s_m, r_plus_m, s_plus_m = _half_refinement(mirror_pd(pd))
    assert s_m == -s_f2, (pd.name, s_f2, s_m)
    return s_f2, Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)


def deloop_maps(ring, t):
    """(p_plus, p_minus, i_plus, i_minus) for the last circle of t."""
    ident = identity_cob(ring, t)
    halves = t.halves()
    return deloop_iso(ring, ident, TGT, halves) + deloop_iso(ring, ident, SRC, halves)


def neck_cut_deloop_maps(ring, t):
    """The delooping maps of the last circle of t, built as surfaces.

    Returns ((t_plus, t_minus), (p_plus, p_minus, i_plus, i_minus)) with
    p_plus = dotted death - H death, p_minus = death, i_plus = birth and
    i_minus = dotted birth; strips and annuli run along the rest of t.
    """
    t_plus, t_minus = t.halves()
    k = t_plus.circles
    cylinders = [({(SRC, ARC, i), (TGT, ARC, i)}, 0, 1) for i in range(len(arcs(t)))]
    cylinders += [({(SRC, CIRCLE, j), (TGT, CIRCLE, j)}, 0, 0) for j in range(k)]

    def build(src, tgt, side, variants):
        terms: dict = {}
        for dot, hpow, coeff in variants:
            disc = ({(side, CIRCLE, k)}, dot, 1)
            reduce_groups(
                ring, cylinders + [disc], ring.from_int(coeff), hpow, src, tgt, terms
            )
        return cob_from_comps(src, tgt, terms)

    return (t_plus, t_minus), (
        build(t, t_plus, SRC, [(1, 0, 1), (0, 1, -1)]),
        build(t, t_minus, SRC, [(0, 0, 1)]),
        build(t_plus, t, TGT, [(0, 0, 1)]),
        build(t_minus, t, TGT, [(1, 0, 1)]),
    )


# --- the comps form --------------------------------------------------------


def graded_hpow(src, tgt, dots):
    """The power of H of a canonical summand src -> tgt with ``dots`` dots.

    H has quantum degree -2, so with c boundary cycles, n boundary
    points and d = tgt.qshift - src.qshift the grading gives
    h = (c - n/2 + d)/2 - dots.  Raises ValueError when that is not a
    whole number at least 0.
    """
    c = len(shape_cycles(src, tgt))
    twice = c - src.n_points // 2 + tgt.qshift - src.qshift - 2 * dots
    if twice % 2 or twice < 0:
        raise ValueError(f"no power of H fits {dots} dots on {src} -> {tgt}")
    return twice // 2


def comps_of(f):
    """The terms of the Cob f keyed by (comps, hpow)."""
    cycles = shape_cycles(f.src, f.tgt)
    return {
        (
            tuple((cyc, mask >> i & 1) for i, cyc in enumerate(cycles)),
            graded_hpow(f.src, f.tgt, mask.bit_count()),
        ): c
        for mask, c in f.terms.items()
    }


def cob_from_comps(src, tgt, terms):
    """The Cob src -> tgt of comps-keyed terms.

    Raises ValueError on a summand that is not in canonical form: one
    undotted or once-dotted disc on every boundary cycle of the shape,
    at the power of H that the grading gives it.
    """
    cycles = shape_cycles(src, tgt)
    out = {}
    for (comps, hpow), c in terms.items():
        if tuple(ends for ends, _dot in comps) != cycles:
            raise ValueError(f"summand {comps} is not one disc per cycle {cycles}")
        if any(dot not in (0, 1) for _ends, dot in comps):
            raise ValueError(f"summand {comps} has a disc with two dots")
        dots = [dot for _ends, dot in comps]
        graded = graded_hpow(src, tgt, sum(dots))
        if hpow != graded:
            raise ValueError(
                f"summand {comps} at H^{hpow}, the grading gives H^{graded}"
            )
        out[sum(dot << i for i, dot in enumerate(dots))] = c
    return Cob(src, tgt, out)


@lru_cache(maxsize=None)
def expand(genus, b, dots):
    """Expand a connected component into canonical per-cycle discs.

    Returns a dict (pattern, hpow) -> integer coefficient where
    ``pattern`` assigns a dot flag to each of the ``b`` boundary cycles in
    order.  Handles are cut first, then separating necks isolate each
    boundary cycle; the empty pattern covers closed components.
    """
    if genus > 0:
        out: dict = {}
        for (pat, h), c in expand(genus - 1, b, dots + 1).items():
            out[(pat, h)] = out.get((pat, h), 0) + 2 * c
        for (pat, h), c in expand(genus - 1, b, dots).items():
            out[(pat, h + 1)] = out.get((pat, h + 1), 0) - c
        return {k: c for k, c in out.items() if c}
    if b == 0:
        return {} if dots == 0 else {((), dots - 1): 1}
    if b == 1:
        if dots == 0:
            return {((0,), 0): 1}
        return {((1,), dots - 1): 1}
    out = {}
    for (pat, h), c in expand(0, b - 1, dots).items():
        out[((1,) + pat, h)] = out.get(((1,) + pat, h), 0) + c
    for (pat, h), c in expand(0, b - 1, dots + 1).items():
        out[((0,) + pat, h)] = out.get(((0,) + pat, h), 0) + c
    for (pat, h), c in expand(0, b - 1, dots).items():
        out[((0,) + pat, h + 1)] = out.get(((0,) + pat, h + 1), 0) - c
    return {k: c for k, c in out.items() if c}


def cycles_of(ends, src, tgt):
    """Partition surface ends into boundary cycles.

    Arc ends chain through vertical boundary lines into cycles of the
    2-regular graph whose edges are the source and target arcs; each
    circle end forms a cycle of its own.  Returns a sorted tuple of
    sorted end tuples.
    """
    arc_of_src = {}
    arc_of_tgt = {}
    spos, tpos = set(), set()
    singles = []
    for end in ends:
        side, kind, idx = end
        if kind == CIRCLE:
            singles.append((end,))
            continue
        t = src if side == SRC else tgt
        p, q = arcs(t)[idx]
        if side == SRC:
            arc_of_src[p] = arc_of_src[q] = end
            spos.update((p, q))
        else:
            arc_of_tgt[p] = arc_of_tgt[q] = end
            tpos.update((p, q))
    if spos != tpos:
        raise AssertionError("component arcs do not pair up across the boundary")
    cycles = list(singles)
    visited = set()
    for p0 in sorted(spos):
        if p0 in visited:
            continue
        cyc = set()
        p, on_src = p0, True
        while True:
            visited.add(p)
            cyc.add(arc_of_src[p] if on_src else arc_of_tgt[p])
            p = (src.match if on_src else tgt.match)[p]
            visited.add(p)
            on_src = not on_src
            if p == p0 and on_src:
                break
        cycles.append(tuple(sorted(cyc)))
    return tuple(sorted(cycles))


@lru_cache(maxsize=None)
def shape_cycles(src, tgt):
    """The boundary cycles of src -> tgt: ``cycles_of`` all their ends."""
    ends = [
        (side, kind, i)
        for side, t in ((SRC, src), (TGT, tgt))
        for kind, count in ((ARC, len(arcs(t))), (CIRCLE, t.circles))
        for i in range(count)
    ]
    return cycles_of(ends, src, tgt)


def reduce_groups(ring, groups, coeff, hpow, src, tgt, out_terms):
    """Reduce connected surfaces into canonical comps-keyed summands.

    ``groups`` is a list of (set of ends, dots, chi).  Each group is
    split into its boundary cycles, its genus recovered from the Euler
    characteristic, and the neck-cutting expansion applied; the
    cartesian product of per-group alternatives is added into out_terms
    with ring coefficients.
    """
    alternatives = []
    for ends, dots, chi in groups:
        cycles = cycles_of(tuple(ends), src, tgt)
        defect = 2 - chi - len(cycles)
        if defect % 2 or defect < 0:
            raise AssertionError(f"bad Euler bookkeeping: chi={chi} b={len(cycles)}")
        expansion = expand(defect // 2, len(cycles), dots)
        if not expansion:
            return
        alternatives.append([
            (tuple(zip(cycles, pattern)), dh, c)
            for (pattern, dh), c in expansion.items()
        ])
    partial = [((), hpow, coeff)]
    for alts in alternatives:
        partial = [
            (comps + comp, h0 + dh, ring.mul(c0, ring.from_int(f)))
            for comps, h0, c0 in partial
            for comp, dh, f in alts
        ]
    for comps, h, c in partial:
        key = (tuple(sorted(comps)), h)
        v = ring.add(out_terms.get(key, ring.zero), c)
        if ring.is_zero(v):
            out_terms.pop(key, None)
        else:
            out_terms[key] = v


def glue_summands(ring, parts, seams, coeff, hpow, src, tgt, out):
    """Glue canonical discs along seams and reduce into out.

    ``parts`` lists discs ``(ends, dot)`` whose ends are already named on
    the boundary of the result src -> tgt; ``seams`` lists ``(i, j, arc)``
    for each interface line joining part i to part j.  Every part has
    Euler characteristic 1; an arc seam glues along an interval and
    subtracts one, a circle seam glues along a circle and subtracts
    nothing.
    """
    parent = list(range(len(parts)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j, _arc in seams:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict = {}
    for i, (ends, dot) in enumerate(parts):
        group = groups.setdefault(find(i), [set(), 0, 0])
        group[0].update(ends)
        group[1] += dot
        group[2] += 1
    for i, _j, arc in seams:
        if arc:
            groups[find(i)][2] -= 1
    reduce_groups(ring, list(groups.values()), coeff, hpow, src, tgt, out)


def compose_comps(ring, g, f):
    """g after f in comps form, every summand pair reduced from scratch.

    The parts are the discs of f, then those of g, each keeping its ends
    off the middle tangle; every arc and circle of the middle is a seam.
    """
    mid = f.tgt
    out: dict = {}
    g_terms = comps_of(g).items()
    for (fcomps, fh), fc in comps_of(f).items():
        for (gcomps, gh), gc in g_terms:
            coeff = ring.mul(fc, gc)
            if ring.is_zero(coeff):
                continue
            parts = []
            f_owner, g_owner = {}, {}  # (kind, idx) on mid -> part
            for comps, keep, owner in ((fcomps, SRC, f_owner), (gcomps, TGT, g_owner)):
                for ends, dot in comps:
                    for side, kind, idx in ends:
                        if side != keep:
                            owner[(kind, idx)] = len(parts)
                    parts.append(([e for e in ends if e[0] == keep], dot))
            seams = [
                (f_owner[(kind, idx)], g_owner[(kind, idx)], kind == ARC)
                for kind, count in ((ARC, len(arcs(mid))), (CIRCLE, mid.circles))
                for idx in range(count)
            ]
            glue_summands(ring, parts, seams, coeff, fh + gh, f.src, g.tgt, out)
    return out


def glued_at(t, piece, pairs, left_order, piece_order):
    """``glue_tangles`` of t and a crossing piece, with the glued tangle
    at t.qshift + piece.qshift, where the scan's tensor step puts it."""
    glued, end_map = glue_tangles(t, piece.match, pairs, left_order, piece_order)
    return glued._replace(qshift=t.qshift + piece.qshift), end_map


def reference_glue(left, piece_match, pairs, left_order, piece_order):
    """The gluing of ``cob.glue_tangles``, found by a union of strands.

    The points are ``("b", p)`` for the left positions and ``("x", x)``
    for the legs of the piece; every arc and every glued pair joins two
    of them, and each class is a strand.  A strand with surviving points
    is an arc of the glued tangle between their new positions, which
    ``left_order`` and then ``piece_order`` give.  The others are closed
    and become new circles after the left ones, in order of the least
    position on their arcs, each read on its own side (a left position
    p or a leg x), ties by the least left position.  Returns the glued
    Tangle (qshift 0) and the end map from ``(tag, kind, index)`` of an
    arc or left circle to ``(kind, index)`` on the glued tangle.
    """
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    def join(a, b):
        parent[find(a)] = find(b)

    sides = {"b": left.match, "x": piece_match}
    for tag, match in sides.items():
        for p, q in enumerate(match):
            join((tag, p), (tag, q))
    for p, x in pairs:
        join(("b", p), ("x", x))
    new_pos = {("b", p): i for i, p in enumerate(left_order)}
    new_pos.update(
        (("x", x), len(left_order) + i) for i, x in enumerate(piece_order)
    )
    strands: dict = {}
    for point in parent:
        strands.setdefault(find(point), []).append(point)
    new_match = [None] * len(new_pos)
    closed = []
    for root, points in strands.items():
        ends = sorted(new_pos[a] for a in points if a in new_pos)
        if ends:
            a, b = ends
            new_match[a], new_match[b] = b, a
        else:
            low = min(p for _tag, p in points)
            first = min(p for tag, p in points if tag == "b")
            closed.append((low, first, root))
    glued = Tangle(tuple(new_match), left.circles + len(closed))
    dest = {
        root: (CIRCLE, i)
        for i, (_low, _first, root) in enumerate(sorted(closed), left.circles)
    }
    point_at = {pos: a for a, pos in new_pos.items()}
    for i, (p, _q) in enumerate(arcs(glued)):
        dest[find(point_at[p])] = (ARC, i)
    end_map = {("b", CIRCLE, j): (CIRCLE, j) for j in range(left.circles)}
    for tag, match in sides.items():
        for i, (p, _q) in enumerate(arcs(Tangle(match))):
            end_map[tag, ARC, i] = dest[find((tag, p))]
    return glued, end_map


def glue_comps(ring, f, phi, pairs, left_order, piece_order):
    """f glued beside phi in comps form, every summand pair from scratch.

    The discs of both factors are named on the boundary that
    ``reference_glue`` glues on each side; each glued pair is an arc
    seam.
    """
    (new_src, src_map), (new_tgt, tgt_map) = (
        reference_glue(t, piece.match, pairs, left_order, piece_order)
        for t, piece in ((f.src, phi.src), (f.tgt, phi.tgt))
    )
    emaps = (src_map, tgt_map)  # indexed by side
    out: dict = {}
    phi_terms = comps_of(phi).items()
    for (fcomps, fh), fc in comps_of(f).items():
        for (pcomps, ph), pc in phi_terms:
            coeff = ring.mul(fc, pc)
            if ring.is_zero(coeff):
                continue
            parts = []
            owner = {}  # ("b" | "x", source position) -> part
            for tag, t, comps in (("b", f.src, fcomps), ("x", phi.src, pcomps)):
                for ends, dot in comps:
                    for side, kind, idx in ends:
                        if side == SRC and kind == ARC:
                            for pos in arcs(t)[idx]:
                                owner[(tag, pos)] = len(parts)
                    named = [(sd,) + emaps[sd][(tag, kd, ix)] for sd, kd, ix in ends]
                    parts.append((named, dot))
            seams = [(owner[("b", p)], owner[("x", x)], True) for p, x in pairs]
            glue_summands(ring, parts, seams, coeff, fh + ph, new_src, new_tgt, out)
    return out


# --- the scan order's oracle -----------------------------------------------


def _contiguous_interface(boundary, legs):
    """Find a contiguous gluing of a crossing onto the boundary cycle.

    The glued labels must form a contiguous run of the boundary whose
    reverse is a contiguous run of the crossing's cyclic legs.  Returns
    (pairs, left_order, piece_order) or None.
    """
    shared = [e for e in legs if e in boundary]
    shared_set = set(shared)
    if not shared_set or len(shared) != len(shared_set):
        return None
    m, k = len(boundary), len(shared_set)
    for r in range(m):
        run = [boundary[(r + i) % m] for i in range(k)]
        if set(run) != shared_set:
            continue
        for s in range(4):
            leg_run = [legs[(s + i) % 4] for i in range(k)]
            if leg_run != run[::-1]:
                continue
            pairs = tuple(((r + i) % m, (s + k - 1 - i) % 4) for i in range(k))
            left_order = tuple((r + k + i) % m for i in range(m - k))
            piece_order = tuple((s + k + i) % 4 for i in range(4 - k))
            return pairs, left_order, piece_order
    return None


# The interface of the first crossing: nothing glued, legs in their order.
FIRST_INTERFACE = ((), (), (0, 1, 2, 3))


def _glued_boundary(boundary, legs, iface):
    _pairs, left_order, piece_order = iface
    return tuple(boundary[p] for p in left_order) + tuple(
        legs[x] for x in piece_order
    )


def reference_scan_order(od):
    """The scan order by exhaustive candidate tests, for comparison.

    Greedy with one step of lookahead, ties broken by crossing index,
    backtracking within ``_BACKTRACK_BUDGET``: every unplaced crossing is
    tried at every step, and every lookahead glues each next candidate.
    Like the scan order it searches ``without_kinks(od)``.
    """
    od = without_kinks(od)
    pd = od.pd
    n = pd.n
    if n == 0:
        return ScanOrder(od, ())

    def candidates(done, boundary):
        out = []
        for ci in range(n):
            if ci in done:
                continue
            legs = pd.crossings[ci]
            if not done:
                out.append((ci, FIRST_INTERFACE))
            else:
                iface = _contiguous_interface(boundary, legs)
                if iface is not None:
                    out.append((ci, iface))
        return out

    def score(boundary, ci, iface, done):
        bnd = _glued_boundary(boundary, pd.crossings[ci], iface)
        done2 = done | {ci}
        best_next = len(bnd)
        if len(done2) < n:
            nxt = candidates(done2, bnd)
            if nxt:
                best_next = min(
                    len(_glued_boundary(bnd, pd.crossings[cj], ifc))
                    for cj, ifc in nxt
                )
        return (len(bnd), best_next, ci)

    def ranked(done, boundary):
        cands = candidates(done, boundary)
        cands.sort(key=lambda item: score(boundary, item[0], item[1], done))
        return iter(cands)

    steps = []
    frames = [(frozenset(), (), ranked(frozenset(), ()))]
    backtracks = deepest = 0
    while frames:
        done, boundary, untried = frames[-1]
        nxt = next(untried, None)
        if nxt is not None:
            ci, iface = nxt
            bnd = _glued_boundary(boundary, pd.crossings[ci], iface)
            steps.append(ScanStep(ci, boundary, bnd, *iface))
            done2 = done | {ci}
            deepest = max(deepest, len(done2))
            if len(done2) < n:
                frames.append((done2, bnd, ranked(done2, bnd)))
                continue
            if not bnd:
                return ScanOrder(od, tuple(steps))
        else:
            frames.pop()
            if not steps:
                break
        steps.pop()
        backtracks += 1
        if backtracks > _BACKTRACK_BUDGET:
            raise NotAKnotError(
                f"no planar scan order found: gave up after {_BACKTRACK_BUDGET} "
                f"backtracks, having placed at most {deepest} of {n} crossings "
                "(is the PD planar?)"
            )
    raise NotAKnotError("no planar scan order found (is the PD planar?)")
