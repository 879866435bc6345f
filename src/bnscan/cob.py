"""The quotient dotted-cobordism category over a disc.

Objects are crossingless tangles (a non-crossing perfect matching of
boundary points, a count of closed circles, and a quantum shift).
Morphisms are K-linear combinations of reduced dotted surfaces in a
canonical form: every surface component is a disc bounded by a single
boundary cycle, carrying at most one dot; closed components are
evaluated away and twice-dotted spheres are absorbed into an ``hpow``
counter which doubles as the quantum-degree jump bookkeeping.

Reduction uses the local relations: an undotted sphere is 0, a
once-dotted sphere is 1, two dots on a component cost one H, and
neck-cutting trades a handle or a connecting tube for ``dot-on-one-side
+ dot-on-other-side - H*(disconnected)``.  Since the boundary cycles of
a morphism are determined by its endpoints, the canonical summands are
exactly the dot patterns on cycles times powers of H; equality of
morphisms is equality of these patterns.  H is never destructively set
to 1, so the same engine serves both the plain and the deformed complex.

Both products, ``compose`` (stacking along the middle tangle) and
``glue_cobs`` (side by side, beside a crossing piece), reduce a pair of
summands by one routine.  Every disc of either summand becomes a part,
its ends renamed onto the result's boundary, and every interface line
joining two parts becomes a seam.  Parts joined by seams merge into one
surface; all parts are discs (Euler characteristic 1), an arc seam
lowers the characteristic by one and a circle seam leaves it, which
fixes each surface's genus for the neck-cutting expansion.

The reduction of a glued pair of summands depends only on the summands
and the shapes (matching and circle count, not the quantum shift) of the
tangles involved, so it is made once, with coefficient 1 over the
integers, and kept in a table; a ring applies it through ``from_int``.
``compose`` keeps one table for the process, keyed by the shapes of its
source, middle and target and then by the summand pair.  ``glue_cobs``
takes its tables from the caller, because the result also depends on
the gluing interface: the scan keeps them for one tensor step.  The
identity is kept per tangle shape, and the canonical component tuples
are interned, so that the tables and the live cobordisms share one
object per pattern.

Delooping reads the canonical form and makes no product: every circle
bounds a disc of its own in each summand, and each delooping map only
caps that disc into a sphere, so ``deloop_iso`` keeps or drops each
summand by the dot on the disc.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import Z


class MismatchError(ValueError):
    """Cobordisms, or a gluing interface, whose boundary objects differ."""


class NoCircleError(ValueError):
    """Delooping requested on a tangle without circles."""


class NotClosedError(ValueError):
    """An empty tangle was needed; one with boundary points or circles came."""


class Tangle:
    """A crossingless tangle in the disc with a quantum shift.

    ``match`` is an involution on boundary positions 0..n-1 describing the
    arcs; ``circles`` counts closed components (kept only transiently,
    complexes store delooped objects); ``qshift`` is the quantum grading.
    """

    __slots__ = ("match", "circles", "qshift", "_arcs", "_arcidx")

    def __init__(self, match, circles=0, qshift=0):
        self.match = tuple(match)
        self.circles = circles
        self.qshift = qshift
        self._arcs = None
        self._arcidx = None

    @property
    def n_points(self):
        return len(self.match)

    def arcs(self):
        """Arcs as (p, q) pairs with p < q, ordered by p."""
        if self._arcs is None:
            self._arcs = tuple((p, q) for p, q in enumerate(self.match) if p < q)
        return self._arcs

    def arc_index(self, p):
        """Index in arcs() of the arc with an endpoint at position p."""
        if self._arcidx is None:
            idx = {}
            for i, (a, b) in enumerate(self.arcs()):
                idx[a] = i
                idx[b] = i
            self._arcidx = idx
        return self._arcidx[p]

    def shifted(self, dq):
        return Tangle(self.match, self.circles, self.qshift + dq)

    def drop_last_circle(self):
        if self.circles < 1:
            raise NoCircleError("tangle has no circle")
        return Tangle(self.match, self.circles - 1, self.qshift)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tangle):
            return NotImplemented
        return (
            self.circles == other.circles
            and self.qshift == other.qshift
            and self.match == other.match
        )

    def __hash__(self):
        return hash((self.match, self.circles, self.qshift))

    def __repr__(self):
        return f"Tangle(match={self.match}, circles={self.circles}, q={self.qshift})"


# Surface ends are (side, kind, index): side 0 = source, 1 = target;
# kind 0 = arc, 1 = circle; index into arcs() or the circle numbering.
ARC, CIRCLE = 0, 1
SRC, TGT = 0, 1


@lru_cache(maxsize=None)
def _expand(genus, b, dots):
    """Expand a connected component into canonical per-cycle discs.

    Returns a dict (pattern, hpow) -> integer coefficient where
    ``pattern`` assigns a dot flag to each of the ``b`` boundary cycles in
    order.  Handles are cut first, then separating necks isolate each
    boundary cycle; the empty pattern covers closed components.
    """
    if genus > 0:
        out: dict = {}
        for (pat, h), c in _expand(genus - 1, b, dots + 1).items():
            out[(pat, h)] = out.get((pat, h), 0) + 2 * c
        for (pat, h), c in _expand(genus - 1, b, dots).items():
            out[(pat, h + 1)] = out.get((pat, h + 1), 0) - c
        return {k: c for k, c in out.items() if c}
    if b == 0:
        return {} if dots == 0 else {((), dots - 1): 1}
    if b == 1:
        if dots == 0:
            return {((0,), 0): 1}
        return {((1,), dots - 1): 1}
    out = {}
    for (pat, h), c in _expand(0, b - 1, dots).items():
        out[((1,) + pat, h)] = out.get(((1,) + pat, h), 0) + c
    for (pat, h), c in _expand(0, b - 1, dots + 1).items():
        out[((0,) + pat, h)] = out.get(((0,) + pat, h), 0) + c
    for (pat, h), c in _expand(0, b - 1, dots).items():
        out[((0,) + pat, h + 1)] = out.get(((0,) + pat, h + 1), 0) - c
    return {k: c for k, c in out.items() if c}


def _cycles(ends, src, tgt):
    """Partition component ends into boundary cycles.

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
        p, q = t.arcs()[idx]
        if side == SRC:
            arc_of_src[p] = end
            arc_of_src[q] = end
            spos.update((p, q))
        else:
            arc_of_tgt[p] = end
            arc_of_tgt[q] = end
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


class Cob:
    """A K-linear combination of canonical dotted surfaces src -> tgt.

    ``terms`` maps a summand key ``(comps, hpow)`` to a nonzero
    coefficient, where ``comps`` is a sorted tuple of disc components
    ``(ends, dot)`` and ``ends`` is a sorted tuple of surface ends
    forming one boundary cycle.
    """

    __slots__ = ("src", "tgt", "terms")

    def __init__(self, src, tgt, terms=None):
        self.src = src
        self.tgt = tgt
        self.terms = terms if terms is not None else {}

    def is_zero(self):
        return not self.terms

    def degree(self):
        return self.tgt.qshift - self.src.qshift

    def scaled(self, ring, k):
        if ring.is_zero(k):
            return Cob(self.src, self.tgt)
        return Cob(
            self.src, self.tgt, {s: ring.mul(c, k) for s, c in self.terms.items()}
        )

    def plus(self, ring, other):
        if other.src != self.src or other.tgt != self.tgt:
            raise MismatchError("adding cobordisms between different objects")
        terms = dict(self.terms)
        for s, c in other.terms.items():
            v = ring.add(terms.get(s, ring.zero), c)
            if ring.is_zero(v):
                terms.pop(s, None)
            else:
                terms[s] = v
        return Cob(self.src, self.tgt, terms)

    def identity_coefficient(self):
        """The k with self == k * id, or None.

        In canonical form a degree-0 dot-free summand between equal
        circle-free tangles must consist of strips, so a single shape
        comparison suffices.
        """
        if self.src != self.tgt or len(self.terms) != 1:
            return None
        (comps, hpow), k = next(iter(self.terms.items()))
        if hpow != 0 or comps != _strip_comps(self.src.match):
            return None
        return k

    def __repr__(self):
        return f"Cob({len(self.terms)} terms, {self.src} -> {self.tgt})"


@lru_cache(maxsize=None)
def _strip_comps(match):
    return _intern(tuple(
        sorted((((SRC, ARC, i), (TGT, ARC, i)), 0) for i in range(len(match) // 2))
    ))


@lru_cache(maxsize=None)
def _identity_summands(match, circles):
    """Vertical strips on the arcs and annuli on the circles, reduced."""
    t = Tangle(match, circles)
    groups = [({(SRC, ARC, i), (TGT, ARC, i)}, 0, 1) for i in range(len(t.arcs()))]
    groups += [({(SRC, CIRCLE, j), (TGT, CIRCLE, j)}, 0, 0) for j in range(circles)]
    terms: dict = {}
    _finalize_groups(Z, groups, 1, 0, t, t, terms)
    return _as_summands(terms)


def identity_cob(ring, t):
    """The identity; circles are stored in exploded canonical form."""
    terms: dict = {}
    _add_summands(ring, terms, _identity_summands(t.match, t.circles), ring.one, 0)
    return Cob(t, t, terms)


# One object per canonical component tuple, shared by the tables and the
# terms of live cobordisms.
_CANONICAL: dict = {}


def _intern(comps):
    return _CANONICAL.setdefault(comps, comps)


def _finalize_groups(ring, groups, coeff, hpow, src, tgt, out_terms):
    """Canonicalize merged component groups and fold them into out_terms.

    ``groups`` is a list of (set of ends, dots, chi).  Each group is
    split into its boundary cycles, its genus recovered from the Euler
    bookkeeping, and the neck-cutting expansion applied; the cartesian
    product of per-group alternatives is accumulated with ring
    coefficients.
    """
    alternatives = []
    for ends, dots, chi in groups:
        cycles = _cycles(tuple(ends), src, tgt)
        b = len(cycles)
        defect = 2 - chi - b
        if defect % 2 or defect < 0:
            raise AssertionError(f"bad Euler bookkeeping: chi={chi} b={b}")
        expansion = _expand(defect // 2, b, dots)
        if not expansion:
            return
        alts = []
        for (pattern, dh), c in expansion.items():
            comps = tuple(zip(cycles, pattern))
            alts.append((comps, dh, c))
        alternatives.append(alts)

    partial = [((), hpow, coeff)]
    for alts in alternatives:
        nxt = []
        for comps, h0, c0 in partial:
            for comp, dh, f in alts:
                c = c0 if f == 1 else ring.mul(c0, ring.from_int(f))
                if ring.is_zero(c):
                    continue
                nxt.append((comps + comp, h0 + dh, c))
        partial = nxt
        if not partial:
            return
    for comps, h, c in partial:
        key = (_intern(tuple(sorted(comps))), h)
        v = ring.add(out_terms.get(key, ring.zero), c)
        if ring.is_zero(v):
            out_terms.pop(key, None)
        else:
            out_terms[key] = v


def _glue_summands(ring, parts, seams, coeff, hpow, src, tgt, out):
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
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _arc in seams:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict = {}
    for i, (ends, dot) in enumerate(parts):
        r = find(i)
        group = groups.get(r)
        if group is None:
            groups[r] = [set(ends), dot, 1]
        else:
            group[0].update(ends)
            group[1] += dot
            group[2] += 1
    for i, _j, arc in seams:
        if arc:
            groups[find(i)][2] -= 1
    _finalize_groups(
        ring, [groups[r] for r in sorted(groups)], coeff, hpow, src, tgt, out
    )


# ---------------------------------------------------------------------------
# Shape-keyed tables.  A table maps a pair of summand patterns (the comps
# of one summand of each factor) to the canonical summands (comps, dh, v)
# of their reduction with coefficient 1 and hpow 0, v a nonzero integer.
# Applying it to ring coefficients goes through ``ring.from_int``, a ring
# homomorphism, so the integer tables serve every ring.


def _as_summands(terms):
    return tuple((comps, dh, v) for (comps, dh), v in terms.items())


def _tabled_product(ring, f, g, tables, shape, reduce_pair):
    """Sum the tabled reductions of all summand pairs of f and g.

    ``tables[shape]`` is the table of this product's shapes.
    ``reduce_pair(fcomps, gcomps, out)`` reduces one pair over Z with
    coefficient 1 and hpow 0; it runs only on a table miss.
    """
    table = tables.get(shape)
    if table is None:
        table = tables[shape] = {}
    out: dict = {}
    for (fcomps, fh), fc in f.terms.items():
        for (gcomps, gh), gc in g.terms.items():
            coeff = ring.mul(fc, gc)
            if ring.is_zero(coeff):
                continue
            summands = table.get((fcomps, gcomps))
            if summands is None:
                terms: dict = {}
                reduce_pair(fcomps, gcomps, terms)
                summands = table[(fcomps, gcomps)] = _as_summands(terms)
            _add_summands(ring, out, summands, coeff, fh + gh)
    return out


def _add_summands(ring, out, summands, coeff, hpow):
    """Add coeff * H^hpow times the integer summands into the terms out."""
    for comps, dh, v in summands:
        c = coeff if v == 1 else ring.mul(coeff, ring.from_int(v))
        key = (comps, hpow + dh)
        old = out.get(key)
        if old is not None:
            c = ring.add(old, c)
        if ring.is_zero(c):
            out.pop(key, None)
        else:
            out[key] = c


def _compose_pair(ring, fcomps, gcomps, coeff, hpow, src, mid, tgt, out):
    """Glue a summand of src -> mid to one of mid -> tgt and reduce into out.

    The parts are the discs of f, then those of g, each keeping its ends
    off mid; every arc and circle of mid is a seam.
    """
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
        for kind, count in ((ARC, len(mid.arcs())), (CIRCLE, mid.circles))
        for idx in range(count)
    ]
    _glue_summands(ring, parts, seams, coeff, hpow, src, tgt, out)


# (src, mid, tgt shapes) -> {(fcomps, gcomps): summands}, for the process.
_COMPOSE_TABLES: dict = {}


def compose(ring, g, f):
    """g after f; summands are glued along the middle object and reduced."""
    if f.tgt != g.src:
        raise MismatchError(f"cannot compose through {f.tgt} vs {g.src}")
    src, mid, tgt = f.src, f.tgt, g.tgt
    shape = (src.match, src.circles, mid.match, mid.circles, tgt.match, tgt.circles)

    def reduce_pair(fcomps, gcomps, out):
        _compose_pair(Z, fcomps, gcomps, 1, 0, src, mid, tgt, out)

    terms = _tabled_product(ring, f, g, _COMPOSE_TABLES, shape, reduce_pair)
    return Cob(src, tgt, terms)


def deloop_iso(ring, f, side):
    """The halves of f at the last circle of f.tgt (TGT) or of f.src (SRC).

    The delooping isomorphism t ~ t'{+1} + t'{-1} splits off that circle
    by p_plus = dotted death - H death, p_minus = death, i_plus = birth
    and i_minus = dotted birth.  In canonical form the circle bounds a
    disc of its own, with a dot d, in every summand of f, and each map
    only caps that disc into a sphere (1 with one dot, H with two, 0
    with none).  So p_plus f keeps the summands with d = 0, p_minus f
    those with d = 1, f i_plus those with d = 1, and f i_minus all of
    them with hpow raised by d; the disc is dropped.  Returns
    (p_plus f, p_minus f) for TGT and (f i_plus, f i_minus) for SRC.
    """
    t = f.tgt if side == TGT else f.src
    base = t.drop_last_circle()
    disc = ((side, CIRCLE, base.circles),)
    plus: dict = {}
    minus: dict = {}
    for (comps, hpow), c in f.terms.items():
        for i, (ends, dot) in enumerate(comps):
            if ends == disc:
                break
        else:
            raise AssertionError("delooped circle bounds no disc of its own")
        rest = _intern(comps[:i] + comps[i + 1:])
        if side == TGT:
            (minus if dot else plus)[(rest, hpow)] = c
        else:
            if dot:
                plus[(rest, hpow)] = c
            # summands differing by a dot against one H can collide here
            _add_summands(ring, minus, ((rest, dot, 1),), c, hpow)
    t_plus, t_minus = base.shifted(+1), base.shifted(-1)
    if side == TGT:
        return Cob(f.src, t_plus, plus), Cob(f.src, t_minus, minus)
    return Cob(t_plus, f.tgt, plus), Cob(t_minus, f.tgt, minus)


def evaluate(ring, c):
    """Evaluate a cobordism between empty tangles to (coefficient, jump).

    The jump is the quantum-degree gain; under the twice-dotted-sphere
    relation each hpow acts as the scalar 1 while raising the grading by
    2, so every summand must sit at hpow = jump / 2.
    """
    if c.src.n_points or c.tgt.n_points or c.src.circles or c.tgt.circles:
        raise NotClosedError("evaluation needs closed empty endpoints")
    jump = c.tgt.qshift - c.src.qshift
    coeff = ring.zero
    for (comps, hpow), v in c.terms.items():
        if comps:
            raise AssertionError("unreduced component in a closed cobordism")
        if 2 * hpow != jump:
            raise AssertionError("hpow inconsistent with quantum jump")
        coeff = ring.add(coeff, v)
    return coeff, jump


# ---------------------------------------------------------------------------
# Horizontal gluing (the tensor step of the scan).


def glue_tangles(left, piece_match, pairs, left_order, piece_order,
                 self_pairs=()):
    """Glue a crossing piece onto a tangle along interface pairs.

    ``left`` is the current object, ``piece_match`` a matching on the
    crossing's legs, ``pairs`` the glued (left position, leg) pairs,
    ``self_pairs`` leg pairs of the piece glued to each other (loop edges
    of a kink), and ``left_order`` / ``piece_order`` list the surviving
    positions of each side in their order on the new boundary.  Returns
    the glued Tangle (qshift not set here) and an end map from
    ('b'|'x', kind, idx) to (kind, idx) in the glued tangle, for
    transporting surfaces.
    """
    hops = {}
    for p, x in pairs:
        hops[("b", p)] = ("x", x)
        hops[("x", x)] = ("b", p)
    for x1, x2 in self_pairs:
        hops[("x", x1)] = ("x", x2)
        hops[("x", x2)] = ("x", x1)
    piece_arcs = sorted({min(a, piece_match[a]) for a in range(len(piece_match))})
    new_pos = {("b", p): i for i, p in enumerate(left_order)}
    for i, x in enumerate(piece_order):
        new_pos[("x", x)] = len(left_order) + i

    # One walk for every strand: open strands from their first new
    # position, then closed ones from their first old position, b before
    # x.  A strand alternates an arc of one side with a hop across a glued
    # pair, and ends at an unglued leg or back at its start.
    new_match = [None] * len(new_pos)
    visited = set()
    open_paths = []
    closed_paths = []
    starts = sorted(new_pos, key=new_pos.get)
    starts += [("b", p) for p in range(len(left.match))]
    starts += [("x", x) for x in range(len(piece_match))]
    for node0 in starts:
        if node0 in visited:
            continue
        arcs_seen = []
        node = node0
        while node is not None and node not in visited:
            visited.add(node)
            tag, p = node
            end = (tag, (left.match if tag == "b" else piece_match)[p])
            arcs_seen.append((tag, min(p, end[1])))
            visited.add(end)
            node = hops.get(end)
        if node0 in new_pos:
            a, b = new_pos[node0], new_pos[end]
            new_match[a], new_match[b] = b, a
            open_paths.append((min(a, b), arcs_seen))
        elif node is None:
            raise AssertionError("open end inside a closed gluing path")
        else:
            closed_paths.append((min(p for _t, p in arcs_seen), arcs_seen))
    closed_paths.sort(key=lambda item: item[0])

    glued = Tangle(tuple(new_match), left.circles + len(closed_paths), 0)
    arc_ids = {p: i for i, (p, _q) in enumerate(glued.arcs())}
    dests = [(ARC, arc_ids[lo]) for lo, _arcs in open_paths]
    dests += [(CIRCLE, left.circles + ci) for ci in range(len(closed_paths))]
    end_map = {("b", CIRCLE, j): (CIRCLE, j) for j in range(left.circles)}
    for dest, (_lo, arcs_seen) in zip(dests, open_paths + closed_paths):
        for tag, lo in arcs_seen:
            idx = left.arc_index(lo) if tag == "b" else piece_arcs.index(lo)
            end_map[(tag, ARC, idx)] = dest
    return glued, end_map


def _glue_pair(ring, fcomps, pcomps, coeff, hpow, f, phi, pairs, src_info,
               tgt_info, self_pairs, out):
    """Glue a summand of f beside one of phi and reduce into out."""
    new_src, src_map = src_info
    new_tgt, tgt_map = tgt_info
    emaps = (src_map, tgt_map)  # indexed by side
    parts = []
    owner = {}  # ("b" | "x", source position) -> part
    for tag, t, comps in (("b", f.src, fcomps), ("x", phi.src, pcomps)):
        for ends, dot in comps:
            for side, kind, idx in ends:
                if side == SRC and kind == ARC:
                    for pos in t.arcs()[idx]:
                        owner[(tag, pos)] = len(parts)
            named = [(sd,) + emaps[sd][(tag, kd, ix)] for sd, kd, ix in ends]
            parts.append((named, dot))
    seams = [(owner[("b", p)], owner[("x", x)], True) for p, x in pairs]
    seams += [(owner[("x", x1)], owner[("x", x2)], True) for x1, x2 in self_pairs]
    _glue_summands(ring, parts, seams, coeff, hpow, new_src, new_tgt, out)


def glue_cobs(ring, f, phi, pairs, src_info, tgt_info, self_pairs=(), *,
              tables):
    """Glue cobordisms side by side along the interface ``pairs``.

    ``f`` runs between tangles on the old boundary, ``phi`` between
    crossing pieces; ``src_info`` / ``tgt_info`` are the
    :func:`glue_tangles` results (glued tangle, end map) for the source
    and target object pairs.  Each glued pair and each self-glued leg
    pair is one arc seam.

    ``tables`` is the caller's dict of the reductions already made with
    the same interface, keyed by the shapes of f and phi, then by the
    summand pair; misses are added to it.
    """
    shape = (f.src.match, f.src.circles, f.tgt.match, f.tgt.circles,
             phi.src.match, phi.src.circles, phi.tgt.match, phi.tgt.circles)

    def reduce_pair(fcomps, pcomps, out):
        _glue_pair(Z, fcomps, pcomps, 1, 0, f, phi, pairs, src_info, tgt_info,
                   self_pairs, out)

    terms = _tabled_product(ring, f, phi, tables, shape, reduce_pair)
    return Cob(src_info[0], tgt_info[0], terms)
