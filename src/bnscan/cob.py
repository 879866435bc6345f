"""The quotient dotted-cobordism category over a disc.

Objects are crossingless tangles (a non-crossing perfect matching of
boundary points, a count of closed circles, and a quantum shift).
Morphisms are K-linear combinations of reduced dotted surfaces in a
canonical form: every surface component is a disc bounded by a single
boundary cycle, carrying at most one dot, times a power of H; closed
components are evaluated away.

Reduction uses the local relations: an undotted sphere is 0, a
once-dotted sphere is 1, two dots on a component cost one H, and
neck-cutting trades a handle or a connecting tube for ``dot-on-one-side
+ dot-on-other-side - H*(disconnected)``.  H is never destructively set
to 1, so the same engine serves both the plain and the deformed complex.

The boundary cycles of a morphism are fixed by its endpoints, and in
canonical form each bounds exactly one disc, so a summand is a dot per
cycle and a power of H.  H has quantum degree -2 and every map is
homogeneous, so the dots and the endpoints' quantum shifts fix that
power (see ``Cob``): ``Cob.terms`` is keyed by the dot mask alone, bit i
the dot on the disc of cycle i.  The cycles of src -> tgt are numbered
as ``_cycles`` finds them: first the arc cycles, in order of their least
boundary position, then the source circles, then the target circles.
Equality of morphisms is equality of these terms.

Both products, ``compose`` (stacking along the middle tangle) and
``glue_cobs`` (side by side, beside a crossing piece), reduce through a
gluing plan made once per shape.  The discs of the two factors are the
parts, and every interface line joining two of them is a seam: in
``compose`` each middle arc or circle, in ``glue_cobs`` each glued pair
of legs.  Parts joined by seams merge into one surface; each part is a
disc (Euler characteristic 1), an arc seam lowers the characteristic by
one and a circle seam leaves it, which fixes the surface's genus.  For
each surface the plan keeps the dot bits it takes from either factor,
its genus and the result cycles it bounds.  A pair of summands then
reduces by counting its dots on each surface and expanding the surface
by neck-cutting onto those cycles.  The reduction of a pair is made once,
with coefficient 1 over the integers, and kept in the plan; a ring
applies it through ``from_int``, a ring homomorphism.  A plan depends
only on its combinatorics, the disc count of the first factor, the
parts and the seams, so every plan is interned for the process under
that tuple of ints, and plans whose surfaces agree share one reduction
table.  ``compose`` finds its plan by the shapes (matching and circle
count, not the quantum shift) of its source, middle and target;
``glue_cobs`` by the matchings of its circle-free factors in a dict of
the caller's, because the plan also depends on the gluing interface.
The scan takes that dict, and a dict of the glued tangles, from
``glue_caches``, which keeps both for the process under the interface:
interfaces recur across the knots of a batch.

Delooping reads the canonical form and makes no product: every circle
bounds a disc of its own in each summand, and each delooping map only
caps that disc into a sphere, so ``deloop_iso`` keeps or drops each
summand by the dot on the disc.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


class MismatchError(ValueError):
    """Cobordisms, or a gluing interface, whose boundary objects differ."""


class NoCircleError(ValueError):
    """Delooping requested on a tangle without circles."""


class NotClosedError(ValueError):
    """An empty tangle was needed; one with boundary points or circles came."""


class Tangle(NamedTuple):
    """A crossingless tangle in the disc with a quantum shift.

    ``match`` is an involution on boundary positions 0..n-1 describing the
    arcs; ``circles`` counts closed components (kept only transiently,
    complexes store delooped objects); ``qshift`` is the quantum grading.
    A plain tuple of these fields, so equality and hashing are the
    tuple's.
    """

    match: tuple
    circles: int = 0
    qshift: int = 0

    @property
    def n_points(self):
        return len(self.match)

    def halves(self):
        """t'{+1} and t'{-1}, for t = t' plus a circle: delooping's halves."""
        if self.circles < 1:
            raise NoCircleError("tangle has no circle")
        c, q = self.circles - 1, self.qshift
        return Tangle(self.match, c, q + 1), Tangle(self.match, c, q - 1)


SRC, TGT = 0, 1  # the side of a cobordism: source, target


@lru_cache(maxsize=None)
def _expand(genus, bits, dots):
    """Expand a connected surface into canonical discs on its cycles.

    ``bits`` are the indices of the result cycles the surface bounds;
    returns (mask, v) pairs, a dot mask on those bits and an integer
    coefficient.  Handles are cut first, then separating necks isolate
    each cycle; empty ``bits`` cover closed components.
    """
    out: dict = {}
    if genus > 0:
        for mask, v in _expand(genus - 1, bits, dots + 1):
            out[mask] = out.get(mask, 0) + 2 * v
        for mask, v in _expand(genus - 1, bits, dots):
            out[mask] = out.get(mask, 0) - v
    elif len(bits) < 2:
        if not bits:
            return ((0, 1),) if dots else ()
        return ((1 << bits[0] if dots else 0, 1),)
    else:
        first, rest = 1 << bits[0], bits[1:]
        for mask, v in _expand(0, rest, dots):
            out[mask | first] = out.get(mask | first, 0) + v
            out[mask] = out.get(mask, 0) - v
        for mask, v in _expand(0, rest, dots + 1):
            out[mask] = out.get(mask, 0) + v
    return tuple((mask, v) for mask, v in out.items() if v)


@lru_cache(maxsize=None)
def _cycles(smatch, tmatch):
    """The arc cycles of a shape pair with matchings smatch -> tmatch.

    Each position p lies on one source arc and one target arc, and these
    arcs chain through the positions into the cycles of a 2-regular
    graph.  Returns the number of arc cycles and, for each position, the
    index of the cycle through it; the cycles are numbered in order of
    their least position.  The circles come after the arc cycles: with
    c arc cycles, source circle j is cycle c + j and target circle j is
    cycle c + (source circles) + j.
    """
    cycle = [None] * len(smatch)
    count = 0
    for p0 in range(len(smatch)):
        if cycle[p0] is not None:
            continue
        p = p0
        while cycle[p] is None:
            q = smatch[p]
            cycle[p] = cycle[q] = count
            p = tmatch[q]
        count += 1
    return count, tuple(cycle)


class Cob:
    """A K-linear combination of canonical dotted surfaces src -> tgt.

    ``terms`` maps a summand's dot mask to a nonzero coefficient: bit i
    of the mask is the dot on the disc bounded by cycle i.  The arc
    cycles come first, in order of their least boundary position, then
    the source circles and then the target circles (see ``_cycles``).
    Every map is homogeneous and H has quantum degree -2, so the grading
    fixes each summand's power of H: with c boundary cycles, n boundary
    points and d = tgt.qshift - src.qshift, the summand ``mask`` carries
    H^h for h = (c - n/2 + d)/2 - popcount(mask).
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

        Between equal circle-free tangles the cycles are the strips and
        the degree is 0, so the identity is the one dot-free summand.
        """
        if self.src != self.tgt or self.src.circles or len(self.terms) != 1:
            return None
        mask, k = next(iter(self.terms.items()))
        return k if mask == 0 else None

    def malformed(self):
        """What puts some summand outside the canonical form, or None.

        A dot needs a cycle to sit on, and the grading must give every
        summand a power of H: c - n/2 + d even and at least twice its
        dot count.
        """
        arcs = _cycles(self.src.match, self.tgt.match)[0]
        width = arcs + self.src.circles + self.tgt.circles
        twice = width - self.src.n_points // 2 + self.degree()
        for mask in self.terms:
            if mask >> width:
                return "a dot beyond its cycles"
            if twice % 2 or twice < 2 * mask.bit_count():
                return "an H-power the grading cannot give"
        return None

    def __repr__(self):
        return f"Cob({len(self.terms)} terms, {self.src} -> {self.tgt})"


def _combine(alternatives):
    """Integer summands (mask, v) of a product of per-surface sums.

    ``alternatives`` lists, per surface, its (mask, v) summands on
    disjoint bits, so every choice gives a mask of its own.
    """
    partial = ((0, 1),)
    for alts in alternatives:
        partial = tuple((m | am, c * ac) for m, c in partial for am, ac in alts)
    return partial


@lru_cache(maxsize=None)
def _identity_summands(match, circles):
    """Vertical strips on the arcs and annuli on the circles, reduced."""
    arcs = len(match) // 2
    return _combine(
        _expand(0, (arcs + j, arcs + circles + j), 0) for j in range(circles)
    )


def identity_cob(ring, t):
    """The identity; circles are stored in exploded canonical form."""
    terms: dict = {}
    _add_summands(ring, terms, _identity_summands(t.match, t.circles), ring.one)
    return Cob(t, t, terms)


class _Plan:
    """How the discs of two factors glue into the surfaces of a product.

    ``parts`` gives, for every disc of the first factor and then of the
    second, the mask of the result cycles it touches; ``seams`` lists
    ``(i, j, arc)`` for each interface line joining part i to part j.
    Each merged surface becomes a group ``(fbits, gbits, genus, bits)``:
    the dot bits it takes from each factor, its genus and the sorted
    result cycles it bounds.  ``table`` keeps the reduction of each
    summand pair made so far, keyed by the two masks; it depends on the
    groups alone, so plans with equal groups share it.  Plans are made
    only through ``_plan``.
    """

    __slots__ = ("groups", "table")

    def __init__(self, n_first, parts, seams):
        root = list(range(len(parts)))
        for i, j, _arc in seams:
            while root[i] != i:
                i = root[i]
            while root[j] != j:
                j = root[j]
            root[j] = i
        merged: dict = {}  # root -> [fbits, gbits, chi, result cycle mask]
        for i, cycles in enumerate(parts):
            r = i
            while root[r] != r:
                r = root[r]
            root[i] = r
            group = merged.get(r)
            if group is None:
                group = merged[r] = [0, 0, 0, 0]
            if i < n_first:
                group[0] |= 1 << i
            else:
                group[1] |= 1 << (i - n_first)
            group[2] += 1
            group[3] |= cycles
        for i, _j, arc in seams:
            if arc:
                merged[root[i]][2] -= 1
        groups = []
        for fbits, gbits, chi, cycles in merged.values():
            bits = tuple(k for k in range(cycles.bit_length()) if cycles >> k & 1)
            # every part is a disc; an arc seam lowers chi by one
            defect = 2 - chi - len(bits)
            if defect % 2 or defect < 0:
                raise AssertionError(f"bad Euler bookkeeping: chi={chi} b={len(bits)}")
            groups.append((fbits, gbits, defect // 2, bits))
        self.groups = tuple(groups)
        self.table = _TABLES.setdefault(self.groups, {})

    def reduce(self, fmask, gmask):
        """The integer summands of one pair of factor summands."""
        alternatives = []
        for fbits, gbits, genus, bits in self.groups:
            dots = (fmask & fbits).bit_count() + (gmask & gbits).bit_count()
            alts = _expand(genus, bits, dots)
            if not alts:
                return ()
            alternatives.append(alts)
        return _combine(alternatives)


# Gluing plans for the process, keyed by their combinatorics
# (n_first, parts, seams), a tuple of ints; and the reduction tables,
# keyed by the groups of the plans that share them.
_PLANS: dict = {}
_TABLES: dict = {}


def _plan(n_first, parts, seams):
    """The one plan of these parts and seams; see ``_Plan``."""
    key = (n_first, tuple(parts), tuple(seams))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _Plan(n_first, parts, seams)
    return plan


def _product(ring, f, g, plan):
    """Sum the reductions of all summand pairs of f and g under plan.

    Each pair is reduced over Z with coefficient 1 once and kept in
    ``plan.table``; the ring reads it through ``from_int``.
    """
    table = plan.table
    out: dict = {}
    for fm, fc in f.terms.items():
        for gm, gc in g.terms.items():
            coeff = ring.mul(fc, gc)
            if ring.is_zero(coeff):
                continue
            summands = table.get((fm, gm))
            if summands is None:
                summands = table[fm, gm] = plan.reduce(fm, gm)
            _add_summands(ring, out, summands, coeff)
    return out


def _add_summands(ring, out, summands, coeff):
    """Add coeff, not zero, times the integer summands (mask, v) into out."""
    for mask, v in summands:
        c = coeff if v == 1 else ring.mul(coeff, ring.from_int(v))
        old = out.get(mask)
        if old is not None:
            c = ring.add(old, c)
        elif v == 1:
            out[mask] = c
            continue
        if ring.is_zero(c):
            out.pop(mask, None)
        else:
            out[mask] = c


def _compose_plan(src, mid, tgt):
    """The plan of stacking src -> mid on mid -> tgt.

    The discs of f keep their ends on src and those of g their ends on
    tgt: a disc touches the result cycle through each position of its
    cycle, and its circle if that lies on src (for f) or tgt (for g).
    Every arc and circle of mid is a seam.
    """
    f_arcs, fcycle = _cycles(src.match, mid.match)
    g_arcs, gcycle = _cycles(mid.match, tgt.match)
    r_arcs, rcycle = _cycles(src.match, tgt.match)
    n = f_arcs + src.circles + mid.circles
    fparts = [0] * n
    gparts = [0] * (g_arcs + mid.circles + tgt.circles)
    for p, r in enumerate(rcycle):
        fparts[fcycle[p]] |= 1 << r
        gparts[gcycle[p]] |= 1 << r
    for j in range(src.circles):
        fparts[f_arcs + j] = 1 << (r_arcs + j)
    for j in range(tgt.circles):
        gparts[g_arcs + mid.circles + j] = 1 << (r_arcs + src.circles + j)
    seams = [(fcycle[p], n + gcycle[p], 1) for p, q in enumerate(mid.match) if p < q]
    seams += [
        (f_arcs + src.circles + j, n + g_arcs + j, 0) for j in range(mid.circles)
    ]
    return _plan(n, fparts + gparts, seams)


# (src, mid, tgt shapes) -> plan, for the process.
_COMPOSE_PLANS: dict = {}


def compose(ring, g, f):
    """g after f; summands are glued along the middle object and reduced."""
    if f.tgt != g.src:
        raise MismatchError(f"cannot compose through {f.tgt} vs {g.src}")
    src, mid, tgt = f.src, f.tgt, g.tgt
    if not f.terms or not g.terms:
        return Cob(src, tgt)
    shape = (src.match, src.circles, mid.match, mid.circles, tgt.match, tgt.circles)
    plan = _COMPOSE_PLANS.get(shape)
    if plan is None:
        plan = _COMPOSE_PLANS[shape] = _compose_plan(src, mid, tgt)
    return Cob(src, tgt, _product(ring, f, g, plan))


def deloop_iso(ring, f, side, halves):
    """The parts of f at the last circle of t = f.tgt (TGT) or f.src (SRC).

    The delooping isomorphism t ~ t'{+1} + t'{-1} splits off that circle
    by p_plus = dotted death - H death, p_minus = death, i_plus = birth
    and i_minus = dotted birth.  In canonical form the circle bounds a
    disc of its own, with a dot d, in every summand of f, and each map
    only caps that disc into a sphere (1 with one dot, H with two, 0
    with none).  So p_plus f keeps the summands with d = 0, p_minus f
    those with d = 1, f i_plus those with d = 1, and f i_minus all of
    them, with H^d; the disc's bit is dropped, which leaves the other
    cycles in their order on the smaller shape, and the shifted ends
    give each summand its power of H.  ``halves`` is ``t.halves()``,
    made once by a caller that splits every entry at t.  Returns
    (p_plus f, p_minus f) for TGT and (f i_plus, f i_minus) for SRC.
    """
    t_plus, t_minus = halves
    i = _cycles(f.src.match, f.tgt.match)[0] + t_plus.circles
    if side == TGT:
        i += f.src.circles
    low = (1 << i) - 1
    plus: dict = {}
    minus: dict = {}
    for mask, c in f.terms.items():
        dot = mask >> i & 1
        rest = mask & low | mask >> (i + 1) << i  # bit i squeezed out
        if side == TGT:
            (minus if dot else plus)[rest] = c
        else:
            if dot:
                plus[rest] = c
            if rest in minus:  # a dotted summand and an H-summand collide
                c = ring.add(minus[rest], c)
                if ring.is_zero(c):
                    del minus[rest]
                    continue
            minus[rest] = c
    if side == TGT:
        return Cob(f.src, t_plus, plus), Cob(f.src, t_minus, minus)
    return Cob(t_plus, f.tgt, plus), Cob(t_minus, f.tgt, minus)


# ---------------------------------------------------------------------------
# Horizontal gluing (the tensor step of the scan).


def glue_tangles(left, piece_match, pairs, left_order, piece_order):
    """Glue a crossing piece onto a tangle along interface pairs.

    ``left`` is the current object, which the scan has delooped, so a
    left tangle with circles is refused.  ``piece_match`` is a matching
    on the crossing's legs, ``pairs`` the glued (left position, leg)
    pairs, and ``left_order`` / ``piece_order`` list the surviving
    positions of each side in their order on the new boundary.  Both sides share one
    integer space: the m left positions 0..m-1, then leg x as m + x.
    Returns the glued Tangle (qshift not set here) and the end map, a
    tuple over that space for transporting surfaces: each position holds
    the least new position of the glued arc its arc runs into, or n + c
    when its arc closes up into circle c of the glued tangle, n being
    the size of the new boundary.  The closed strands are numbered in
    order of the least position on their arcs, each read on its own side
    (p, or x for leg x), ties by the least left position.
    """
    if left.circles:
        raise MismatchError("gluing onto a tangle with circles")
    m = len(left.match)
    match = left.match + tuple(m + x for x in piece_match)
    hop = [None] * len(match)
    for p, x in pairs:
        hop[p], hop[m + x] = m + x, p
    order = left_order + tuple(m + x for x in piece_order)
    new_pos = [None] * len(match)
    for i, k in enumerate(order):
        new_pos[k] = i

    # One walk for every strand: open strands from their first new
    # position, then closed ones from their least position.  A strand
    # alternates an arc of one side with a hop across a glued pair, and
    # ends at an unglued position or back at its start.
    n = len(order)
    new_match = [None] * n
    dest = [None] * len(match)
    seen = [False] * len(match)
    closed = []
    for k0 in order + tuple(range(len(match))):
        if seen[k0]:
            continue
        strand = []
        k = k0
        while k is not None and not seen[k]:
            end = match[k]
            seen[k] = seen[end] = True
            strand += (k, end)
            k = hop[end]
        if new_pos[k0] is not None:
            a, b = new_pos[k0], new_pos[end]
            new_match[a], new_match[b] = b, a
            for j in strand:
                dest[j] = min(a, b)
        elif k is None:
            raise AssertionError("open end inside a closed gluing path")
        else:
            closed.append((min(j if j < m else j - m for j in strand), strand))
    closed.sort(key=lambda item: item[0])
    for c, (_low, strand) in enumerate(closed, n):
        for j in strand:
            dest[j] = c
    return Tangle(tuple(new_match), len(closed), 0), tuple(dest)


def _glue_plan(f, phi, pairs, src_info, tgt_info):
    """The plan of gluing f beside phi along the interface.

    ``src_info`` and ``tgt_info`` hold the glued tangles and their end
    maps, tuples over the left positions and then the legs (see
    ``glue_tangles``): a value below the new boundary's size n is the
    least position of a glued arc, n + c stands for glued circle c.  A
    disc touches, on each side, the result cycle of every position on
    its cycle; neither f's delooped tangles nor the crossing pieces
    carry circles.  Each glued pair joins the discs through its source
    arcs by an arc seam.
    """
    (new_src, src_map), (new_tgt, tgt_map) = src_info, tgt_info
    r_arcs, rcycle = _cycles(new_src.match, new_tgt.match)
    r_tgt = r_arcs + new_src.circles  # the cycle of the first target circle
    # the result cycle of each end map value, on the source and target side
    on_src = rcycle + tuple(range(r_arcs, r_tgt))
    on_tgt = rcycle + tuple(range(r_tgt, r_tgt + new_tgt.circles))
    f_arcs, fcycle = _cycles(f.src.match, f.tgt.match)
    x_arcs, xcycle = _cycles(phi.src.match, phi.tgt.match)
    parts = [0] * (f_arcs + x_arcs)
    for k, i in enumerate(fcycle + tuple(f_arcs + c for c in xcycle)):
        parts[i] |= 1 << on_src[src_map[k]] | 1 << on_tgt[tgt_map[k]]
    seams = [(fcycle[p], f_arcs + xcycle[x], 1) for p, x in pairs]
    return _plan(f_arcs, parts, seams)


# The glued tangles and glue plans of each gluing interface
# (pairs, left_order, piece_order), for the process; see ``glue_caches``.
_INTERFACES: dict = {}


def glue_caches(pairs, left_order, piece_order):
    """The two dicts kept for the process under one gluing interface.

    The first maps (left matching, piece matching) to the
    ``glue_tangles`` result, the second is the ``tables`` of
    ``glue_cobs``: both depend on nothing else.
    """
    key = (pairs, left_order, piece_order)
    caches = _INTERFACES.get(key)
    if caches is None:
        caches = _INTERFACES[key] = ({}, {})
    return caches


def glue_cobs(ring, f, phi, pairs, src_info, tgt_info, *, tables):
    """Glue cobordisms side by side along the interface ``pairs``.

    ``f`` runs between tangles on the old boundary, ``phi`` between
    crossing pieces; ``src_info`` / ``tgt_info`` are the
    :func:`glue_tangles` results (glued tangle, end map) for the source
    and target object pairs.  Each glued pair is one arc seam.

    ``tables`` is the caller's dict of the plans already made with the
    same interface (see ``glue_caches``), keyed by the matchings of f
    and phi, whose tangles carry no circles; new plans are added to it.
    """
    shape = (f.src.match, f.tgt.match, phi.src.match, phi.tgt.match)
    plan = tables.get(shape)
    if plan is None:
        plan = tables[shape] = _glue_plan(f, phi, pairs, src_info, tgt_info)
    return Cob(src_info[0], tgt_info[0], _product(ring, f, phi, plan))
