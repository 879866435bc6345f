"""The Bockstein refinement of the s-invariant over Z/4Z.

The scan output over Z/4Z is saturated under unit cancellations, so the
entries between generators of equal quantum degree all equal 2.  Handle
slides (filtration-respecting basis changes within a homological degree)
diagonalize each quantum level into elementary summands; the length-1
summands landing in homological degree 0 span the image of the first
differential of the Bockstein, read as classes mod 2.  Intersecting with
the classes extending to filtered cocycles and testing survival in the
low quotient decides whether each refinement gains 2 over the base
invariant.  The dual complex (degrees and quantum gradings negated,
entries transposed) is the mirror's complex, so the same scan supplies
the other half of the quadruple.  It is taken after the first half's
slides: the dual of a complex in normal form is in normal form, so the
second half slides nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .coeff import F2, Z4
from .complex import scan
from .diagram import orient_and_sign, scan_order
from .sinv import (
    BasedComplex,
    InconsistentError,
    base_change,
    s_from_based,
)


class NotSaturatedError(RuntimeError):
    """A unit entry at equal quantum degree survived the scan."""


class Sq1Quadruple(NamedTuple):
    r_plus: int
    s_plus: int
    r_minus: int
    s_minus: int


class Z4NormalForm(NamedTuple):
    """The summand data of a Z/4Z complex that ``normal_form`` slid."""

    elementary: dict[int, list[tuple[int, int]]]
    slides: int


def _slide(D: BasedComplex, x, y, u):
    """The handle slide x -> x + u*y (same degree, q(y) >= q(x)).

    Row x gains u times row y and column y loses u times column x.
    """
    ring = D.ring
    if D.h[x] != D.h[y] or D.q[y] < D.q[x]:
        raise ValueError("slide must stay in degree and filtration")
    for t, v in list(D.out[y].items()):
        D.add_to_entry(x, t, ring.mul(u, v))
    for z in list(D.inc[x]):
        D.add_to_entry(z, y, ring.neg(ring.mul(u, D.out[z][x])))


def normal_form(D: BasedComplex) -> Z4NormalForm:
    """Bring a saturated Z/4Z complex into filtered normal form.

    Quantum levels are processed from the inside (highest q) outward;
    within a level the 2-entries between equal-q generators are
    diagonalized by handle slides, recording the elementary summands.
    Slides at a level never disturb the internal structure of higher
    levels.  D is slid in place; the result holds the (source, target)
    pairs of its elementary summands by level and the number of slides.
    """
    if D.ring != Z4:
        raise ValueError("normal form runs over Z/4Z")
    for a, row in D.out.items():
        for b, v in row.items():
            if D.q[b] == D.q[a] and D.ring.is_unit(v):
                raise NotSaturatedError(
                    f"unit entry at equal quantum degree {D.q[a]}"
                )
    elementary: dict[int, list[tuple[int, int]]] = {}
    slides = 0
    # one walk by degree; each level keeps its generators in that order
    by_level: dict[int, list[int]] = {}
    for g in sorted(D.h, key=D.h.get):
        by_level.setdefault(D.q[g], []).append(g)
    for q in sorted(by_level, reverse=True):
        pairs = []
        for s0 in by_level[q]:
            t0 = next((t for t in sorted(D.out[s0]) if D.q[t] == q), None)
            if t0 is None:
                continue
            if D.out[s0][t0] != 2:
                raise NotSaturatedError("equal-q entry must be 2")
            # clear the pivot row first: afterwards column slides add
            # nothing but the cancelling pivot entry, so finished rows
            # never get repolluted
            for t_prime in sorted(D.out[s0]):
                if t_prime == t0 or D.q.get(t_prime) != q:
                    continue
                _slide(D, t0, t_prime, 1)
                slides += 1
            for s_prime in sorted(D.inc[t0]):
                if s_prime == s0 or D.q.get(s_prime) != q:
                    continue
                _slide(D, s_prime, s0, 1)
                slides += 1
            if any(D.q[t] == q for t in D.out[s0] if t != t0) or any(
                D.q[s] == q for s in D.inc[t0] if s != s0
            ):
                raise InconsistentError("pivot row or column not cleared")
            pairs.append((s0, t0))
        if pairs:
            elementary[q] = pairs
    # integral tensor origin: no elementary chain is longer than 1
    sources = {s for ps in elementary.values() for s, _t in ps}
    targets = {t for ps in elementary.values() for _s, t in ps}
    if sources & targets:
        raise InconsistentError("elementary chain of length > 1")
    if any(D.q[b] < D.q[a] for a, row in D.out.items() for b in row):
        raise InconsistentError("slide broke the filtration")
    return Z4NormalForm(elementary, slides)


def sq1_image(D: BasedComplex, nf: Z4NormalForm, q) -> list[int]:
    """Generators of the Bockstein image inside degree 0 at level q.

    These are the targets of length-1 elementary summands ending in
    homological degree 0, read as mod-2 classes; ``nf`` is the normal
    form of ``D``.
    """
    return [t for _s, t in nf.elementary.get(q, ()) if D.h[t] == 0]


def _xor_reduce(v, basis, tag=0):
    """Reduce the F2 vector v (an int bitmask) by an echelon basis.

    ``basis`` maps the top bit of each of its vectors to (vector, tag).
    The tags of the basis vectors used are XORed onto ``tag``, so a tag
    can record which inputs a vector combines.  Returns (reduced v, tag);
    a nonzero reduced v has a top bit no basis vector has, so it can
    join the basis.
    """
    while v:
        hit = basis.get(v.bit_length())
        if hit is None:
            break
        v ^= hit[0]
        tag ^= hit[1]
    return v, tag


def intersect_with_p(E: BasedComplex, q, classes) -> list[frozenset]:
    """Span of class combinations extending to filtered cocycles mod 2.

    ``E`` is the mod-2 based complex; a combination c of level-q degree-0
    generators lies in the image of the filtration map exactly when some
    correction h by higher-level degree-0 generators makes c + h a
    cocycle.  Returns a basis of the subspace, each element given by its
    level-q support.  Bit g of an F2 vector stands for generator g.
    """
    classes = [int(c) for c in classes]
    if not classes:
        return []
    correctors = [g for g in E.objects_at(0) if E.q[g] > q]
    on_classes = sum(1 << g for g in classes)
    # the kernel of the column system, each column tagged with its
    # unknown; a kernel vector is projected to the classes when found
    reduced: dict[int, tuple[int, int]] = {}
    proj: dict[int, tuple[int, int]] = {}
    for g in classes + correctors:
        col = sum(1 << t for t, v in E.out[g].items() if v % 2)
        col, tag = _xor_reduce(col, reduced, 1 << g)
        if col:
            reduced[col.bit_length()] = (col, tag)
            continue
        p, _ = _xor_reduce(tag & on_classes, proj)
        if p:
            proj[p.bit_length()] = (p, 0)
    return [frozenset(g for g in classes if p >> g & 1) for p, _ in proj.values()]


def survives_quotient(E: BasedComplex, q_cut, cls) -> bool:
    """Is the class nonzero in H^0 of the mod-2 quotient below q_cut?

    The quotient keeps generators of quantum degree < q_cut; the class is
    a coboundary exactly when its support lies in the span of the
    truncated degree-(-1) coboundaries, bit g of a vector standing for
    generator g.
    """
    support = {g for g in cls if E.q[g] < q_cut}
    if support != set(cls):
        raise ValueError("class has support at or above the cut")
    if not support:
        return False
    basis: dict[int, tuple[int, int]] = {}
    for z in E.objects_at(-1):
        if E.q[z] >= q_cut:
            continue
        row = sum(1 << t for t, v in E.out[z].items() if v % 2 and E.q[t] < q_cut)
        row, _ = _xor_reduce(row, basis)
        if row:
            basis[row.bit_length()] = (row, 0)
    return _xor_reduce(sum(1 << g for g in support), basis)[0] != 0


def half_refinement_from_based(D: BasedComplex):
    """s over F2 and the positive refinement pair from a Z/4Z complex.

    ``D`` must be the saturated scan output (or any complex in the same
    position); the slides leave it in filtered normal form.
    """
    s_f2 = s_from_based(base_change(D, F2)).s
    nf = normal_form(D)
    E = base_change(D, F2)

    def gained(level_q, q_cut):
        subspace = intersect_with_p(E, level_q, sq1_image(D, nf, level_q))
        return any(survives_quotient(E, q_cut, cls) for cls in subspace)

    r_plus = s_f2 + 2 if gained(s_f2 + 1, s_f2 + 3) else s_f2
    s_plus = s_f2 + 2 if gained(s_f2 - 1, s_f2 + 1) else s_f2
    return s_f2, r_plus, s_plus


def refine_scanned(C) -> tuple[int, Sq1Quadruple]:
    """The refinement quadruple from a knot's ``sq1`` scan over Z/4Z.

    Returns (s over F2, (r+, s+, r-, s-)).  The negative pair is the
    positive pair of the dual complex, which is the mirror's complex,
    with signs flipped.  The first half's slides are a filtered change
    of basis, so the dual of the complex they leave serves as well.
    They slide a copy: ``C`` is left as the scan returned it.
    """
    D = base_change(C, Z4)
    s_f2, r_plus, s_plus = half_refinement_from_based(D)
    s_m, r_plus_m, s_plus_m = half_refinement_from_based(D.flipped())
    if s_m != -s_f2:
        raise InconsistentError(
            f"dual complex gives s = {s_m}, not {-s_f2}"
        )
    return s_f2, Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)


def refine(pd) -> tuple[int, Sq1Quadruple]:
    """The full Bockstein refinement quadruple of a knot diagram."""
    return refine_scanned(scan(scan_order(orient_and_sign(pd)), Z4, "sq1"))
