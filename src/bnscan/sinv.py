"""Based complexes over the ground ring and the s-invariant readoff.

After the last deloop of a scan every object is closed, and
``from_filtered`` makes the complex a free based complex with numeric
entries (quantum jumps absorbed by the grading); the scan runs its last
elimination on that and returns it.  The readoff cancels the coboundary
out of homological degree 0, largest quantum degree first, each
generator against its lowest target.  The coboundary into degree 0 is
the coboundary out of degree 0 of the dual complex (degrees and gradings
negated, entries transposed), so the same routine cancels it there:
smallest quantum degree hit first, each against its highest source.
Cancelling a degree-0 generator g adds entries s -> t only with
q(t) >= q(g) >= q(s), so each elimination is a filtered change of
basis, and the two survivors sit in quantum degrees s +- 1; the one
survivor of a reduced complex (mode s over F2, see ``complex.scan``)
sits at s.  The survivors' quantum degrees alone tell the two apart:
a closed knot complex lives in odd degrees, a reduced one in even ones.

One scan over Z serves every field: elimination along +-1 entries and
window truncation commute with base change, so ``base_change`` followed
by ``reduce_pass`` on the units that appear reads off the same s and the
same homology as a scan over the field.
"""

from __future__ import annotations

from operator import neg
from typing import NamedTuple

from .cob import NotClosedError
from .complex import (
    MARKED_ARC,
    FilteredComplex,
    InconsistentError,
    gauss_eliminate,
    scalar_entries,
    scan,
)
from .diagram import orient_and_sign, scan_order


class SResult(NamedTuple):
    s: int
    ring: str


class BasedComplex(FilteredComplex):
    """Free filtered complex with an explicit basis and ring-scalar entries.

    The label of a generator is its quantum degree, also readable as ``q``.
    """

    def __init__(self, ring):
        super().__init__(ring, scalar_entries)

    @property
    def q(self):
        return self.obj

    def flipped(self):
        """The upside-down complex: negate gradings, transpose entries."""
        return self.rebuild(BasedComplex(self.ring), label=neg, flip=True)


def from_filtered(C, marked=False) -> BasedComplex:
    """Close a scan's complex into ring scalars: its closing pass.

    Every object becomes its quantum degree and every entry its
    coefficient, keeping the ids, by one rule per branch.  A closed
    complex must hold empty tangles, or NotClosedError is raised, and
    its entries have no cycle to carry a dot.  A reduced one
    (``marked``) must hold the marked arc without circles, so an entry's
    summands are the undotted strip (mask 0) and the dotted one (mask 1,
    the arc's cycle); the dotted one is dropped, which is the ring map
    x -> 0 of the arc's algebra F[H, x]/(x^2 - Hx), so composition and
    elimination commute with it.  Either way the undotted summand is
    the coefficient times H^(jump/2), and H acts as the scalar 1 while
    raising the grading by 2, so the jump must be even and not
    negative.  Any other object or summand raises InconsistentError,
    also under ``python -O``.  ``C`` is consumed: its incidence sets are
    cleared and each row of entries is freed once it is converted.
    """
    arc, masks = (MARKED_ARC, {0, 1}) if marked else ((), {0})
    D = BasedComplex(C.ring)
    for oid in sorted(C.h, key=C.h.get):
        t = C.obj[oid]
        if t.match != arc or t.circles:
            if marked:
                raise InconsistentError(f"object {oid} is not the marked arc: {t}")
            raise NotClosedError(f"object {oid} is not an empty tangle: {t}")
        D.add_object(C.h[oid], t.qshift, oid)
    C.inc.clear()
    q, zero = D.q, C.ring.zero
    for a in list(C.out):
        for b, f in C.out.pop(a).items():
            jump = q[b] - q[a]
            if jump % 2 or jump < 0:
                raise InconsistentError(
                    f"entry {a} -> {b} jumps by {jump}, which no power of H gives"
                )
            if f.terms.keys() - masks:
                raise InconsistentError(
                    f"entry {a} -> {b} keeps a summand other than the undotted one"
                )
            D.set_entry(a, b, f.terms.get(0, zero))
    return D


def cancel_above(D: BasedComplex) -> BasedComplex:
    """Steps 7-8: kill the coboundary out of homological degree 0.

    On the dual complex this is steps 9-10, which kill the coboundary
    into degree 0.
    """
    while True:
        cands = [g for g in D.objects_at(0) if D.out[g]]
        if not cands:
            return D
        g = max(cands, key=lambda x: (D.q[x], -x))
        partner = min(D.out[g], key=lambda t: (D.q[t], t))
        gauss_eliminate(D, g, partner)


def read_s(D: BasedComplex) -> SResult:
    """The s-invariant from the quantum degrees of the degree-0 survivors.

    One survivor at even q is that of a reduced complex, at s: over F2
    the closed complex is the reduced one tensored with the circle's
    algebra, generated in quantum degrees +-1.  Two survivors at odd q,
    two apart, are those of a closed complex, at s + 1 and s - 1.  Any
    other survivors raise InconsistentError, also under ``python -O``.
    """
    qs = sorted(D.q[g] for g in D.objects_at(0))
    if len(qs) == 1 and qs[0] % 2 == 0:
        return SResult(qs[0], D.ring.name)
    if len(qs) == 2 and qs[0] % 2 and qs[1] - qs[0] == 2:
        return SResult(qs[0] + 1, D.ring.name)
    raise InconsistentError(
        "a readoff needs one survivor at even q or two at odd q two apart,"
        f" found {qs}"
    )


def khovanov_table(D: BasedComplex):
    """Generator counts per (h, q): the graded homology of a scan in mode kh."""
    table: dict[tuple[int, int], int] = {}
    for gid, h in D.h.items():
        key = (h, D.q[gid])
        table[key] = table.get(key, 0) + 1
    return table


def s_from_based(D: BasedComplex) -> SResult:
    """The s-invariant of a scan's based complex; the ground ring must be a field.

    Consumes ``D``, which is left reduced above degree 0 only: the
    cancellations below degree 0 run on its dual, whose gradings are
    negated, so s is the negation of the dual's.  Negation keeps the
    parity of each quantum degree, so ``read_s`` tells a reduced dual
    from a closed one as it would ``D``.
    """
    if not D.ring.is_field:
        raise ValueError(f"the s readoff needs a field, not ring {D.ring.name!r}")
    dual = read_s(cancel_above(cancel_above(D).flipped()))
    return dual._replace(s=-dual.s)


def s_invariant(pd, ring) -> SResult:
    """Scan a knot diagram and read off its s-invariant over a field.

    Over F2 the scan stops at the reduced complex and s is read off its
    one survivor; over any other field it reads the closed complex.
    """
    order = scan_order(orient_and_sign(pd))
    return s_from_based(scan(order, ring, "s"))


def base_change(D: BasedComplex, ring) -> BasedComplex:
    """D with its entries mapped into ``ring``, keeping the grading and ids.

    Entries go through ``ring.from_int``, which is the ring map from Z, or
    from Z/4Z into F2, or from a ring into itself; entries that vanish in
    ``ring`` are dropped.  Units of ``ring`` may now join equal quantum
    degrees: ``reduce_pass`` cancels them.
    """
    return D.rebuild(BasedComplex(ring), entry=ring.from_int)
