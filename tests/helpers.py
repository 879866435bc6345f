"""Checks and reference paths that only the tests use.

``canon`` and ``strictly_raising`` state properties of the library's
values and complexes; ``two_scan_refine`` is the Sq1 refinement computed
from two scans (the diagram and its mirror), the cross-check for the
one-scan path through the dual complex.
"""

from __future__ import annotations

from fractions import Fraction

from bnscan.coeff import Q, Z, Z4, PrimeField
from bnscan.complex import scan
from bnscan.diagram import mirror_pd, orient_and_sign, scan_order
from bnscan.sinv import from_filtered
from bnscan.sq1 import Sq1Quadruple, half_refinement_from_based


def canon(ring, a):
    """The canonical representative of ``a`` in a ring of ``bnscan.coeff``."""
    if isinstance(ring, PrimeField):
        return a % ring.p
    if ring is Z4:
        return a % 4
    if ring is Q:
        return Fraction(a)
    if ring is Z:
        return int(a)
    raise ValueError(f"no canonical form for {ring!r}")


def strictly_raising(C):
    """Does every entry of a scan complex raise the quantum degree?"""
    return all(
        f.degree() > 0 for outs in C.out.values() for f in outs.values()
    )


def _half_refinement(pd):
    order = scan_order(orient_and_sign(pd))
    return half_refinement_from_based(from_filtered(scan(order, Z4, "sq1")))


def two_scan_refine(pd):
    """(s over F2, quadruple), the negative pair from the mirror's own scan."""
    s_f2, r_plus, s_plus = _half_refinement(pd)
    s_m, r_plus_m, s_plus_m = _half_refinement(mirror_pd(pd))
    assert s_m == -s_f2, (pd.name, s_f2, s_m)
    return s_f2, Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)
