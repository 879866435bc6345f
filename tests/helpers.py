"""Checks and reference paths that only the tests use.

``canon`` and ``strictly_raising`` state properties of the library's
values and complexes; ``two_scan_refine`` is the Sq1 refinement computed
from two scans (the diagram and its mirror), the cross-check for the
one-scan path through the dual complex.  ``deloop_maps`` reads the four
delooping maps off an identity through ``cob.deloop_iso``;
``neck_cut_deloop_maps`` builds them as surfaces, its oracle.
"""

from __future__ import annotations

from fractions import Fraction

from bnscan.cob import (
    ARC,
    CIRCLE,
    SRC,
    TGT,
    Cob,
    _finalize_groups,
    deloop_iso,
    identity_cob,
)
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


def deloop_maps(ring, t):
    """(p_plus, p_minus, i_plus, i_minus) for the last circle of t."""
    ident = identity_cob(ring, t)
    return deloop_iso(ring, ident, TGT) + deloop_iso(ring, ident, SRC)


def neck_cut_deloop_maps(ring, t):
    """The delooping maps of the last circle of t, built as surfaces.

    Returns ((t_plus, t_minus), (p_plus, p_minus, i_plus, i_minus)) with
    p_plus = dotted death - H death, p_minus = death, i_plus = birth and
    i_minus = dotted birth; strips and annuli run along the rest of t.
    """
    base = t.drop_last_circle()
    k = base.circles
    t_plus, t_minus = base.shifted(+1), base.shifted(-1)
    cylinders = [({(SRC, ARC, i), (TGT, ARC, i)}, 0, 1) for i in range(len(t.arcs()))]
    cylinders += [({(SRC, CIRCLE, j), (TGT, CIRCLE, j)}, 0, 0) for j in range(k)]

    def build(src, tgt, side, variants):
        terms: dict = {}
        for dot, hpow, coeff in variants:
            disc = ({(side, CIRCLE, k)}, dot, 1)
            _finalize_groups(
                ring, cylinders + [disc], ring.from_int(coeff), hpow, src, tgt, terms
            )
        return Cob(src, tgt, terms)

    return (t_plus, t_minus), (
        build(t, t_plus, SRC, [(1, 0, 1), (0, 1, -1)]),
        build(t, t_minus, SRC, [(0, 0, 1)]),
        build(t_plus, t, TGT, [(0, 0, 1)]),
        build(t_minus, t, TGT, [(1, 0, 1)]),
    )
