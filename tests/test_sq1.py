import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bnscan.coeff import Z4, F2
from bnscan.complex import dump, scan
from bnscan.diagram import orient_and_sign, scan_order
from bnscan.sinv import BasedComplex, base_change, s_from_based
from bnscan.sq1 import (
    NotSaturatedError,
    Sq1Quadruple,
    half_refinement_from_based,
    intersect_with_p,
    normal_form,
    refine,
    refine_scanned,
    sq1_image,
    survives_quotient,
)
from helpers import two_scan_refine
from knotgen import PD_FIGURE8, PD_TREFOIL, parse_knot_file, rational_pd, torus_pd
from bnscan.diagram import parse_pd

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_figure2():
    with open(os.path.join(DATA, "figure2.json")) as f:
        fix = json.load(f)
    D = BasedComplex(Z4)
    ids = {}
    for g, h, q in fix["generators"]:
        ids[g] = D.add_object(h, q)
    for a, b, c in fix["edges"]:
        D.set_entry(ids[a], ids[b], Z4.from_int(c))
    return D, ids


def test_normal_form_simple_triangular_block():
    # quotient matrix [[2,2],[0,2]] slides to diag(2,2)
    D = BasedComplex(Z4)
    a1 = D.add_object(0, 0)
    a2 = D.add_object(0, 0)
    b1 = D.add_object(1, 0)
    b2 = D.add_object(1, 0)
    D.set_entry(a1, b1, 2)
    D.set_entry(a1, b2, 2)
    D.set_entry(a2, b2, 2)
    nf = normal_form(D)
    pairs = nf.elementary[0]
    assert len(pairs) == 2
    for a in (a1, a2):
        eq = [t for t, v in D.out[a].items() if v]
        assert len(eq) == 1 and D.out[a][eq[0]] == 2


def test_normal_form_already_diagonal_is_identity():
    D = BasedComplex(Z4)
    a = D.add_object(0, 0)
    b = D.add_object(1, 0)
    D.set_entry(a, b, 2)
    nf = normal_form(D)
    assert nf == ({0: [(a, b)]}, 0)


def test_normal_form_rejects_unit_entries():
    D = BasedComplex(Z4)
    a = D.add_object(0, 0)
    b = D.add_object(1, 0)
    D.set_entry(a, b, 3)
    with pytest.raises(NotSaturatedError):
        normal_form(D)


def test_normal_form_randomized_recovers_summands():
    rng = random.Random(17)
    for _trial in range(20):
        D = BasedComplex(Z4)
        srcs = [D.add_object(0, 0) for _ in range(4)]
        tgts = [D.add_object(1, 0) for _ in range(4)]
        k = rng.randint(0, 4)
        for i in range(k):
            D.set_entry(srcs[i], tgts[i], 2)
        # scramble by random slides
        for _ in range(10):
            x, y = rng.sample(srcs, 2)
            for t, v in list(D.out[y].items()):
                D.add_to_entry(x, t, v)
            u, w = rng.sample(tgts, 2)
            for z in list(D.inc[u]):
                D.add_to_entry(z, w, Z4.neg(D.out[z][u]))
        nf = normal_form(D)
        assert len(nf.elementary.get(0, ())) == k
        if __debug__:
            for a, row in D.out.items():
                assert all(v == 2 for v in row.values())


def test_figure2_normal_form_structure():
    D, ids = load_figure2()
    nf = normal_form(D)
    by_q = {
        q: sorted((ids_inv[s], ids_inv[t]) for s, t in pairs)
        for q, pairs in nf.elementary.items()
        for ids_inv in [{v: k for k, v in ids.items()}]
    }
    assert by_q[-3] == [(3, 9), (15, 2), (18, 4)]
    assert by_q[-1] == [(19, 6), (20, 7)]
    assert set(by_q) == {-3, -1}
    assert nf.slides == 0  # the printed figure is already in normal form


def test_figure2_sq1_image():
    D, ids = load_figure2()
    nf = normal_form(D)
    inv = {v: k for k, v in ids.items()}
    img_m1 = sorted(inv[g] for g in sq1_image(D, nf, -1))
    assert img_m1 == [6, 7]
    img_m3 = sorted(inv[g] for g in sq1_image(D, nf, -3))
    assert img_m3 == [2, 4]
    assert sq1_image(D, nf, 1) == []


def test_figure2_intersections_and_survival():
    D, ids = load_figure2()
    nf = normal_form(D)
    E = base_change(D, F2)
    # generator ids carry over unchanged
    gid_map = {g: g for g in E.h}
    inv = {v: k for k, v in ids.items()}

    image = [gid_map[g] for g in sq1_image(D, nf, -1)]
    R = intersect_with_p(E, -1, image)
    spanned = {frozenset(inv[gid_map_inv] for gid_map_inv in cls) for cls in R}
    # both classes are filtered cocycles, so the whole span is retained
    assert len(R) == 2
    assert any(survives_quotient(E, 1, cls) for cls in R)

    image3 = [gid_map[g] for g in sq1_image(D, nf, -3)]
    S = intersect_with_p(E, -3, image3)
    assert len(S) == 2
    assert any(survives_quotient(E, -1, cls) for cls in S)
    # generator 4 alone is a coboundary in the low quotient, 2 survives
    g4 = {gid_map[ids[4]]}
    g2 = {gid_map[ids[2]]}
    assert not survives_quotient(E, -1, g4)
    assert survives_quotient(E, -1, g2)


def test_figure2_half_refinement_positive_side():
    D, _ids = load_figure2()
    s_f2, r_plus, s_plus = half_refinement_from_based(D)
    assert s_f2 == -2
    assert r_plus == 0 and s_plus == 0


def test_figure2_full_quadruple_via_flip():
    # the dual is taken before the first half's slides consume D
    D, _ids = load_figure2()
    dual = D.flipped()
    s_f2, r_plus, s_plus = half_refinement_from_based(D)
    s_m, r_plus_m, s_plus_m = half_refinement_from_based(dual)
    assert s_m == -s_f2 == 2
    quad = Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)
    assert quad == (0, 0, -2, -2)


def _two_normal_form_refine(C):
    """refine_scanned with the dual taken before the first half's slides."""
    D = base_change(C, Z4)
    dual = D.flipped()
    s_f2, r_plus, s_plus = half_refinement_from_based(D)
    _s_m, r_plus_m, s_plus_m = half_refinement_from_based(dual)
    return s_f2, Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)


def test_the_dual_of_a_normal_form_needs_no_slides():
    # a normal form's equal-q blocks are partial permutations, and so are
    # their transposes: the dual's normal form runs its checks, slides
    # nothing, and the quadruple is that of two independent normal forms
    with open(os.path.join(DATA, "mixed_knots.txt")) as f:
        knots = {pd.name: pd for _ln, pd in parse_knot_file(f.read())}
    p355 = scan(scan_order(orient_and_sign(knots["P(3,5,5)"])), Z4, "sq1")
    for D in (load_figure2()[0], base_change(p355, Z4)):
        normal_form(D)
        assert normal_form(D.flipped()).slides == 0
    assert normal_form(base_change(p355, Z4)).slides > 0
    for pd in knots.values():
        C = scan(scan_order(orient_and_sign(pd)), Z4, "sq1")
        assert refine_scanned(C) == _two_normal_form_refine(C), pd.name


def test_refine_scanned_leaves_the_scanned_complex_as_it_was():
    # normal_form slides its complex in place, and the CLI dumps the
    # complex after refine_scanned has read it: the slides must run on a
    # copy.  P(3,5,5) is a knot whose normal form slides.
    with open(os.path.join(DATA, "mixed_knots.txt")) as f:
        knots = {pd.name: pd for _ln, pd in parse_knot_file(f.read())}
    C = scan(scan_order(orient_and_sign(knots["P(3,5,5)"])), Z4, "sq1")
    assert normal_form(base_change(C, Z4)).slides > 0
    before = dump(C)
    refine_scanned(C)
    assert dump(C) == before


def test_refine_on_torsion_free_knots_is_standard():
    for pd, s_expect in (
        (parse_pd(PD_TREFOIL), 2),
        (parse_pd(PD_FIGURE8), 0),
        (rational_pd([2, 2]), 0),
        (torus_pd(5), 4),
    ):
        s_f2, quad = refine(pd)
        assert s_f2 == s_expect
        assert quad == (s_expect,) * 4


def test_refine_bounds_and_mirror_relations():
    from bnscan.diagram import mirror_pd

    for pd in (parse_pd(PD_TREFOIL), rational_pd([3, 2]), torus_pd(7)):
        s_f2, quad = refine(pd)
        assert s_f2 <= quad.r_plus <= s_f2 + 2
        assert s_f2 <= quad.s_plus <= s_f2 + 2
        sm, quad_m = refine(mirror_pd(pd))
        assert sm == -s_f2
        assert quad_m.r_plus == -quad.r_minus
        assert quad_m.s_plus == -quad.s_minus


def test_mod2_reduction_matches_f2_scan_window():
    from bnscan.sinv import khovanov_table

    for pd in (parse_pd(PD_TREFOIL), rational_pd([2, 2])):
        so = scan_order(orient_and_sign(pd))
        D = scan(so, Z4, "sq1")
        E = base_change(D, F2)
        counts_z4 = {}
        for g, h in E.h.items():
            counts_z4[(h, E.q[g])] = counts_z4.get((h, E.q[g]), 0) + 1
        full = khovanov_table(scan(so, F2, "kh"))
        window = {k: v for k, v in full.items() if -2 <= k[0] <= 2}
        assert counts_z4 == window


def test_normal_form_checks_survive_optimized_mode():
    # a -> b -> c with both entries 2 at one quantum level is an
    # elementary chain of length 2, which normal_form must refuse even
    # when assert statements are compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.coeff import Z4\n"
        "from bnscan.sinv import BasedComplex, InconsistentError\n"
        "from bnscan.sq1 import normal_form\n"
        "D = BasedComplex(Z4)\n"
        "a, b, c = (D.add_object(h, 0) for h in (0, 1, 2))\n"
        "D.set_entry(a, b, 2)\n"
        "D.set_entry(b, c, 2)\n"
        "try:\n"
        "    normal_form(D)\n"
        "except InconsistentError:\n"
        "    raise SystemExit(3)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("filename", ["mixed_knots.txt", "k16.txt", "pairs.txt"])
def test_dual_complex_gives_the_quadruple_of_the_mirror_scan(filename):
    # refine reads the negative pair off the dual of the diagram's scan;
    # scanning the mirror diagram as well must give the same quadruple
    with open(os.path.join(DATA, filename)) as f:
        knots = [pd for _ln, pd in parse_knot_file(f.read())]
    assert knots
    for pd in knots:
        assert not isinstance(pd, Exception), pd
        s_f2, quad = refine(pd)
        assert (s_f2, quad) == two_scan_refine(pd), pd.name


def test_sq1_scan_keeps_no_more_low_generators_than_the_full_scan():
    # the sq1 window eliminates from one degree below the lowest it keeps,
    # as mode s does; eliminating from the lowest kept degree only leaves
    # P(3,5,5) with 1,792 generators in degree -2, where the full scan
    # ends with 6
    with open(os.path.join(DATA, "mixed_knots.txt")) as f:
        knots = [pd for _ln, pd in parse_knot_file(f.read())]
    assert knots
    for pd in knots:
        order = scan_order(orient_and_sign(pd))
        kept = scan(order, Z4, "sq1")
        full = scan(order, Z4, "kh")
        for h in (-2, -1):
            assert len(kept.objects_at(h)) <= len(full.objects_at(h)), (pd.name, h)


# -- the F2 quotient algebra against enumeration ------------------------------


def _span(vectors):
    """Every F2 combination of the vectors (sets), as frozensets."""
    out = {frozenset()}
    for v in vectors:
        out |= {c ^ frozenset(v) for c in out}
    return out


def _row(E, g, below=None):
    """The mod-2 coboundary of g, cut to quantum degrees below ``below``."""
    return frozenset(
        t for t, v in E.out[g].items()
        if v % 2 and (below is None or E.q[t] < below)
    )


@st.composite
def f2_complexes(draw):
    """A small mod-2 based complex in degrees -1, 0, 1 with filtered entries.

    Few quantum levels and few degree-1 generators make dependent
    coboundaries common.
    """
    E = BasedComplex(F2)
    ids = [
        E.add_object(h, q)
        for h, most in ((-1, 4), (0, 6), (1, 3))
        for q in draw(st.lists(st.integers(-1, 1), max_size=most))
    ]
    for a in ids:
        for b in ids:
            if E.h[b] == E.h[a] + 1 and E.q[b] >= E.q[a] and draw(st.booleans()):
                E.set_entry(a, b, F2.one)
    return E


@settings(max_examples=150, deadline=None)
@given(E=f2_complexes(), data=st.data())
def test_intersect_with_p_matches_enumeration(E, data):
    # the class combinations c at level q for which some degree-0 h above
    # q makes c + h a cocycle, found by trying every c and h
    zero = E.objects_at(0)
    if not zero:
        return
    q = data.draw(st.sampled_from(sorted({E.q[g] for g in zero})))
    level = [g for g in zero if E.q[g] == q]
    classes = data.draw(st.lists(st.sampled_from(level), unique=True))
    unknowns = classes + [g for g in zero if E.q[g] > q]
    expected = set()
    for mask in range(1 << len(unknowns)):
        chosen = [g for j, g in enumerate(unknowns) if (mask >> j) & 1]
        d = frozenset()
        for g in chosen:
            d ^= _row(E, g)
        if not d:
            expected.add(frozenset(g for g in chosen if g in classes))
    basis = intersect_with_p(E, q, classes)
    assert _span(basis) == expected
    assert len(_span(basis)) == 1 << len(basis)  # independent


@settings(max_examples=150, deadline=None)
@given(E=f2_complexes(), data=st.data())
def test_survives_quotient_matches_enumeration(E, data):
    # a class below the cut survives unless some combination of degree -1
    # generators below the cut has it as truncated coboundary
    q_cut = data.draw(st.integers(-1, 2))
    low = [g for g in E.objects_at(0) if E.q[g] < q_cut]
    cls = data.draw(st.frozensets(st.sampled_from(low))) if low else frozenset()
    sources = [z for z in E.objects_at(-1) if E.q[z] < q_cut]
    boundaries = _span([_row(E, z, q_cut) for z in sources])
    assert survives_quotient(E, q_cut, cls) == (bool(cls) and cls not in boundaries)
