import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bnscan import cob, complex as complex_mod
from bnscan.coeff import F2, F3, Q, Z, Z4
from bnscan.cob import (
    SRC,
    TGT,
    Cob,
    MismatchError,
    NoCircleError,
    NotClosedError,
    Tangle,
    compose,
    deloop_iso,
    evaluate,
    glue_cobs,
    glue_tangles,
    identity_cob,
)
from bnscan.complex import dump, scan, tensor_with_crossing
from bnscan.diagram import orient_and_sign, parse_pd, scan_order
from helpers import (
    ARC,
    CIRCLE,
    arcs,
    cob_from_comps,
    comps_of,
    compose_comps,
    cycles_of,
    deloop_maps,
    glue_comps,
    glued_at,
    neck_cut_deloop_maps,
    reduce_groups,
    reference_glue,
    shape_cycles,
)
from knotgen import PD_FIGURE8, PD_TREFOIL, braid_pd, pretzel_pd, rational_pd
from oracle_frobenius import run_moves


def empty_tangle(qshift=0, circles=0):
    return Tangle((), circles, qshift)


def reduce_surface(ring, src, tgt, comps, coeff, hpow=0):
    """Reduce one dotted surface into canonical summands.

    ``comps`` lists components as (ends, dots, chi) with arbitrary dot
    counts and Euler characteristics (so handles and multi-cycle
    components are allowed); the result maps canonical summand keys to
    coefficients, applying the sphere, dot and neck-cutting relations.
    """
    groups = [(set(ends), dots, chi) for ends, dots, chi in comps]
    out: dict = {}
    reduce_groups(ring, groups, coeff, hpow, src, tgt, out)
    return out


# --- helpers: elementary cobordisms on the circles of a tangle ------------


def _annuli(csrc, ctgt, skip_src=(), index_shift=None):
    groups = []
    for j in range(csrc):
        if j in skip_src:
            continue
        tj = index_shift(j) if index_shift else j
        groups.append(({(SRC, CIRCLE, j), (TGT, CIRCLE, tj)}, 0, 0))
    return groups


SADDLE_FLIP = {(3, 2, 1, 0): (1, 0, 3, 2), (1, 0, 3, 2): (3, 2, 1, 0)}


# chi - n/2 - 2 * dots of each elementary move; strips and annuli have
# degree 0, and a dotted birth or death has one dot more
MOVE_DEGREE = {
    "saddle": -1, "birth": 1, "death": 1, "dot": -2, "merge": -1, "split": -1,
}


def elem_cob(ring, move, src_circles, dotted=False, match=(), qshift=0):
    """Package cobordism for one elementary move on the circles of a tangle.

    The arcs of ``match`` (none by default) run along as strips, except
    under the move ("saddle",), which turns the matching (3, 2, 1, 0) into
    (1, 0, 3, 2) or back by one saddle and leaves the circles alone.  The
    source sits at quantum shift ``qshift`` and the target at ``qshift``
    minus the surface's degree, which makes the map homogeneous.  Returns
    (cob, tgt_circle_count, index_map) with index_map sending a source
    circle index to its target index (or None if it vanished).
    """
    c = src_circles
    op = move[0]
    src = Tangle(match, c, qshift)
    arcs = [({(SRC, ARC, i), (TGT, ARC, i)}, 0, 1) for i in range(len(match) // 2)]
    if op == "saddle":
        tgt = Tangle(SADDLE_FLIP[match], c)
        arcs = [({(side, ARC, i) for side in (SRC, TGT) for i in (0, 1)}, 0, 1)]
        groups = _annuli(c, c)
        idx = {j: j for j in range(c)}
    elif op == "birth":
        tgt = Tangle(match, c + 1)
        groups = _annuli(c, c + 1) + [({(TGT, CIRCLE, c)}, 1 if dotted else 0, 1)]
        idx = {j: j for j in range(c)}
    elif op == "death":
        i = move[1]
        tgt = Tangle(match, c - 1)
        shift = lambda j: j if j < i else j - 1
        groups = _annuli(c, c - 1, skip_src=(i,), index_shift=shift)
        groups.append(({(SRC, CIRCLE, i)}, 1 if dotted else 0, 1))
        idx = {j: shift(j) for j in range(c) if j != i}
        idx[i] = None
    elif op == "dot":
        i = move[1]
        tgt = Tangle(match, c)
        groups = []
        for j in range(c):
            groups.append(({(SRC, CIRCLE, j), (TGT, CIRCLE, j)}, 1 if j == i else 0, 0))
        idx = {j: j for j in range(c)}
    elif op == "merge":
        a, b = sorted(move[1:3])
        tgt = Tangle(match, c - 1)
        shift = lambda j: j if j < b else j - 1
        groups = _annuli(c, c - 1, skip_src=(a, b), index_shift=shift)
        groups.append(
            ({(SRC, CIRCLE, a), (SRC, CIRCLE, b), (TGT, CIRCLE, shift(a))}, 0, -1)
        )
        idx = {j: shift(j) for j in range(c) if j not in (a, b)}
        idx[a] = shift(a)
        idx[b] = None
    elif op == "split":
        a = move[1]
        tgt = Tangle(match, c + 1)
        groups = _annuli(c, c + 1, skip_src=(a,))
        groups.append(
            ({(SRC, CIRCLE, a), (TGT, CIRCLE, a), (TGT, CIRCLE, c)}, 0, -1)
        )
        idx = {j: j for j in range(c)}
    else:
        raise ValueError(op)
    tgt = tgt._replace(qshift=qshift - MOVE_DEGREE[op] + (2 if dotted else 0))
    terms: dict = {}
    reduce_groups(ring, arcs + groups, ring.one, 0, src, tgt, terms)
    return cob_from_comps(src, tgt, terms), tgt.circles, idx


def closed_surface_cob(ring, moves):
    """Compose a move sequence (on named circles) into one package Cob."""
    names: list = []
    total = identity_cob(ring, empty_tangle())
    for mv in moves:
        op = mv[0]
        q = total.tgt.qshift
        if op == "birth":
            step, _c, _idx = elem_cob(ring, ("birth",), len(names), qshift=q)
            names = names + [mv[1]]
        elif op == "death":
            i = names.index(mv[1])
            step, _c, _idx = elem_cob(ring, ("death", i), len(names), qshift=q)
            names = [n for n in names if n != mv[1]]
        elif op == "dot":
            i = names.index(mv[1])
            step, _c, _idx = elem_cob(ring, ("dot", i), len(names), qshift=q)
        elif op == "merge":
            a, b = names.index(mv[1]), names.index(mv[2])
            lo, hi = sorted((a, b))
            step, _c, _idx = elem_cob(ring, ("merge", lo, hi), len(names), qshift=q)
            names = [n for k, n in enumerate(names) if k != hi]
            # the package keeps the lower index; relabel it with the name
            # the oracle keeps so later moves address the same circle
            names[lo] = mv[1]
        elif op == "split":
            a = names.index(mv[1])
            step, _c, _idx = elem_cob(ring, ("split", a), len(names), qshift=q)
            names = names + [mv[2]]
        total = compose(ring, step, total)
    assert not names
    return total


def _poly_of_closed(cob):
    out = {}
    for (comps, hpow), c in comps_of(cob).items():
        assert comps == ()
        out[hpow] = out.get(hpow, 0) + c
    return {h: c for h, c in out.items() if c}


# --- worked examples ---------------------------------------------------


def circle_tangle(circles=1, qshift=0):
    return empty_tangle(qshift, circles)


def test_compose_identity_law():
    t = Tangle((1, 0, 3, 2), circles=1, qshift=2)
    f, _, _ = elem_cob(Q, ("dot", 0), 1)
    idc = identity_cob(Q, f.src)
    assert compose(Q, f, idc).terms == f.terms
    idt = identity_cob(Q, f.tgt)
    assert compose(Q, idt, f).terms == f.terms
    idbig = identity_cob(Q, t)
    assert compose(Q, idbig, idbig).terms == idbig.terms


def test_dotted_death_after_birth_is_one():
    birth, _, _ = elem_cob(Z, ("birth",), 0)
    ddeath, _, _ = elem_cob(Z, ("death", 0), 1, dotted=True, qshift=-1)
    total = compose(Z, ddeath, birth)
    assert _poly_of_closed(total) == {0: 1}


def test_plain_sphere_is_zero():
    birth, _, _ = elem_cob(Z, ("birth",), 0)
    death, _, _ = elem_cob(Z, ("death", 0), 1, qshift=-1)
    assert compose(Z, death, birth).is_zero()


def test_dot_after_dot_is_h_times_dot():
    dot, _, _ = elem_cob(Z, ("dot", 0), 1)
    dot2, _, _ = elem_cob(Z, ("dot", 0), 1, qshift=2)
    twice = compose(Z, dot2, dot)
    # x^2 = xH: same dotted cylinder with hpow raised by one
    assert len(twice.terms) == 1
    ((comps, hpow), coeff) = next(iter(comps_of(twice).items()))
    assert hpow == 1 and coeff == 1
    assert {dot_flag for _ends, dot_flag in comps} == {1} or comps
    (single,) = [k for k in comps_of(dot)]
    assert comps == single[0]


def test_triple_dot_folds_into_hpow():
    dot, dot2, dot3 = (elem_cob(Z, ("dot", 0), 1, qshift=q)[0] for q in (0, 2, 4))
    twice = compose(Z, dot2, dot)
    triple = compose(Z, dot3, twice)
    # the oracle counts the powers of H itself
    expected = compose_comps(Z, dot3, twice)
    assert comps_of(triple) == expected
    ((comps, hpow), coeff) = next(iter(expected.items()))
    assert hpow == 2 and coeff == 1 and len(triple.terms) == 1
    assert comps == next(iter(comps_of(dot)))[0]


def test_closed_torus_evaluates_to_two():
    moves = [
        ("birth", "a"),
        ("split", "a", "b"),
        ("merge", "a", "b"),
        ("death", "a"),
    ]
    assert run_moves(moves) == {0: 2}
    total = closed_surface_cob(Z, moves)
    assert _poly_of_closed(total) == {0: 2}


def test_deloop_round_trip_identities():
    for t in (circle_tangle(1), Tangle((1, 0), 1, 3), circle_tangle(2, -1)):
        for ring in (Q, F2, F3):
            pp, pm, ip, im = deloop_maps(ring, t)
            tp, tm = pp.tgt, pm.tgt
            assert (ip.src, im.src) == (tp, tm)
            assert tp.qshift == t.qshift + 1 and tm.qshift == t.qshift - 1
            assert compose(ring, pp, ip).terms == identity_cob(ring, tp).terms
            assert compose(ring, pm, im).terms == identity_cob(ring, tm).terms
            assert compose(ring, pp, im).is_zero()
            assert compose(ring, pm, ip).is_zero()
            back = compose(ring, ip, pp).plus(ring, compose(ring, im, pm))
            assert back.terms == identity_cob(ring, t).terms


def test_deloop_on_bare_circle_gives_empty_objects():
    pp, pm, ip, im = deloop_maps(Q, circle_tangle(1, qshift=0))
    assert pp.tgt == ip.src == empty_tangle(1)
    assert pm.tgt == im.src == empty_tangle(-1)


def test_deloop_requires_circle():
    # deloop_iso takes the halves of the tangle it splits, and a tangle
    # without circles has none
    with pytest.raises(NoCircleError):
        empty_tangle().halves()
    assert circle_tangle(2, qshift=0).halves() == (
        Tangle((), 1, 1), Tangle((), 1, -1)
    )


def test_deloop_refuses_a_summand_without_the_disc():
    # a bare term on a circled tangle is not in canonical form; a dot
    # mask cannot hold it, so it is refused on the way in
    t = circle_tangle(1)
    with pytest.raises(ValueError, match="not one disc per cycle"):
        cob_from_comps(t, t, {((), 0): 1})


# Non-crossing matchings by number of boundary points.
MATCHINGS = {0: [()], 2: [(1, 0)], 4: [(1, 0, 3, 2), (3, 2, 1, 0)]}


def random_canonical_cob(ring, rng, src, tgt):
    """A random sum of reduced surfaces src -> tgt, tgt shifted to fit.

    Each surface joins the boundary cycles into components with random
    dots and genus, so neck-cutting spreads it over several summands,
    with coefficients such as 2 and -1.  Each surface takes the power of
    H that brings it to one common degree, and the target sits where
    that degree puts it.  The degrees are integers drawn from the
    surfaces alone, so every ring sees the same surfaces and objects.
    """
    ends = [
        (side, kind, i)
        for side, t in ((SRC, src), (TGT, tgt))
        for kind, count in ((ARC, len(arcs(t))), (CIRCLE, t.circles))
        for i in range(count)
    ]
    cycles = cycles_of(tuple(ends), src, tgt)
    surfaces = []
    for _ in range(rng.randint(1, 3)):
        parts: dict = {}
        for cyc in cycles:
            parts.setdefault(rng.randrange(len(cycles)), []).append(cyc)
        groups = [
            ({e for cyc in cs for e in cyc}, rng.randint(0, 2),
             2 - 2 * rng.randint(0, 1) - len(cs))
            for cs in parts.values()
        ]
        coeff = ring.from_int(rng.choice((1, 2, 3, -1)))
        # chi - n/2 - 2 * dots
        degree = sum(chi - 2 * dots for _e, dots, chi in groups) - src.n_points // 2
        surfaces.append((groups, coeff, degree))
    # H has degree -2; the lowest surface may take it too
    common = min(degree for _g, _c, degree in surfaces) - 2 * rng.randint(0, 1)
    tgt = Tangle(tgt.match, tgt.circles, src.qshift - common)
    terms: dict = {}
    for groups, coeff, degree in surfaces:
        reduce_groups(ring, groups, coeff, (degree - common) // 2, src, tgt, terms)
    return cob_from_comps(src, tgt, terms)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.sampled_from((0, 2, 4)),
    looped_circles=st.integers(1, 2),
    other_circles=st.integers(0, 2),
    side=st.sampled_from((SRC, TGT)),
)
def test_deloop_iso_matches_composition_with_neck_cut_maps(
    seed, n_points, looped_circles, other_circles, side
):
    rng = random.Random(seed)
    looped = Tangle(rng.choice(MATCHINGS[n_points]), looped_circles, rng.randint(-2, 2))
    other = Tangle(rng.choice(MATCHINGS[n_points]), other_circles, rng.randint(-2, 2))
    src, tgt = (other, looped) if side == TGT else (looped, other)
    for ring in (F2, Z4, F3, Q, Z):
        # the same surfaces in every ring
        f = random_canonical_cob(ring, random.Random(seed), src, tgt)
        t = f.tgt if side == TGT else f.src
        _objects, (pp, pm, ip, im) = neck_cut_deloop_maps(ring, t)
        if side == TGT:
            expected = (compose(ring, pp, f), compose(ring, pm, f))
        else:
            expected = (compose(ring, f, ip), compose(ring, f, im))
        got = deloop_iso(ring, f, side, t.halves())
        for g, e in zip(got, expected):
            assert (g.src, g.tgt, g.terms) == (e.src, e.tgt, e.terms)


def test_evaluate_identity_and_hpow():
    idemp = identity_cob(F2, empty_tangle(qshift=5))
    assert evaluate(F2, idemp) == (1, 0)
    src, tgt = empty_tangle(0), empty_tangle(2)
    i_cob = cob_from_comps(src, tgt, {((), 1): 1})
    assert evaluate(Z, i_cob) == (1, 2)
    from bnscan.coeff import Modular

    f5 = Modular(5)
    three_i2 = cob_from_comps(empty_tangle(0), empty_tangle(4), {((), 2): 3})
    assert evaluate(f5, three_i2) == (3, 4)
    # no power of H has an odd or a negative quantum jump, and a closed
    # cobordism has no cycle to carry a dot
    for jump, mask in ((1, 0), (-2, 0), (2, 1)):
        with pytest.raises(AssertionError):
            evaluate(Z, Cob(empty_tangle(0), empty_tangle(jump), {mask: 1}))


def test_evaluate_rejects_open_boundary():
    t = Tangle((1, 0))
    with pytest.raises(NotClosedError):
        evaluate(Q, identity_cob(Q, t))


def test_compose_mismatch_raises():
    f = identity_cob(Q, empty_tangle(0))
    g = identity_cob(Q, empty_tangle(2))
    with pytest.raises(MismatchError):
        compose(Q, g, f)


def test_degree_additivity_on_random_composables():
    rng = random.Random(7)
    summands = 0
    for _ in range(40):
        c = rng.randint(1, 3)
        moves = []
        alive = c
        seq = []
        for _k in range(rng.randint(1, 4)):
            ops = ["dot"]
            if alive >= 2:
                ops.append("merge")
            if alive >= 1:
                ops += ["split", "death"]
            op = rng.choice(ops)
            if op == "dot":
                seq.append(("dot", rng.randrange(alive)))
            elif op == "merge":
                a, b = rng.sample(range(alive), 2)
                seq.append(("merge", min(a, b), max(a, b)))
                alive -= 1
            elif op == "split":
                seq.append(("split", rng.randrange(alive)))
                alive += 1
            else:
                seq.append(("death", rng.randrange(alive)))
                alive -= 1
            if alive == 0:
                break
        cur, _, _ = elem_cob(Q, seq[0], c)
        for k, mv in enumerate(seq[1:], start=1):
            step, _, _ = elem_cob(Q, mv, cur.tgt.circles, qshift=cur.tgt.qshift)
            # The oracle counts the powers of H itself.  Degree is
            # chi - 2 * dots, and H has degree -2.  Every canonical
            # component here is a disc on one circle, so a summand has
            # degree sum(1 - 2 * dot) - 2 * hpow, and composition adds
            # degrees.
            expected_terms = compose_comps(Q, step, cur)
            expected = sum(MOVE_DEGREE[m[0]] for m in seq[:k + 1])
            for (comps, hpow), _coeff in expected_terms.items():
                assert sum(1 - 2 * d for _e, d in comps) - 2 * hpow == expected
            cur = compose(Q, step, cur)
            assert comps_of(cur) == expected_terms
        summands += len(cur.terms)
        assert cur.src.circles == c
    assert summands


def ring_image(ring, terms):
    """Integer terms mapped into the ring, zeros dropped."""
    out = {k: ring.from_int(v) for k, v in terms.items()}
    return {k: v for k, v in out.items() if not ring.is_zero(v)}


@settings(max_examples=80, deadline=None)
@given(
    circles=st.integers(0, 2),
    ops=st.lists(
        st.sampled_from(("saddle", "dot", "birth", "death", "split", "merge")),
        min_size=1, max_size=5,
    ),
    scales=st.lists(st.sampled_from((1, 2, 3, -1, 4, 6)), min_size=6, max_size=6),
)
def test_compose_table_hit_miss_and_uncached_reduction_agree(circles, ops, scales):
    # A chain of elementary moves on a 4-point tangle with circles.  The
    # first ring fills fresh plans and their tables (misses); later rings
    # and the repeated call read them (hits).  Scales such as 2, 4 and 6 vanish in some rings
    # only, and over Z/4Z a product of two 2s vanishes.
    results = {}
    with mock.patch.object(cob, "_COMPOSE_PLANS", {}):
        for ring in (F2, Z4, F3, Q, Z):
            cur = identity_cob(ring, Tangle((3, 2, 1, 0), circles))
            cur = cur.scaled(ring, ring.from_int(scales[0]))
            for op, k in zip(ops, scales[1:]):
                alive = cur.tgt.circles
                if op in ("saddle", "birth"):
                    mv = (op,)
                elif op == "merge" and alive >= 2:
                    mv = (op, 0, alive - 1)
                elif op != "merge" and alive:
                    mv = (op, alive - 1)
                else:
                    continue
                step, _, _ = elem_cob(
                    ring, mv, alive, match=cur.tgt.match, qshift=cur.tgt.qshift
                )
                step = step.scaled(ring, ring.from_int(k))
                expected = compose_comps(ring, step, cur)
                first = compose(ring, step, cur)
                assert comps_of(first) == expected
                assert comps_of(compose(ring, step, cur)) == expected
                cur = first
            results[ring] = cur.terms
    for ring, terms in results.items():
        assert terms == ring_image(ring, results[Z])


# --- gluing plans against the oracle -----------------------------------------


def random_matching(rng, n):
    """A random non-crossing matching of n points."""
    match = [None] * n

    def fill(lo, hi):
        while lo < hi:
            j = rng.randrange(lo + 1, hi, 2)
            match[lo], match[j] = j, lo
            fill(lo + 1, j)
            lo = j + 1

    fill(0, n)
    return tuple(match)


def random_tangle(rng, n_points, max_circles=2):
    return Tangle(
        random_matching(rng, n_points), rng.randint(0, max_circles), rng.randint(-2, 2)
    )


def random_interface(rng, m):
    """A planar interface between an m-point left side and a crossing piece.

    Returns (pairs, left_order, piece_order).  A run of left positions,
    consecutive around the boundary, is glued to a run of the piece's
    legs 0..3 in the opposite cyclic order.
    """
    j = rng.randrange(4)
    free = [(j + i) % 4 for i in range(4)]
    k = rng.randint(0, min(m, len(free)))
    start = rng.randrange(m) if m else 0
    glued = [(start + i) % m for i in range(k)]
    pairs = tuple(zip(glued, reversed(free[:k])))
    left_order = tuple(p for p in range(m) if p not in glued)
    return pairs, left_order, tuple(free[k:])


def test_cycles_are_numbered_in_the_order_of_the_end_tuples():
    # Every dot mask, plan key and dump depends on this order: the oracle
    # sorts the cycles by their ends, and cob._cycles numbers the arc
    # cycles by their least position, then the source and target circles.
    rng = random.Random(18)
    shapes = [(Tangle(()), Tangle(())), (Tangle((), 2), Tangle((), 1))]
    for _ in range(300):
        n_points = rng.choice((0, 2, 4, 6, 8, 10))
        shapes.append(tuple(random_tangle(rng, n_points, 3) for _ in range(2)))
    for src, tgt in shapes:
        n_arcs, cycle = cob._cycles(src.match, tgt.match)

        def number(side, kind, i):
            if kind == CIRCLE:
                return n_arcs + i + (src.circles if side == TGT else 0)
            return cycle[arcs(src if side == SRC else tgt)[i][0]]

        expected = shape_cycles(src, tgt)
        assert n_arcs + src.circles + tgt.circles == len(expected)
        assert [{number(*end) for end in cyc} for cyc in expected] == [
            {i} for i in range(len(expected))
        ]


def test_glue_tangles_matches_the_reference_gluing():
    # The matching, the circle count and the destination of every arc,
    # left positions first, then the legs: the least new position of a
    # glued arc, or n + c for glued circle c.  The scan glues onto
    # delooped objects only, so the left tangles carry no circles.
    rng = random.Random(18)
    closed_new_circles = 0
    for _ in range(600):
        n_points = rng.choice((0, 2, 4, 6, 8))
        left = random_tangle(rng, n_points, max_circles=0)
        piece = rng.choice(PIECES)
        iface = random_interface(rng, n_points)
        glued, end_map = glue_tangles(left, piece.match, *iface)
        ref, ref_map = reference_glue(left, piece.match, *iface)
        assert glued == ref
        n = len(ref.match)
        expected = []
        for tag, t in (("b", left), ("x", piece)):
            arc_at = {p: i for i, arc in enumerate(arcs(t)) for p in arc}
            for p in range(len(t.match)):
                kind, i = ref_map[tag, ARC, arc_at[p]]
                expected.append(arcs(ref)[i][0] if kind == ARC else n + i)
        assert end_map == tuple(expected)
        if ref.circles:
            closed_new_circles += 1
    assert closed_new_circles > 20


def test_glue_tangles_refuses_a_left_tangle_with_circles():
    pairs, left_order, piece_order = ((0, 1), (1, 0)), (), (2, 3)
    glued, _end_map = glue_tangles(Tangle((1, 0)), PIECES[0].match,
                                   pairs, left_order, piece_order)
    assert glued.circles == 0
    with pytest.raises(MismatchError):
        glue_tangles(Tangle((1, 0), 1), PIECES[0].match,
                     pairs, left_order, piece_order)


def check_compose(ring, g, f):
    assert comps_of(compose(ring, g, f)) == compose_comps(ring, g, f)


def check_deloop(ring, f):
    for side, t in ((TGT, f.tgt), (SRC, f.src)):
        if not t.circles:
            continue
        _objects, (pp, pm, ip, im) = neck_cut_deloop_maps(ring, t)
        got = deloop_iso(ring, f, side, t.halves())
        if side == TGT:
            expected = (compose_comps(ring, pp, f), compose_comps(ring, pm, f))
            ends = ((f.src, pp.tgt), (f.src, pm.tgt))
        else:
            expected = (compose_comps(ring, f, ip), compose_comps(ring, f, im))
            ends = ((ip.src, f.tgt), (im.src, f.tgt))
        for g, e, (src, tgt) in zip(got, expected, ends):
            assert (g.src, g.tgt, comps_of(g)) == (src, tgt, e)


PIECES = (Tangle((3, 2, 1, 0)), Tangle((1, 0, 3, 2)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.sampled_from((0, 2, 4, 6)),
    ops=st.lists(
        st.sampled_from(("saddle", "dot", "birth", "death", "split", "merge")),
        max_size=4,
    ),
)
def test_plans_match_the_oracle_over_every_ring(seed, n_points, ops):
    # Random surfaces with handles, multi-cycle components and closed
    # components (discs capping a middle circle from both sides), chains
    # of elementary moves, and gluings beside a crossing piece along a
    # random interface.  F2 fills the compose plans and the glue plans
    # with their tables first; the other rings read them.
    glue_tables: dict = {}
    with mock.patch.object(cob, "_COMPOSE_PLANS", {}):
        for ring in (F2, Z4, F3, Q, Z):
            rng = random.Random(seed)
            t0, t1, t2 = (random_tangle(rng, n_points) for _ in range(3))
            f = random_canonical_cob(ring, rng, t0, t1)
            g = random_canonical_cob(ring, rng, f.tgt, t2)
            check_compose(ring, g, f)
            cur = compose(ring, g, f)
            check_deloop(ring, cur)
            for op in ops:
                alive = cur.tgt.circles
                if op == "saddle" and cur.tgt.match in SADDLE_FLIP or op == "birth":
                    mv = (op,)
                elif op == "merge" and alive >= 2:
                    mv = (op, 0, alive - 1)
                elif op not in ("saddle", "merge", "birth") and alive:
                    mv = (op, rng.randrange(alive))
                else:
                    continue
                step, _, _ = elem_cob(
                    ring, mv, alive, match=cur.tgt.match, qshift=cur.tgt.qshift
                )
                check_compose(ring, step, cur)
                cur = compose(ring, step, cur)
                check_deloop(ring, cur)
            # the scan glues delooped objects only
            a, b = (random_tangle(rng, n_points, max_circles=0) for _ in range(2))
            f = random_canonical_cob(ring, rng, a, b)
            p, q = rng.choice(PIECES), rng.choice(PIECES)
            phi = random_canonical_cob(ring, rng, p, q)
            pairs, left_order, piece_order = random_interface(rng, n_points)
            infos = [
                glued_at(t, piece, pairs, left_order, piece_order)
                for t, piece in ((f.src, phi.src), (f.tgt, phi.tgt))
            ]
            got = glue_cobs(ring, f, phi, pairs, *infos, tables=glue_tables)
            assert (got.src, got.tgt) == (infos[0][0], infos[1][0])
            assert comps_of(got) == glue_comps(
                ring, f, phi, pairs, left_order, piece_order
            )


def test_products_and_delooping_leave_their_inputs_terms_alone():
    # The scan lets entries share one terms dict (the saddle entries of
    # same-shape objects), so no routine may write into an input's terms.
    rng = random.Random(20)
    for _ in range(150):
        ring = rng.choice((F2, Z4, F3, Q, Z))
        n_points = rng.choice((0, 2, 4, 6))
        t0, t1, t2 = (random_tangle(rng, n_points) for _ in range(3))
        f = random_canonical_cob(ring, rng, t0, t1)
        g = random_canonical_cob(ring, rng, f.tgt, t2)
        k = ring.from_int(rng.choice((1, -1, 2, 3)))
        fk = f.scaled(ring, k)
        a, b = (random_tangle(rng, n_points, max_circles=0) for _ in range(2))
        h = random_canonical_cob(ring, rng, a, b)
        phi = random_canonical_cob(ring, rng, rng.choice(PIECES), rng.choice(PIECES))
        iface = random_interface(rng, n_points)
        infos = [glued_at(t, p, *iface) for t, p in ((a, phi.src), (b, phi.tgt))]
        inputs = (f, g, fk, h, phi)
        before = [dict(c.terms) for c in inputs]
        f.plus(ring, fk)
        fk.plus(ring, f)
        f.scaled(ring, k)
        compose(ring, g, f)
        glue_cobs(ring, h, phi, iface[0], *infos, tables={})
        for side, t in ((TGT, f.tgt), (SRC, f.src)):
            if t.circles:
                deloop_iso(ring, f, side, t.halves())
        assert [c.terms for c in inputs] == before


# --- interned plans ---------------------------------------------------------


def _int_leaves(key):
    if isinstance(key, tuple):
        return all(_int_leaves(x) for x in key)
    return type(key) is int


def test_plans_are_interned_by_their_combinatorics():
    with (
        mock.patch.object(cob, "_PLANS", {}),
        mock.patch.object(cob, "_TABLES", {}),
        mock.patch.object(cob, "_INTERFACES", {}),
    ):
        # two discs on cycle 0 joined by an arc seam: one disc
        plan = cob._plan(1, [1, 1], [(0, 1, 1)])
        assert cob._plan(1, (1, 1), ((0, 1, 1),)) is plan
        assert plan.groups == ((1, 1, 0, (0,)),)
        # n_first is part of the key
        other = cob._plan(2, [1, 1], [(0, 1, 1)])
        assert other is not plan and other.groups == ((3, 0, 0, (0,)),)
        # a circle seam inside one surface changes the key, not the groups:
        # the two plans share one reduction table
        twin = cob._plan(1, [1, 1], [(0, 1, 1), (0, 1, 0)])
        assert twin is not plan and twin.groups == plan.groups
        assert twin.table is plan.table
        assert twin.reduce(1, 1) == plan.reduce(1, 1)
        # a scan interns plain int tuples, holding no tangle or end map
        for pd in (PD_TREFOIL, PD_FIGURE8):
            scan(scan_order(orient_and_sign(parse_pd(pd))), F2, "s")
        assert len(cob._PLANS) > 3
        assert all(_int_leaves(key) for key in cob._PLANS)
        assert all(
            cob._TABLES[p.groups] is p.table for p in cob._PLANS.values()
        )


def test_a_second_scan_of_a_diagram_glues_no_tangle():
    # The glued tangles and glue plans are kept per interface for the
    # process, so scanning the same diagram again glues no tangle and
    # leaves the same complex.
    order = scan_order(orient_and_sign(braid_pd([1, -2, 1, -2, 3, -2, 3], 4)))
    calls = []

    def counted(*args):
        calls.append(args)
        return glue_tangles(*args)

    with (
        mock.patch.object(cob, "_INTERFACES", {}),
        mock.patch.object(complex_mod, "glue_tangles", counted),
    ):
        first = dump(scan(order, F2, "s"))
        glued = len(calls)
        assert dump(scan(order, F2, "s")) == first
    assert glued and len(calls) == glued


def _checked_products(counts):
    """compose, glue_cobs, tensor_with_crossing and _plan for a checked scan.

    The products compare every result with the oracle, which takes the
    interface of its gluing from the tensor step that runs; ``_plan``
    counts the plans it finds interned and the ones it makes.
    """
    running = []  # the scan step being tensored

    def tensor_noting_the_step(C, step):
        running[:] = [step]
        return tensor_with_crossing(C, step)

    def checked_compose(ring, g, f):
        got = compose(ring, g, f)
        assert comps_of(got) == compose_comps(ring, g, f)
        counts["checked"] += 1
        return got

    def checked_glue(ring, f, phi, pairs, src_info, tgt_info, *, tables):
        got = glue_cobs(ring, f, phi, pairs, src_info, tgt_info, tables=tables)
        (step,) = running
        assert pairs == step.pairs
        assert comps_of(got) == glue_comps(
            ring, f, phi, pairs, step.left_order, step.piece_order
        )
        counts["checked"] += 1
        return got

    plan = cob._plan

    def counted_plan(n_first, parts, seams):
        key = (n_first, tuple(parts), tuple(seams))
        counts["interned" if key in cob._PLANS else "new"] += 1
        return plan(n_first, parts, seams)

    return checked_compose, checked_glue, tensor_noting_the_step, counted_plan


def test_interned_plans_filled_over_another_ring_match_the_oracle():
    # Each ring scans with the plans and reduction tables that a scan over
    # another ring made first; every product of its scan must equal the
    # pair-by-pair reduction.
    pds = [
        parse_pd(PD_TREFOIL),
        parse_pd(PD_FIGURE8),
        rational_pd([3, 2]),
        rational_pd([2, 1, 3]),
        braid_pd([1, 1, 2, -1, 2, 2], 3),
        braid_pd([1, -2, 1, -2, 3, -2, 3], 4),
        braid_pd([1, 1, -2, 1, 3, -2, 3], 4),
        braid_pd([3, -1, 2, -2, -1, 3, 1, 3, 2], 4),
        pretzel_pd(3, 3, 3),
    ]
    orders = [scan_order(orient_and_sign(pd)) for pd in pds]
    rings = (Z, F2, F3, Z4, Q)
    for ring, filler in zip(rings, rings[1:] + rings[:1]):
        counts = {"checked": 0, "interned": 0, "new": 0}
        compose_, glue_, tensor_, plan_ = _checked_products(counts)
        with (
            mock.patch.object(cob, "_PLANS", {}),
            mock.patch.object(cob, "_TABLES", {}),
            mock.patch.object(cob, "_COMPOSE_PLANS", {}),
            mock.patch.object(cob, "_INTERFACES", {}),
        ):
            for order in orders:
                scan(order, filler, "kh")
            filled = sum(len(t) for t in cob._TABLES.values())
            with (
                mock.patch.object(cob, "_COMPOSE_PLANS", {}),
                mock.patch.object(cob, "_INTERFACES", {}),
                mock.patch.object(cob, "_plan", plan_),
                mock.patch.object(complex_mod, "compose", compose_),
                mock.patch.object(complex_mod, "glue_cobs", glue_),
                mock.patch.object(complex_mod, "tensor_with_crossing", tensor_),
            ):
                for order in orders:
                    scan(order, ring, "kh")
        assert filled and counts["checked"], (ring, counts)
        assert counts["interned"] > counts["new"], (ring, counts)


# --- oracle equivalence ----------------------------------------------------


def random_closed_moves(rng, max_pieces=6):
    alive = []
    moves = []
    fresh = iter(range(100))
    moves.append(("birth", next(fresh)))
    alive.append(moves[-1][1])
    while len(moves) < max_pieces - len(alive):
        op = rng.choice(["birth", "dot", "merge", "split", "death"])
        if op == "birth":
            n = next(fresh)
            moves.append(("birth", n))
            alive.append(n)
        elif op == "dot" and alive:
            moves.append(("dot", rng.choice(alive)))
        elif op == "merge" and len(alive) >= 2:
            a, b = rng.sample(alive, 2)
            moves.append(("merge", a, b))
            alive.remove(b)
        elif op == "split" and alive:
            n = next(fresh)
            moves.append(("split", rng.choice(alive), n))
            alive.append(n)
        elif op == "death" and alive:
            a = rng.choice(alive)
            moves.append(("death", a))
            alive.remove(a)
    for a in list(alive):
        moves.append(("death", a))
    return moves


def test_oracle_equivalence_random_closed_surfaces():
    rng = random.Random(2024)
    for trial in range(150):
        moves = random_closed_moves(rng, max_pieces=rng.randint(2, 8))
        expected = run_moves(moves)
        got = _poly_of_closed(closed_surface_cob(Z, moves))
        assert got == expected, f"trial {trial}: {moves}"


def test_neck_cutting_relation_as_maps():
    # tube + H*(cap after cup) = dotted-cap after cup + cap after dotted-cup
    for start_exp in (0, 1):
        prep = [("birth", "z")] + ([("dot", "z")] if start_exp else [])
        close = [("death", "z"), ("dot", "z")]  # finish with dotted death

        def finish(mid):
            # evaluate as element: apply dotted death to read the value
            moves = prep + mid + [("dot", "z"), ("death", "z")]
            return run_moves(moves)

        tube = finish([])
        cupcap = finish([("death", "z"), ("birth", "z")])
        # H * cupcap: raise hpow by one
        lhs = dict(tube)
        for h, c in cupcap.items():
            lhs[h + 1] = lhs.get(h + 1, 0) + c
        rhs: dict = {}
        for h, c in finish([("dot", "z"), ("death", "z"), ("birth", "z")]).items():
            rhs[h] = rhs.get(h, 0) + c
        for h, c in finish([("death", "z"), ("birth", "z"), ("dot", "z")]).items():
            rhs[h] = rhs.get(h, 0) + c
        lhs = {h: c for h, c in lhs.items() if c}
        rhs = {h: c for h, c in rhs.items() if c}
        assert lhs == rhs


def test_reduce_confluence_random_cut_orders():
    # genus <= 2 with <= 3 dots: the canonical expansion must agree with
    # evaluating the same closed surface assembled in shuffled piece order
    rng = random.Random(5)
    for _ in range(60):
        g = rng.randint(0, 2)
        d = rng.randint(0, 3)
        moves = [("birth", "a")]
        for k in range(g):
            moves.append(("split", "a", f"h{k}"))
            moves.append(("merge", "a", f"h{k}"))
        for _k in range(d):
            moves.append(("dot", "a"))
        moves.append(("death", "a"))
        expected = run_moves(moves)
        got = _poly_of_closed(closed_surface_cob(Z, moves))
        assert got == expected


def test_identity_coefficient_detection():
    t = Tangle((1, 0, 3, 2), qshift=4)
    idc = identity_cob(F3, t)
    assert idc.identity_coefficient() == 1
    assert idc.scaled(F3, 2).identity_coefficient() == 2
    # both strips, the first one dotted, which lowers the degree by 2
    strips = [((SRC, ARC, i), (TGT, ARC, i)) for i in range(2)]
    dotted = {(((strips[0], 1), (strips[1], 0)), 0): 1}
    up = t._replace(qshift=6)
    assert cob_from_comps(t, up, dotted).identity_coefficient() is None
    assert Cob(t, up, {0: 1}).identity_coefficient() is None  # H times id
    # on a circle the dot-free summand is H times the cap after the cup
    circled = Tangle((1, 0), 1)
    assert Cob(circled, circled, {0: 1}).identity_coefficient() is None
    assert identity_cob(F3, up).identity_coefficient() == 1
    f = identity_cob(F3, t)
    g = Cob(t, up, {})
    assert g.identity_coefficient() is None


def test_reduce_surface_public_contract():
    t = empty_tangle()
    # plain sphere: chi = 2, closed, no dots: drops to zero
    assert reduce_surface(Z, t, t, [((), 0, 2)], 1) == {}
    # once-dotted sphere is the unit
    assert reduce_surface(Z, t, t, [((), 1, 2)], 1) == {((), 0): 1}
    # three dots fold into one dot and two powers of H
    c = empty_tangle(0, 1)
    ends = ((SRC, CIRCLE, 0), (TGT, CIRCLE, 0))
    out = reduce_surface(Z, c, c, [(ends, 3, 0)], 1)
    ((comps, hpow),) = list(out)
    assert out[(comps, hpow)] == 1
    assert hpow == 2 and all(d == 1 for _e, d in comps)
    # closed torus evaluates to 2
    assert reduce_surface(Z, t, t, [((), 0, 0)], 1) == {((), 0): 2}
