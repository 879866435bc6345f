import glob
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from bnscan.cli import Job, run
from bnscan.coeff import F2, F3, Q, Z, Z4, Modular
from bnscan.complex import gauss_eliminate, reduce_pass, scan
from bnscan.diagram import mirror_pd, orient_and_sign, parse_pd, scan_order
from bnscan.sinv import (
    BasedComplex,
    InconsistentError,
    base_change,
    cancel_above,
    from_filtered,
    khovanov_table,
    read_s,
    s_from_based,
    s_invariant,
)
from bnscan.sq1 import _slide
from helpers import cancel_below, seifert_circles
from knotgen import PD_TREFOIL, braid_pd, parse_knot_file, rational_pd, torus_pd
from make_corpus import pd_text
from oracle_dense import khovanov_ranks

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_figure2(ring):
    with open(os.path.join(DATA, "figure2.json")) as f:
        fix = json.load(f)
    D = BasedComplex(ring)
    ids = {}
    for g, h, q in fix["generators"]:
        ids[g] = D.add_object(h, q)
    for a, b, c in fix["edges"]:
        D.set_entry(ids[a], ids[b], ring.from_int(c))
    return D, ids


def test_figure2_shape():
    D, ids = load_figure2(Z4)
    assert len(ids) == 20
    assert sorted(D.degrees()) == [-1, 0, 1]
    assert len(D.objects_at(0)) == 8 and len(D.objects_at(-1)) == 8
    D.check()


def test_figure2_f2_readoff_follows_the_worked_example():
    E, ids = load_figure2(F2)
    E.check()
    # first the degree-0 generator of largest quantum degree with nonzero
    # coboundary cancels into degree 1, then the other one
    cancel_above(E)
    assert ids[3] not in E.h and ids[10] not in E.h
    assert ids[1] not in E.h and ids[9] not in E.h
    survivors_mid = sorted(E.objects_at(0))
    assert len(survivors_mid) == 6
    # steps 9-10 are steps 7-8 on the dual complex
    F = cancel_above(E.flipped()).flipped()
    assert sorted(F.q[g] for g in F.objects_at(0)) == [-3, -1]
    assert read_s(F).s == -2


def test_figure2_unknown_signs_do_not_change_f2_answer():
    rng = random.Random(3)
    with open(os.path.join(DATA, "figure2.json")) as f:
        fix = json.load(f)
    for _ in range(10):
        D = BasedComplex(Z4)
        ids = {}
        for g, h, q in fix["generators"]:
            ids[g] = D.add_object(h, q)
        for a, b, c in fix["edges"]:
            sign = rng.choice((1, -1))
            D.set_entry(ids[a], ids[b], Z4.from_int(c * sign))
        E = base_change(D, F2)
        assert s_from_based(E).s == -2


def _random_filtered_slides(D, rng, count):
    """``count`` handle slides x -> x + u*y, q(y) >= q(x), u in {1, -1, 2}.

    A complex with at most one generator per degree, such as the reduced
    complex of a small knot, admits no slide and is left as it is.
    """
    degrees = [h for h in D.degrees() if len(D.objects_at(h)) > 1]
    for _ in range(count if degrees else 0):
        x, y = sorted(rng.sample(D.objects_at(rng.choice(degrees)), 2),
                      key=lambda g: D.q[g])
        _slide(D, x, y, D.ring.from_int(rng.choice((1, -1, 2))))
    D.check()
    return D


def test_the_dual_readoff_matches_the_readoff_from_below():
    # the readoff runs steps 9-10 as steps 7-8 on the dual complex, which
    # pairs each generator with its highest source instead of its lowest;
    # both are filtered changes of basis, so s agrees, also after random
    # filtered changes of basis of the input, on closed and on reduced
    # complexes; read_s tells them apart by parity alone, so every
    # generator of a reduced complex must sit at even q and every one of
    # a closed complex at odd q
    rng = random.Random(16)
    with open(os.path.join(DATA, "figure2.json")) as f:
        fix = json.load(f)
    cases = []
    for _ in range(10):
        D = BasedComplex(Z4)
        ids = {g: D.add_object(h, q) for g, h, q in fix["generators"]}
        for a, b, c in fix["edges"]:
            D.set_entry(ids[a], ids[b], Z4.from_int(c * rng.choice((1, -1))))
        cases.append(("figure2", base_change(D, F2)))
    for name in ("mixed_knots.txt", "k16.txt"):
        with open(os.path.join(DATA, name)) as f:
            pds = [pd for _line, pd in parse_knot_file(f.read())]
        for pd in pds:
            order = scan_order(orient_and_sign(pd))
            # the F2 scan is reduced; the closed F2 complex comes from Z
            closed = from_filtered(scan(order, Z, "s"))
            for parity, D in (
                (0, from_filtered(scan(order, F2, "s"))),
                (1, from_filtered(scan(order, Q, "s"))),
                (1, reduce_pass(base_change(closed, F2))),
            ):
                assert {q % 2 for q in D.q.values()} == {parity}, pd.name
                cases.append((pd.name, D))
    # one source hitting two degree-0 generators: the order of the lower
    # half decides which survives, and only the lower one may go
    D = BasedComplex(F2)
    src = D.add_object(-1, -5)
    for q in (-3, -1, 1):
        g = D.add_object(0, q)
        if q < 1:
            D.set_entry(src, g, F2.one)
    cases.append(("fork", D))
    assert len(cases) == 10 + 3 * 20 + 1
    for name, D in cases:
        for slides in (0, 4):
            E = _random_filtered_slides(base_change(D, D.ring), rng, slides)
            expected = read_s(cancel_below(cancel_above(base_change(E, E.ring))))
            assert s_from_based(E) == expected, (name, D.ring.name, slides)


def test_figure2_generator_count_matches_object_count():
    D, _ids = load_figure2(Z4)
    assert len(D.h) == 20


def test_unknot_based_complex():
    so = scan_order(orient_and_sign(parse_pd("PD[]")))
    D = from_filtered(scan(so, Q, "s"))
    assert sorted(D.q[g] for g in D.objects_at(0)) == [-1, 1]
    assert all(not D.out[g] for g in D.objects_at(0))
    assert s_from_based(D).s == 0


def test_read_s_requires_two_survivors():
    D = BasedComplex(Q)
    D.add_object(0, 1)
    with pytest.raises(InconsistentError):
        read_s(D)
    D.add_object(0, -1)
    assert read_s(D).s == 0
    D.add_object(0, 3)
    with pytest.raises(InconsistentError):
        read_s(D)


def test_read_s_rejects_wide_witness():
    D = BasedComplex(Q)
    D.add_object(0, 3)
    D.add_object(0, -1)
    with pytest.raises(InconsistentError):
        read_s(D)


def test_khovanov_table_torus():
    pd = torus_pd(3)
    od = orient_and_sign(pd)
    D = from_filtered(scan(scan_order(od), Q, "kh"))
    assert khovanov_table(D) == {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}


def test_f2_rank_dominates_q_rank():
    # universal coefficients: F2 ranks at least match Q ranks pointwise
    for pd in (torus_pd(3), rational_pd([2, 2]), rational_pd([3, 1, 1])):
        od = orient_and_sign(pd)
        so = scan_order(od)
        t2 = khovanov_table(from_filtered(scan(so, F2, "kh")))
        tq = khovanov_table(from_filtered(scan(so, Q, "kh")))
        for key, v in tq.items():
            assert t2.get(key, 0) >= v


def test_cancellation_partner_robustness():
    # within the maximal-q / minimal-q rules, any admissible partner gives
    # the same surviving quantum degrees
    rng = random.Random(9)
    pd = rational_pd([3, 2])
    so = scan_order(orient_and_sign(pd))
    base = None
    for trial in range(8):
        D = from_filtered(scan(so, F3, "s"))

        def rand_cancel_above(D):
            while True:
                cands = [g for g in D.objects_at(0) if D.out[g]]
                if not cands:
                    return
                qmax = max(D.q[g] for g in cands)
                g = rng.choice([x for x in cands if D.q[x] == qmax])
                partner = rng.choice(
                    [t for t in D.out[g] if D.ring.is_unit(D.out[g][t])]
                )
                gauss_eliminate(D, g, partner)

        def rand_cancel_below(D):
            while True:
                hit = {t for s in D.objects_at(-1) for t in D.out[s]}
                if not hit:
                    return
                qmin = min(D.q[t] for t in hit)
                g = rng.choice([t for t in hit if D.q[t] == qmin])
                partner = rng.choice(
                    [s for s in D.inc[g] if D.ring.is_unit(D.out[s][g])]
                )
                gauss_eliminate(D, partner, g)

        rand_cancel_above(D)
        rand_cancel_below(D)
        survivors = sorted(D.q[g] for g in D.objects_at(0))
        if base is None:
            base = survivors
        assert survivors == base
        assert read_s(D).s == survivors[0] + 1


def test_randomized_elimination_preserves_homology_ranks():
    # random small based complexes: cancelling unit pairs in random order
    # preserves homology, compared against a dense rank computation
    rng = random.Random(21)
    from oracle_dense import rank_mod_p

    for trial in range(25):
        n0, n1 = rng.randint(2, 5), rng.randint(2, 5)
        D = BasedComplex(F3)
        lows = [D.add_object(0, rng.randrange(-2, 3)) for _ in range(n0)]
        highs = [D.add_object(1, rng.randrange(-2, 3)) for _ in range(n1)]
        rows = []
        for i, a in enumerate(lows):
            row = {}
            for j, b in enumerate(highs):
                v = rng.choice((0, 0, 1, 2))
                if v:
                    D.set_entry(a, b, v)
                    row[j] = v
            rows.append(row)
        rank = rank_mod_p(rows, n1, 3)
        h0_expect = n0 - rank
        h1_expect = n1 - rank
        pairs = [
            (a, b)
            for a in list(D.h)
            if D.h.get(a) == 0
            for b in D.out.get(a, {})
        ]
        while True:
            cands = [
                (a, b)
                for a in D.objects_at(0)
                for b in D.out[a]
                if D.ring.is_unit(D.out[a][b])
            ]
            if not cands:
                break
            gauss_eliminate(D, *rng.choice(cands))
        assert all(not D.out[a] for a in D.objects_at(0))
        assert len(D.objects_at(0)) == h0_expect
        assert len(D.objects_at(1)) == h1_expect


def test_flipped_complex():
    D, ids = load_figure2(Z4)
    F = D.flipped()
    assert len(F.h) == 20
    assert sorted(F.degrees()) == [-1, 0, 1]
    total_entries = sum(len(r) for r in D.out.values())
    assert sum(len(r) for r in F.out.values()) == total_entries
    F.check()


def test_s_invariant_helper_and_short_circuit():
    from bnscan.sinv import s_invariant

    assert s_invariant(parse_pd("PD[]"), Q).s == 0
    assert s_invariant(parse_pd("PD[X[1,1,2,2]]"), F2).s == 0
    assert s_invariant(parse_pd(PD_TREFOIL), F3).s == 2


def test_s_readoff_refuses_a_non_field_ring():
    with pytest.raises(ValueError, match="needs a field, not ring 'z'"):
        s_invariant(parse_pd(PD_TREFOIL), Z)
    with pytest.raises(ValueError, match="needs a field, not ring 'z'"):
        s_invariant(parse_pd("PD[]"), Z)
    with pytest.raises(ValueError, match="needs a field, not ring 'z4'"):
        s_from_based(BasedComplex(Z4))


# --- one integral scan, finished per field -------------------------------------


def _closure(strands_word):
    strands, word = strands_word
    try:
        return braid_pd(word, strands)
    except ValueError:  # the closure is a link
        return None


braid_knots = (
    st.integers(2, 4)
    .flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.integers(1, k - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                min_size=1, max_size=11,
            ),
        )
    )
    .map(_closure)
    .filter(lambda pd: pd is not None)
)


@settings(max_examples=60, deadline=None)
@given(pd=braid_knots)
def test_integral_scan_finished_per_field_matches_the_field_scan(pd):
    # base change to the field, then reduce_pass on the equal-q units that
    # appear there: the s readoff and the homology table must be those of
    # the scan over the field itself
    order = scan_order(orient_and_sign(pd))
    for mode in ("s", "kh"):
        D = from_filtered(scan(order, Z, mode))
        for ring in (F2, F3, Modular(5), Q):
            E = reduce_pass(base_change(D, ring))
            direct = from_filtered(scan(order, ring, mode))
            if mode == "s":
                assert s_from_based(E) == s_from_based(direct)
            else:
                assert khovanov_table(E) == khovanov_table(direct)


def test_base_change_over_the_scan_ring_changes_nothing():
    order = scan_order(orient_and_sign(torus_pd(5)))
    for ring in (F3, Q):
        D = from_filtered(scan(order, ring, "s"))
        E = reduce_pass(base_change(D, ring))
        assert (E.q, E.h, E.out) == (D.q, D.h, D.out)


# --- checks that scale to large diagrams ------------------------------------

# a 24-crossing closure of a 5-strand braid, boundary girth 10
RB5_24 = (-2, 4, 1, 1, 1, 3, 4, -1, 2, -3, 4, 1, 4, -1, -2, 2, -4, -1, -3,
          2, 2, -3, -2, 4)


def test_mirror_negates_s_on_large_diagrams():
    # s(mK) = -s(K) compares two different scans of one knot, so it is an
    # oracle at any size
    pds = [braid_pd(RB5_24, 5, "rb5_24")]
    for name in ("k16.txt", "dt_braids.txt"):  # dt_braids: 20-40 crossings
        with open(os.path.join(DATA, name)) as f:
            pds += [pd for _line, pd in parse_knot_file(f.read())]
    assert len(pds) == 8
    for pd in pds:
        # over F2 both scans are reduced, over Q both are closed
        for ring in (F2, Q):
            s = s_invariant(pd, ring).s
            assert s_invariant(mirror_pd(pd), ring).s == -s, (pd.name, ring)


def test_reduced_f2_scan_agrees_with_the_closed_scan_on_the_corpora():
    # F2 alone scans the reduced complex (the knot cut open at a marked
    # point), rings f2,q scan the closed complex over Z: s over F2 must
    # agree on every row, which checks in code that Bar-Natan's theory
    # splits over F2 (the mirror check above runs the reduced path too)
    checked = 0
    for path in sorted(glob.glob(os.path.join(DATA, "*.txt"))):
        reduced = run(Job(path, "s", ("f2",)))
        closed = run(Job(path, "s", ("f2", "q")))
        assert [r.name for r in reduced] == [r.name for r in closed]
        for r, c in zip(reduced, closed):
            assert r.error is None and c.error is None, (r.name, r.error, c.error)
            assert r.s_values == {"f2": c.s_values["f2"]}, r.name
            checked += 1
    assert checked == 396


# a 28-crossing closure of a 5-strand braid, writhe 4
C28A = (-3, 4, 1, 4, 2, -3, 2, 1, 1, 4, -2, -4, -3, -1, -4, 3, 2, 4, 4, 1,
        -2, -2, -1, -4, -1, 4, 4, 4)


def test_both_scan_rings_agree_on_a_28_crossing_closure(tmp_path):
    # The CLI scans over Z for the rings f2,q and over F2 for f2 alone;
    # both must give s = 4, the mirror over F2 -4, and s must lie in the
    # slice-Bennequin sandwich w - 4 <= s <= w + 4 of a closed 5-strand
    # braid of writhe 4
    pd = braid_pd(C28A, 5, "c28a")
    od = orient_and_sign(pd)
    assert (pd.n, od.writhe, seifert_circles(od)) == (28, 4, 5)
    knot, both = tmp_path / "c28a.txt", tmp_path / "c28a_and_mirror.txt"
    knot.write_text(f"c28a ; {pd_text(pd)}\n")
    both.write_text(f"c28a ; {pd_text(pd)}\nm ; {pd_text(mirror_pd(pd))}\n")
    (over_z,) = run(Job(str(knot), "s", ("f2", "q")))
    over_f2, mirror = run(Job(str(both), "s", ("f2",)))
    assert over_z.s_values == {"f2": 4, "q": 4}, over_z.error
    assert over_f2.s_values == {"f2": 4}, over_f2.error
    assert mirror.s_values == {"f2": -4}, mirror.error
    assert 0 <= over_f2.s_values["f2"] <= 8


# another 28-crossing closure of a 5-strand braid, writhe 6
C28B = (-3, 2, 2, -3, 2, 1, 4, 1, 1, -3, 2, 2, -3, -3, -3, -2, 4, 1, 3, -1,
        3, 1, 2, 2, -4, 1, -3, -2)


def test_reduced_f2_scan_on_a_second_28_crossing_closure(tmp_path):
    # F2 alone takes the reduced scan: s = 4, the mirror -4, and s lies in
    # the slice-Bennequin sandwich w - 4 <= s <= w + 4 of a closed
    # 5-strand braid of writhe 6; the closed scan over Z gives 4 too, but
    # takes about twice as long, so it is left out here
    pd = braid_pd(C28B, 5, "c28b")
    od = orient_and_sign(pd)
    assert (pd.n, od.writhe, seifert_circles(od)) == (28, 6, 5)
    both = tmp_path / "c28b_and_mirror.txt"
    both.write_text(f"c28b ; {pd_text(pd)}\nm ; {pd_text(mirror_pd(pd))}\n")
    knot, mirror = run(Job(str(both), "s", ("f2",)))
    assert knot.s_values == {"f2": 4}, knot.error
    assert mirror.s_values == {"f2": -4}, mirror.error
    assert 2 <= knot.s_values["f2"] <= 10


def test_slice_bennequin_sandwich_on_braid_closures():
    # A diagram D with writhe w and O Seifert circles has
    # w - O + 1 <= s <= w + O - 1 over Q (Plamenevskaya, MRL 2006;
    # Shumakovitch, JKTR 2007); a closed b-strand braid has O = b.
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        strands = rng.randint(3, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(6, 16))]
        try:
            pd = braid_pd(word, strands)
        except ValueError:  # the closure is a link or splits
            continue
        od = orient_and_sign(pd)
        assert seifert_circles(od) == strands, (strands, word)
        w = od.writhe
        s = s_invariant(pd, Q).s
        assert w - strands + 1 <= s <= w + strands - 1, (strands, word, s)
        checked += 1


def test_slice_bennequin_sandwich_on_the_corpora():
    # the same bounds over Q on every diagram of the test corpora, with O
    # counted from the oriented smoothing
    checked = 0
    for path in sorted(glob.glob(os.path.join(DATA, "*.txt"))):
        with open(path) as f:
            for _line, pd in parse_knot_file(f.read()):
                od = orient_and_sign(pd)
                w, o = od.writhe, seifert_circles(od)
                s = s_invariant(pd, Q).s
                assert w - o + 1 <= s <= w + o - 1, (pd.name, w, o, s)
                checked += 1
    assert checked == 396
