"""Acceptance suite: one test per criterion, one printed line each.

Corpus files live under tests/data/ and are regenerated by
tests/make_corpus.py; every expected value is either paper data, a
closed-form formula, or recomputed by an independent oracle in this
directory.
"""

import json
import os
import time

import pytest

import bnscan.complex as cx
from bnscan.coeff import F2, F3, Q, Z4, ring_from_name
from bnscan.complex import gauss_eliminate, scan
from bnscan.diagram import (
    mirror_pd,
    orient_and_sign,
    parse_pd,
    scan_order,
)
from bnscan.sinv import (
    BasedComplex,
    khovanov_table,
    s_from_based,
)
from bnscan.sq1 import Sq1Quadruple, half_refinement_from_based, refine
from helpers import deloop_maps, strictly_raising
from knotgen import parse_knot_file, torus_pd
from oracle_dense import bn_s_invariant, khovanov_ranks
from oracle_signature import signature

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_corpus(filename):
    with open(os.path.join(DATA, filename)) as f:
        rows = parse_knot_file(f.read())
    out = []
    for _lineno, item in rows:
        assert not isinstance(item, Exception), item
        out.append(item)
    return out


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


def named_census():
    with open(os.path.join(DATA, "census_named.txt")) as f:
        rows = parse_knot_file(f.read())
    return {pd.name: pd for _ln, pd in rows if not isinstance(pd, Exception)}


def crossing_signs(pd):
    od = orient_and_sign(pd)
    return od.pd.crossings, od.signs


def s_of(pd, ring, mode="s"):
    so = scan_order(orient_and_sign(pd))
    return s_from_based(scan(so, ring, mode)).s


def is_alternating(pd):
    from bnscan.diagram import trace_passages

    passages = trace_passages(pd)
    pattern = [0 if leg == 0 else 1 for _c, leg in passages]
    n = len(pattern)
    return all(pattern[i] != pattern[(i + 1) % n] for i in range(n))


# --- criterion 1: the worked example ----------------------------------------


def test_criterion_1_worked_example_readoffs():
    t0 = time.perf_counter()
    D, _ids = load_figure2(Z4)
    s_f2, r_plus, s_plus = half_refinement_from_based(D)
    sm, r_plus_m, s_plus_m = half_refinement_from_based(D.flipped())
    quad = Sq1Quadruple(r_plus, s_plus, -r_plus_m, -s_plus_m)
    elapsed = time.perf_counter() - t0
    assert s_f2 == -2
    assert quad == (0, 0, -2, -2)
    assert elapsed < 5.0
    print(
        f"\nCRITERION 1 (worked-example readoffs): PASS "
        f"s_f2={s_f2} quad={tuple(quad)} in {elapsed:.2f}s"
    )


def test_criterion_1_named_knot_pipeline():
    census = named_census()
    if "14n19265" not in census:
        print("\nCRITERION 1 (named-knot pipeline): FAIL (census data unavailable)")
        pytest.fail(
            "the full-pipeline half of criterion 1 needs the census diagram "
            "of 14n19265; no census table ships with this environment (see "
            "tests/data/census_named.txt).  The quantum-filtration readoffs "
            "of the same example are covered by the Figure-based test above, "
            "which passes; only s over the rationals cannot be derived from "
            "published data (the printed normal-form figure admits no "
            "integer lift with two-dimensional degree-0 homology, so the "
            "rational value requires the actual diagram)."
        )
    pd = census["14n19265"]
    assert s_of(pd, Q) == 0
    assert s_of(pd, F2) == -2
    s_f2, quad = refine(pd)
    assert (s_f2, quad) == (-2, (0, 0, -2, -2))
    print("\nCRITERION 1 (named-knot pipeline): PASS")


# --- criterion 2: table regression -------------------------------------------

TABLE1 = {
    "14n22180": ((2, 2, 0, 0), 2, 0),
    "15n040226": ((2, 2, 0, 0), 0, 2),
    "15n041127": ((2, 2, 0, 0), 0, 2),
    "15n041140": ((0, 0, -2, -2), 0, -2),
    "15n048439": ((2, 2, 0, 0), 0, 2),
    "15n052310": ((2, 2, 0, 0), 0, 2),
    "15n084460": ((4, 4, 2, 2), 2, 4),
}


def test_criterion_2_table_regression():
    census = named_census()
    missing = [k for k in TABLE1 if k not in census]
    if missing:
        print("\nCRITERION 2 (table regression): FAIL (census data unavailable)")
        pytest.fail(
            f"criterion 2 needs census diagrams for {missing}; no census "
            "table ships with this environment (see tests/data/census_named.txt)"
        )
    t0 = time.perf_counter()
    for name, (quad_expect, s2_expect, s3_expect) in TABLE1.items():
        pd = census[name]
        s_f2, quad = refine(pd)
        assert s_f2 == s2_expect
        assert quad == quad_expect
        assert s_of(pd, F3) == s3_expect
    assert time.perf_counter() - t0 < 60.0
    print("\nCRITERION 2 (table regression): PASS")


# --- criterion 3: positive torus knots ----------------------------------------


def test_criterion_3_positive_knot_formula():
    t0 = time.perf_counter()
    for k in (3, 5, 7):
        pd = torus_pd(k)
        od = orient_and_sign(pd)
        assert od.n_minus == 0
        # the formula: s = -(circles of the all-0 resolution) + crossings + 1
        from oracle_dense import _resolution_circles

        reps, _of, _f = _resolution_circles(pd.crossings, (0,) * pd.n)
        expected = -len(reps) + pd.n + 1
        assert expected == k - 1
        for ring in (F2, F3, Q):
            assert s_of(pd, ring) == expected
    print(
        f"\nCRITERION 3 (positive-knot formula): PASS "
        f"T(2,3),T(2,5),T(2,7) -> 2,4,6 in {time.perf_counter()-t0:.2f}s"
    )


# --- criterion 4: alternating knots vs signature -------------------------------


def test_criterion_4_alternating_signature():
    t0 = time.perf_counter()
    knots = load_corpus("rational_upto10.txt")
    knots += [pd for pd in load_corpus("mixed_knots.txt")
              if pd.name.startswith(("P(", "T("))]
    checked = 0
    for pd in knots:
        if pd.n > 10 or not is_alternating(pd):
            continue
        crossings, signs = crossing_signs(pd)
        sigma = signature(crossings, signs)
        for ring in (F2, F3, Q):
            s_val = s_of(pd, ring)
            assert s_val == -sigma, (pd.name, ring.name, s_val, sigma)
        checked += 1
    assert checked >= 150
    print(
        f"\nCRITERION 4 (alternating corpus): PASS "
        f"{checked} knots, s = -sigma over f2, f3, q "
        f"in {time.perf_counter()-t0:.1f}s"
    )


# --- criterion 5: dense oracle equivalence -------------------------------------


def test_criterion_5_brute_force_oracle():
    t0 = time.perf_counter()
    knots = [
        pd
        for pd in load_corpus("rational_upto10.txt") + load_corpus("mixed_knots.txt")
        if pd.n <= 8
    ]
    assert len(knots) >= 30
    for pd in knots:
        crossings, signs = crossing_signs(pd)
        so = scan_order(orient_and_sign(pd))
        for ring, fld in ((F2, "f2"), (Q, "q")):
            mine = khovanov_table(scan(so, ring, "kh"))
            oracle = khovanov_ranks(crossings, signs, fld)
            assert mine == oracle, (pd.name, fld)
        s_scan = s_from_based(scan(so, F2, "s")).s
        assert s_scan == bn_s_invariant(crossings, signs, "f2"), pd.name
        if pd.n <= 6:
            for ring, fld in ((F3, "f3"), (Q, "q")):
                assert s_of(pd, ring) == bn_s_invariant(crossings, signs, fld)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"\nCRITERION 5 (dense oracle equivalence): PASS "
        f"{len(knots)} knots <= 8 crossings in {elapsed:.1f}s"
    )


# --- criterion 6: diagram invariance -------------------------------------------


def test_criterion_6_diagram_invariance():
    t0 = time.perf_counter()
    rows = load_corpus("pairs.txt")
    by_pair = {}
    for pd in rows:
        key, side = pd.name.rsplit("_", 1)
        by_pair.setdefault(key, {})[side] = pd
    pairs = [
        (v["a"], v["b"]) for v in by_pair.values() if set(v) == {"a", "b"}
    ]
    assert len(pairs) >= 20
    quad_budget = 25
    for i, (a, b) in enumerate(pairs):
        assert s_of(a, F2) == s_of(b, F2), (a.name, b.name)
        assert s_of(a, Q) == s_of(b, Q), (a.name, b.name)
        if i < quad_budget:
            sa, qa = refine(a)
            sb, qb = refine(b)
            assert (sa, qa) == (sb, qb), (a.name, b.name)
    print(
        f"\nCRITERION 6 (diagram invariance): PASS {len(pairs)} pairs "
        f"(quadruples on {min(quad_budget, len(pairs))}) "
        f"in {time.perf_counter()-t0:.1f}s"
    )


# --- criterion 7: structural invariants ----------------------------------------


def test_criterion_7_structural_invariants():
    import random

    from bnscan.cob import compose, identity_cob, Tangle
    from oracle_dense import rank_mod_p

    t0 = time.perf_counter()
    old = cx.DEBUG
    cx.DEBUG = True  # d^2 and filtration checks run after every stage
    try:
        for pd in (
            parse_pd("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"),
            load_corpus("rational_upto10.txt")[10],
            load_corpus("mixed_knots.txt")[0],
        ):
            so = scan_order(orient_and_sign(pd))
            for ring in (F2, F3, Q, Z4):
                C = scan(so, ring, "s")
                C.check()
                if ring.is_field:
                    assert strictly_raising(C), (pd.name, ring.name)
    finally:
        cx.DEBUG = old

    # deloop round trips compose to identities
    for t in (Tangle((), 1, 0), Tangle((1, 0), 1, 2), Tangle((), 2, -1)):
        for ring in (Q, F2, Z4):
            pp, pm, ip, im = deloop_maps(ring, t)
            tp, tm = pp.tgt, pm.tgt
            assert compose(ring, pp, ip).terms == identity_cob(ring, tp).terms
            assert compose(ring, pm, im).terms == identity_cob(ring, tm).terms
            assert compose(ring, pp, im).is_zero()
            assert compose(ring, pm, ip).is_zero()
            back = compose(ring, ip, pp).plus(ring, compose(ring, im, pm))
            assert back.terms == identity_cob(ring, t).terms

    # random unit-pair elimination preserves homology vs a dense reducer
    rng = random.Random(2)
    for _ in range(30):
        n0, n1 = rng.randint(2, 6), rng.randint(2, 6)
        D = BasedComplex(F3)
        lows = [D.add_object(0, 0) for _ in range(n0)]
        highs = [D.add_object(1, 0) for _ in range(n1)]
        rows = []
        for a in lows:
            row = {}
            for j, b in enumerate(highs):
                v = rng.choice((0, 0, 1, 2))
                if v:
                    D.set_entry(a, b, v)
                    row[j] = v
            rows.append(row)
        rank = rank_mod_p(rows, n1, 3)
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
        assert len(D.objects_at(0)) == n0 - rank
        assert len(D.objects_at(1)) == n1 - rank
    print(
        f"\nCRITERION 7 (structural invariants): PASS "
        f"in {time.perf_counter()-t0:.1f}s"
    )


# --- criterion 8: refinement bounds and mirror relations ------------------------


def test_criterion_8_bounds_suite():
    t0 = time.perf_counter()
    knots = [
        pd
        for pd in load_corpus("rational_upto10.txt")[::4]
        + load_corpus("mixed_knots.txt")
        if pd.n <= 12
    ]
    assert len(knots) >= 40
    degenerate_flags = []
    for pd in knots:
        s_f2, quad = refine(pd)
        assert s_f2 <= quad.r_plus <= s_f2 + 2, pd.name
        assert s_f2 <= quad.s_plus <= s_f2 + 2, pd.name
        sm, quad_m = refine(mirror_pd(pd))
        assert quad.r_minus == -quad_m.r_plus, pd.name
        assert quad.s_minus == -quad_m.s_plus, pd.name
        s_f3 = s_of(pd, F3)
        s_q = s_of(pd, Q)
        if s_f2 == s_f3 == s_q and quad != (s_f2,) * 4:
            degenerate_flags.append((pd.name, s_f2, quad))
    if degenerate_flags:
        print(f"\nflagged non-standard quadruples with equal s: {degenerate_flags}")
    print(
        f"\nCRITERION 8 (bounds suite): PASS {len(knots)} knots, "
        f"{len(degenerate_flags)} flagged, in {time.perf_counter()-t0:.1f}s"
    )


# --- criterion 9: engineering target --------------------------------------------


def test_criterion_9_engineering_target():
    (pd,) = load_corpus("k16.txt")
    assert pd.n == 16 and not is_alternating(pd)
    t0 = time.perf_counter()
    so = scan_order(orient_and_sign(pd))
    s_val = s_from_based(scan(so, F2, "s")).s
    elapsed = time.perf_counter() - t0
    print(
        f"\nCRITERION 9 (engineering target, informational): 16-crossing "
        f"mode-s over f2 finished in {elapsed:.2f}s (target < 60s), s = {s_val}"
    )
