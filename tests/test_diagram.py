import glob
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bnscan import diagram
from bnscan.coeff import F2, Q
from bnscan.diagram import (
    DisconnectedError,
    NotAKnotError,
    ParseError,
    PDCode,
    mirror_pd,
    orient_and_sign,
    parse_dt,
    parse_knot_line,
    parse_pd,
    pd_from_dt,
    scan_order,
    trace_passages,
    validate_pd,
    without_kinks,
)
from bnscan.sinv import s_invariant
from knotgen import (
    PD_FIGURE8,
    PD_TREFOIL,
    add_kink,
    braid_pd,
    dt_from_pd,
    interlacement_connected,
    nested_kink_trefoil,
    parse_knot_file,
    pretzel_pd,
    rational_pd,
    torus_pd,
)
from helpers import reference_scan_order
from oracle_dt import search_pd_from_dt

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_parse_trefoil():
    pd = parse_pd(PD_TREFOIL)
    assert pd.n == 3
    assert pd.crossings[0] == (1, 4, 2, 5)


def test_parse_empty_unknot():
    pd = parse_pd("PD[]")
    assert pd.n == 0


def test_parse_rejects_bad_labels():
    with pytest.raises(ParseError):
        parse_pd("PD[X[1,1,2,3]]")
    with pytest.raises(ParseError):
        parse_pd("PD[X[1,2,3]]")
    with pytest.raises(ParseError):
        parse_pd("K[X[1,1,2,2]]")
    for body in ("X[1,2,3,4]X[3,4,1,2]", "X[1,2,2,1],", ",X[1,2,2,1]",
                 "X[X[1,2,2,1]]", "Y[1,2,2,1]", "X[-1,2,2,-1]"):
        with pytest.raises(ParseError):
            parse_pd(f"PD[{body}]")
    assert parse_pd("PD[]").crossings == ()
    assert parse_pd("PD[ X[1, 2,2,1] ]").crossings == ((1, 2, 2, 1),)


def test_parse_rejects_links():
    # Hopf link: two components
    with pytest.raises(NotAKnotError):
        parse_pd("PD[X[1,3,2,4],X[3,1,4,2]]")
    # split union of two kink unknots
    with pytest.raises(DisconnectedError):
        parse_pd("PD[X[1,1,2,2],X[3,3,4,4]]")


def test_orient_and_sign_trefoil():
    od = orient_and_sign(parse_pd(PD_TREFOIL))
    assert od.signs == (1, 1, 1)
    assert (od.n_plus, od.n_minus) == (3, 0)
    assert od.writhe == 3


def test_orient_and_sign_mirror_trefoil():
    od = orient_and_sign(mirror_pd(parse_pd(PD_TREFOIL)))
    assert (od.n_plus, od.n_minus) == (0, 3)


def test_mirror_involution_invariants():
    pd = parse_pd(PD_FIGURE8)
    od = orient_and_sign(pd)
    odm = orient_and_sign(mirror_pd(pd))
    assert (od.n_plus, od.n_minus) == (odm.n_minus, odm.n_plus)
    od2 = orient_and_sign(mirror_pd(mirror_pd(pd)))
    assert od2.signs == od.signs


def test_unknot_zero_crossings():
    od = orient_and_sign(parse_pd("PD[]"))
    assert (od.n_plus, od.n_minus) == (0, 0)
    assert scan_order(od).steps == ()


def test_figure8_signs():
    od = orient_and_sign(parse_pd(PD_FIGURE8))
    assert od.n_plus == 2 and od.n_minus == 2


def test_braid_generator_signs():
    od = orient_and_sign(braid_pd([1, 1, 1], 2))
    assert od.signs == (1, 1, 1)
    od = orient_and_sign(braid_pd([-1, -1, -1], 2))
    assert od.signs == (-1, -1, -1)


def test_scan_order_trefoil_girth():
    od = orient_and_sign(parse_pd(PD_TREFOIL))
    so = scan_order(od)
    assert sorted(s.crossing for s in so.steps) == [0, 1, 2]
    assert so.girth == 4
    assert so.steps[-1].boundary_after == ()


def test_scan_order_all_orders_close_trefoil():
    # every crossing order of the trefoil admits contiguous interfaces
    od = orient_and_sign(parse_pd(PD_TREFOIL))
    from helpers import FIRST_INTERFACE, _contiguous_interface, _glued_boundary

    for perm in itertools.permutations(range(3)):
        boundary = ()
        ok = True
        girth = 0
        for step, ci in enumerate(perm):
            legs = od.pd.crossings[ci]
            iface = (
                FIRST_INTERFACE if step == 0
                else _contiguous_interface(boundary, legs)
            )
            if iface is None:
                ok = False
                break
            boundary = _glued_boundary(boundary, legs, iface)
            girth = max(girth, len(boundary))
        assert ok and boundary == () and girth == 4


def test_scan_order_kinked_unknot():
    # the one crossing is a kink twice over: undone, it leaves no crossing
    od = orient_and_sign(parse_pd("PD[X[1,1,2,2]]"))
    so = scan_order(od)
    assert so.steps == ()
    assert so.diagram.pd.crossings == () and so.diagram.signs == ()
    assert (so.diagram.n_plus, so.diagram.n_minus) == (0, 0)


def test_without_kinks_keeps_kink_free_diagrams_and_undoes_nested_kinks():
    for pd in (parse_pd("PD[]"), parse_pd(PD_FIGURE8), torus_pd(7)):
        od = orient_and_sign(pd)
        assert without_kinks(od) is od
    trefoil = orient_and_sign(parse_pd(PD_TREFOIL))
    kinked = [add_kink(parse_pd(PD_TREFOIL), e, v) for e in (1, 4) for v in range(4)]
    # the inner kink sits on the outer one's loop edge, so the outer one
    # is a kink only once the inner one is undone
    kinked.append(nested_kink_trefoil())
    for pd in kinked:
        od = orient_and_sign(pd)
        plain = without_kinks(od)
        assert pd.n > 3 and plain.pd.n == 3
        # the moves keep the other crossings, their order and their signs,
        # and change only edge labels
        validate_pd(plain.pd)
        assert orient_and_sign(plain.pd).signs == plain.signs == od.signs[:3]
        assert (plain.n_plus, plain.n_minus) == (3, 0)
        labels = dict(zip(sum(plain.pd.crossings, ()), sum(trefoil.pd.crossings, ())))
        assert len(set(labels.values())) == len(labels) == 6
        assert tuple(tuple(labels[e] for e in x) for x in plain.pd.crossings) == (
            trefoil.pd.crossings
        )
        assert scan_order(od).diagram == plain


def test_scan_order_granny_blocks():
    # connected sum of two trefoils presented as two braid blocks
    pd = braid_pd([1, 1, 1, 2, 2, 2], 3, "granny")
    od = orient_and_sign(pd)
    so = scan_order(od)
    assert so.girth <= 6
    order = [s.crossing for s in so.steps]
    # the greedy girth minimizer finishes one block before the other
    first_block = set(order[:3])
    assert first_block in ({0, 1, 2}, {3, 4, 5})
    assert so.steps[-1].boundary_after == ()


def test_scan_order_prefixes_connected_and_cover():
    for pd in (
        parse_pd(PD_FIGURE8),
        torus_pd(7),
        rational_pd([3, 2]),
        pretzel_pd(3, 3, 3),
        braid_pd([3, -1, 2, -2, -1, 3, 1, 3, 2], 4),
    ):
        od = orient_and_sign(pd)
        so = scan_order(od)
        seen = set()
        edges_of = lambda ci: set(pd.crossings[ci])
        for i, step in enumerate(so.steps):
            if i > 0:
                assert edges_of(step.crossing) & set(step.boundary_before)
            seen.add(step.crossing)
        assert seen == set(range(pd.n))
        assert so.steps[-1].boundary_after == ()


def test_dt_round_trip_trefoil():
    pd = parse_pd(PD_TREFOIL)
    dt = dt_from_pd(pd)
    assert sorted(abs(e) for e in dt) == [2, 4, 6]
    pd2 = pd_from_dt(dt)
    od2 = orient_and_sign(pd2)
    # DT determines the knot up to mirror: same |writhe| for the trefoil
    assert abs(od2.writhe) == 3


def test_dt_round_trip_various():
    for pd in (
        parse_pd(PD_FIGURE8),
        torus_pd(5),
        rational_pd([2, 2]),
        rational_pd([3, 1, 1]),
        braid_pd([1, 1, -2, 1, -2, 2], 3),
        parse_pd("PD[X[1,1,2,2]]"),
    ):
        dt = dt_from_pd(pd)
        pd2 = pd_from_dt(dt)
        assert pd2.n == pd.n
        od, od2 = orient_and_sign(pd), orient_and_sign(pd2)
        assert abs(od2.writhe) == abs(od.writhe)
        # re-extracting the DT after the round trip is stable up to mirror
        dt3 = dt_from_pd(pd2)
        assert sorted(map(abs, dt3)) == sorted(map(abs, dt))


def test_parse_dt_text():
    pd = parse_dt("DT[4,6,2]")
    assert pd.n == 3
    with pytest.raises(ParseError):
        parse_dt("DT[4,6]")
    with pytest.raises(ParseError):
        parse_dt("DT[]")


def test_knot_file_parsing():
    text = """
# comment line
tref ; PD[X[1,4,2,5], X[3,6,4,1], X[5,2,6,3]]
bad ; PD[X[1,1,1,2]]
tor ; DT[4, 6, 2]
"""
    rows = parse_knot_file(text)
    assert len(rows) == 3
    assert isinstance(rows[0][1], PDCode) and rows[0][1].name == "tref"
    assert isinstance(rows[1][1], ParseError)
    assert isinstance(rows[2][1], PDCode)
    with pytest.raises(ParseError):
        parse_knot_line("no separator here")


def test_rational_pd_crossing_counts():
    for vec in ([3], [2, 2], [3, 2], [2, 1, 3], [4, 3]):
        pd = rational_pd(vec)
        assert pd.n == sum(vec)
        orient_and_sign(pd)


def test_pretzel_pd_valid():
    for pqr in ((3, 3, 3), (3, 3, 5), (1, 3, 3)):
        pd = pretzel_pd(*pqr)
        assert pd.n == sum(pqr)
        orient_and_sign(pd)


def test_orientation_reversal_keeps_signs():
    # reversing the knot orientation swaps in/out at every leg, i.e.
    # rotates each tuple by two; the signs must not change
    for pd in (parse_pd(PD_TREFOIL), parse_pd(PD_FIGURE8), rational_pd([3, 2])):
        reversed_pd = PDCode(
            tuple((c, d, a, b) for a, b, c, d in pd.crossings), pd.name
        )
        assert orient_and_sign(reversed_pd).signs == orient_and_sign(pd).signs


# --- DT realization against the exhaustive search ------------------------------


def _realize(parser, evens):
    try:
        return parser(evens)
    except (ParseError, NotAKnotError) as exc:
        return type(exc)


def _braid_dt(strands_word):
    strands, word = strands_word
    try:
        return dt_from_pd(braid_pd(word, strands))
    except ValueError:  # the closure is a link
        return None


random_dts = st.integers(1, 11).flatmap(
    lambda n: st.tuples(
        st.permutations(range(2, 2 * n + 1, 2)),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
).map(lambda t: [e if keep else -e for e, keep in zip(*t)])

braid_dts = (
    st.integers(2, 5)
    .flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.integers(1, k - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                min_size=1, max_size=11,
            ),
        )
    )
    .map(_braid_dt)
    .filter(lambda dt: dt is not None)
)


@settings(max_examples=150, deadline=None)
@given(evens=st.one_of(random_dts, braid_dts))
def test_parity_rule_matches_exhaustive_search(evens):
    # random sequences are mostly not realizable from 6 crossings on;
    # braid closures always are, kinks and composites included
    assert _realize(pd_from_dt, evens) == _realize(search_pd_from_dt, evens)


def _gauss(pd):
    """(crossing, passes over) along the strand, from the under-entry of 0."""
    return [(ci, leg in (1, 3)) for ci, leg in trace_passages(pd)]


def _dt_gauss(evens):
    """The same sequence read off a DT code, from crossing 0's under-visit.

    A positive entry makes the even passage the under-strand.
    """
    seq = {}
    for i, a in enumerate(evens):
        seq[2 * i + 1] = (i, a > 0)
        seq[abs(a)] = (i, a < 0)
    start = abs(evens[0]) if evens[0] > 0 else 1
    times = sorted(seq)
    return [seq[t] for t in times[start - 1:] + times[: start - 1]]


def _random_closures(rng, lengths):
    out = []
    for length in lengths:
        while True:
            strands = rng.randint(3, 6)
            if length % 2 != (strands - 1) % 2:
                continue
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
            try:
                out.append(braid_pd(word, strands))
                break
            except ValueError:
                continue
    return out


def test_dt_round_trips_on_corpora_and_large_closures():
    pds = []
    for path in sorted(glob.glob(os.path.join(DATA, "*.txt"))):
        with open(path) as f:
            pds += [pd for _line, pd in parse_knot_file(f.read()) if isinstance(pd, PDCode)]
    corpus_count = len(pds)
    pds += _random_closures(random.Random(4), range(20, 81, 4))
    connected = 0
    for pd in pds:
        if pd.n == 0:
            continue
        dt = dt_from_pd(pd)
        pd2 = pd_from_dt(dt)
        assert pd2.n == pd.n
        # the parsed diagram runs through the DT code's signed Gauss word
        assert _gauss(pd2) == _dt_gauss(dt)
        if interlacement_connected(dt):
            # then it is the original diagram or its mirror, crossing for
            # crossing: DT crossing i is the one first met at odd time 2i+1
            connected += 1
            signs = orient_and_sign(pd).signs
            signs2 = orient_and_sign(pd2).signs
            times = {}
            for t, (ci, _leg) in enumerate(trace_passages(pd), start=1):
                times.setdefault(ci, []).append(t)
            moved = [0] * pd.n
            for ci, ts in times.items():
                odd = next(t for t in ts if t % 2)
                moved[(odd - 1) // 2] = signs[ci]
            assert signs2 in (tuple(moved), tuple(-x for x in moved))
    # 396 corpus diagrams; 384 of the 412 codes have a connected graph
    assert corpus_count >= 396 and connected >= 384


def test_nonrealizable_dt_codes_raise_under_optimized_mode():
    # DT[4,6,8,10,2] breaks the parity rule; DT[4,8,2,10,6] satisfies it,
    # but the forced flips give 5 faces instead of 7, so only the face
    # count refuses it.  Both must raise with asserts compiled away.
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.diagram import ParseError, parse_dt\n"
        "for code, words in (('DT[4,6,8,10,2]', 'entries 2 and 1'),\n"
        "                    ('DT[4,8,2,10,6]', 'give 5 faces, not 7')):\n"
        "    try:\n"
        "        parse_dt(code)\n"
        "    except ParseError as exc:\n"
        "        if words not in str(exc):\n"
        "            raise SystemExit(5)\n"
        "    else:\n"
        "        raise SystemExit(6)\n"
        "raise SystemExit(3)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr


# --- scan order robustness --------------------------------------------------------


def test_scan_order_uses_no_stack_frame_per_crossing():
    od = orient_and_sign(torus_pd(151))
    depth = 0
    frame = sys._getframe()
    while frame:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        so = scan_order(od)
    finally:
        sys.setrecursionlimit(limit)
    assert len(so.steps) == 151 and so.steps[-1].boundary_after == ()


def _nonplanar_t231():
    """T(2,31) with one crossing reflected: one component, not planar."""
    xs = list(torus_pd(31).crossings)
    a, b, c, d = xs[15]
    xs[15] = (a, d, c, b)
    return PDCode(tuple(xs))


def _nugatory_dead_end():
    """Three trefoils joined by the single letters 2 and 4, on 6 strands.

    The greedy order scans the middle trefoil first, and then neither
    nugatory crossing, sigma_2 nor sigma_4, attaches along a contiguous
    stretch of the boundary: the one planar dead end known, left by one
    backtrack.
    """
    return braid_pd([3, 3, 3, 2, 1, 1, 1, 4, 5, 5, 5], 6)


def test_scan_order_backtracks_out_of_a_nugatory_dead_end(monkeypatch):
    # without a backtrack the search stops after the middle trefoil; with
    # its budget it finds an order, whose scan gives s = 6, the sum over
    # the three trefoils, over F2 (reduced) and Q (closed), and -6 for the
    # mirror
    od = orient_and_sign(_nugatory_dead_end())
    with monkeypatch.context() as m:
        m.setattr(diagram, "_BACKTRACK_BUDGET", 0)
        with pytest.raises(NotAKnotError, match="placed at most 3 of 11"):
            scan_order(od)
    assert len(scan_order(od).steps) == 11
    for pd, s in ((od.pd, 6), (mirror_pd(od.pd), -6)):
        assert [s_invariant(pd, ring).s for ring in (F2, Q)] == [s, s]


def test_scan_order_refuses_a_nonplanar_pd_within_its_budget():
    # Reflecting one crossing of T(2,31) keeps a one-component PD code
    # whose rotation system is not planar: the parser refuses it by its
    # face count, and the scan order, given the raw code, gives up within
    # its budget instead of backtracking through exponentially many
    # prefixes.
    pd = _nonplanar_t231()
    with pytest.raises(ParseError, match="its legs give 31 faces, not 33"):
        validate_pd(pd)
    with pytest.raises(NotAKnotError, match="gave up after 1000 backtracks"):
        scan_order(orient_and_sign(pd))


def _seeded_closures(rng, count, strands, letters, kinks=0):
    """``count`` knotted braid closures, each with up to ``kinks`` kinks."""
    out = []
    while len(out) < count:
        b = rng.randint(*strands)
        word = [rng.choice((1, -1)) * rng.randint(1, b - 1)
                for _ in range(rng.randint(*letters))]
        try:
            pd = braid_pd(word, b)
        except ValueError:  # the closure is a link
            continue
        for _ in range(rng.randint(0, kinks)):
            edges = sorted({e for x in pd.crossings for e in x})
            pd = add_kink(pd, rng.choice(edges), rng.randrange(4))
        out.append(pd)
    return out


def test_scan_order_matches_the_reference_search():
    # Candidates read off the boundary and a lookahead scored by
    # arithmetic must choose exactly the steps of the search that tries
    # every crossing and glues every lookahead candidate: on every corpus
    # diagram and its mirror, on 200 seeded braid closures, on T(2,101)
    # and on the one diagram known to make the search backtrack.
    # Closures on 6-8 strands often touch the boundary out of order, and
    # both searches run on the diagram with its kinks undone.
    pds = []
    for path in sorted(glob.glob(os.path.join(DATA, "*.txt"))):
        with open(path) as f:
            rows = parse_knot_file(f.read())
        for _line, pd in rows:
            if isinstance(pd, PDCode):
                pds += [pd, mirror_pd(pd)]
    corpus_count = len(pds)
    rng = random.Random(12)
    pds += _seeded_closures(rng, 200, (3, 5), (6, 40))
    pds += _seeded_closures(rng, 60, (6, 8), (6, 30))
    pds += _seeded_closures(rng, 60, (3, 5), (6, 20), kinks=4)
    pds += [torus_pd(101), _nugatory_dead_end()]
    for i, pd in enumerate(pds):
        od = orient_and_sign(pd)
        assert scan_order(od).steps == reference_scan_order(od).steps, (i, pd.name)
    assert corpus_count >= 792


def test_scan_order_and_the_reference_refuse_alike():
    od = orient_and_sign(_nonplanar_t231())
    errors = []
    for search in (scan_order, reference_scan_order):
        with pytest.raises(NotAKnotError) as info:
            search(od)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "having placed at most 30 of 31 crossings" in errors[0]
