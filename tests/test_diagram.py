import itertools

import pytest

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
)
from knotgen import (
    PD_FIGURE8,
    PD_TREFOIL,
    braid_pd,
    dt_from_pd,
    parse_knot_file,
    pretzel_pd,
    rational_pd,
    torus_pd,
)


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
    from bnscan.diagram import _contiguous_interface, _first_interface, _glued_boundary

    for perm in itertools.permutations(range(3)):
        boundary = ()
        ok = True
        girth = 0
        for step, ci in enumerate(perm):
            legs = od.pd.crossings[ci]
            iface = (
                _first_interface(legs)
                if step == 0
                else _contiguous_interface(boundary, legs)
            )
            if iface is None:
                ok = False
                break
            boundary = _glued_boundary(boundary, legs, iface)
            girth = max(girth, len(boundary))
        assert ok and boundary == () and girth == 4


def test_scan_order_kinked_unknot():
    od = orient_and_sign(parse_pd("PD[X[1,1,2,2]]"))
    so = scan_order(od)
    assert len(so.steps) == 1
    step = so.steps[0]
    assert step.self_pairs and step.boundary_after == ()


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
