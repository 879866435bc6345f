import os
import subprocess
import sys

import pytest

import bnscan.complex as cx
from bnscan.cob import (
    SRC,
    TGT,
    Cob,
    Tangle,
    compose,
    deloop_iso,
    glue_cobs,
    identity_cob,
)
from bnscan.coeff import F2, F3, Q, Z, Z4
from bnscan.complex import (
    MARKED_ARC,
    FilteredComplex,
    MismatchError,
    NotCancellableError,
    crossing_complex,
    deloop,
    drop_marked_dots,
    dump,
    gauss_eliminate,
    initial_complex,
    reduce_pass,
    scan,
    tensor_with_crossing,
)
from bnscan.diagram import orient_and_sign, parse_pd, scan_order
from bnscan.sinv import BasedComplex, from_filtered, khovanov_table, s_from_based
from helpers import (
    CIRCLE,
    cob_from_comps,
    comps_of,
    deloop_maps,
    glue_comps,
    glued_at,
    reduce_groups,
    strictly_raising,
)
from knotgen import (
    PD_FIGURE8,
    PD_TREFOIL,
    add_kink,
    braid_pd,
    nested_kink_trefoil,
    rational_pd,
    torus_pd,
)
from oracle_dense import bn_s_invariant, khovanov_ranks


@pytest.fixture(autouse=True)
def debug_checks():
    old = cx.DEBUG
    cx.DEBUG = True
    yield
    cx.DEBUG = old


def test_crossing_complex_shape():
    (t0, t1), saddle = crossing_complex(Q)
    assert t0.qshift == 0 and t1.qshift == 1
    assert t0.match == (3, 2, 1, 0) and t1.match == (1, 0, 3, 2)
    assert saddle.degree() == 1
    assert len(saddle.terms) == 1


def test_initial_complex_shifts():
    # positive trefoil: first tangle lands in degrees 0, 1 with q 3, 4
    pd = parse_pd(PD_TREFOIL)
    od = orient_and_sign(pd)
    so = scan_order(od)
    C = initial_complex(Q, od.n_plus, od.n_minus)
    C = tensor_with_crossing(C, so.steps[0])
    assert C.degrees() == [0, 1]
    (o0,) = C.objects_at(0)
    (o1,) = C.objects_at(1)
    assert C.obj[o0].qshift == 3 and C.obj[o1].qshift == 4

    # all-negative trefoil: degrees -3, -2 with q -6, -5
    odm = orient_and_sign(parse_pd("PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]"))
    assert odm.n_minus == 3
    som = scan_order(odm)
    Cm = initial_complex(Q, odm.n_plus, odm.n_minus)
    Cm = tensor_with_crossing(Cm, som.steps[0])
    assert Cm.degrees() == [-3, -2]
    (m0,) = Cm.objects_at(-3)
    (m1,) = Cm.objects_at(-2)
    assert Cm.obj[m0].qshift == -6 and Cm.obj[m1].qshift == -5


def test_tensor_rank_bound_and_mismatch():
    pd = parse_pd(PD_TREFOIL)
    od = orient_and_sign(pd)
    so = scan_order(od)
    C = initial_complex(Q, od.n_plus, od.n_minus)
    C = tensor_with_crossing(C, so.steps[0])
    for h in C.degrees():
        assert len(C.objects_at(h)) <= 2
    with pytest.raises(MismatchError):
        tensor_with_crossing(C, so.steps[0])  # interface for a 0-point boundary


def test_two_crossing_gluing_creates_circle():
    pd = parse_pd(PD_TREFOIL)
    od = orient_and_sign(pd)
    so = scan_order(od)
    C = initial_complex(Q, od.n_plus, od.n_minus)
    C = tensor_with_crossing(C, so.steps[0])
    C = tensor_with_crossing(C, so.steps[1])
    circles = [C.obj[o].circles for h in C.degrees() for o in C.objects_at(h)]
    assert any(c > 0 for c in circles)
    deloop(C)
    assert all(
        C.obj[o].circles == 0 for h in C.degrees() for o in C.objects_at(h)
    )


def test_deloop_splits_qshifts():
    C = FilteredComplex(Q)
    C.add_object(0, Tangle((), 1, 5))
    deloop(C)
    qs = sorted(C.obj[o].qshift for o in C.objects_at(0))
    assert qs == [4, 6]


def _circle_cyl(ring, dot=0, hpow=0):
    t = Tangle((), 1, 0)
    t2 = t._replace(qshift=2 * (dot + hpow))
    terms = {}
    reduce_groups(
        ring, [({(SRC, CIRCLE, 0), (TGT, CIRCLE, 0)}, dot, 0)], ring.one, hpow,
        t, t2, terms,
    )
    return cob_from_comps(t, t2, terms), t, t2


def _conjugated(ring, f):
    """{(a, b): p_a f i_b} over a, b in "+-", each read off by deloop_iso."""
    out = {}
    for b, f_i in zip("+-", deloop_iso(ring, f, SRC, f.src.halves())):
        for a, p_f_i in zip("+-", deloop_iso(ring, f_i, TGT, f_i.tgt.halves())):
            out[a, b] = p_f_i
    return out


def test_conjugated_plain_cylinder_is_diagonal():
    ring = Q
    t = Tangle((), 1, 0)
    pp, pm, ip, im = deloop_maps(ring, t)
    ident = identity_cob(ring, t)
    assert compose(ring, pp, compose(ring, ident, ip)).identity_coefficient() == 1
    assert compose(ring, pm, compose(ring, ident, im)).identity_coefficient() == 1
    assert compose(ring, pp, compose(ring, ident, im)).is_zero()
    assert compose(ring, pm, compose(ring, ident, ip)).is_zero()
    m = _conjugated(ring, ident)
    assert m["+", "+"].identity_coefficient() == 1
    assert m["-", "-"].identity_coefficient() == 1
    assert m["+", "-"].is_zero() and m["-", "+"].is_zero()


def test_conjugated_dotted_cylinder_matches_case_analysis():
    # the dotted cylinder conjugates to a lower-triangular matrix with an
    # identity on the diagonal and the grading-raising generator below
    ring = Q
    fdot, _t, _t2 = _circle_cyl(ring, dot=1)
    m = _conjugated(ring, fdot)
    assert m["+", "+"].is_zero()  # {+1} -> {+3} vanishes
    assert m["-", "+"].identity_coefficient() == 1  # {+1} -> {+1} identity
    ((comps, hpow), k) = next(iter(comps_of(m["-", "-"]).items()))
    assert comps == () and hpow == 1 and k == 1  # {-1} -> {+1} is I


def test_conjugated_hpow_cylinder_matches_case_analysis():
    ring = Q
    f_i, _t, _t2 = _circle_cyl(ring, hpow=1)
    m = _conjugated(ring, f_i)
    ((comps, hpow), k) = next(iter(comps_of(m["+", "+"]).items()))
    assert comps == () and hpow == 1 and k == 1  # {+1} -> {+3} is I
    assert m["-", "+"].is_zero()
    ((comps, hpow), k) = next(iter(comps_of(m["-", "-"]).items()))
    assert comps == () and hpow == 1 and k == 1  # {-1} -> {+1} is I


def test_gauss_two_term_identity_to_zero():
    C = FilteredComplex(Q)
    t = Tangle((1, 0), 0, 0)
    a = C.add_object(0, t)
    b = C.add_object(1, t)
    C.set_entry(a, b, identity_cob(Q, t))
    gauss_eliminate(C, a, b)
    assert len(C.obj) == 0


def test_gauss_square_cancels_to_zero_entry():
    # two sources, two targets, all entries the identity: cancelling one
    # pair corrects the opposite entry to 1 - 1 = 0 over F2
    C = FilteredComplex(F2)
    t = Tangle((1, 0), 0, 0)
    a1 = C.add_object(0, t)
    a2 = C.add_object(0, t)
    b1 = C.add_object(1, t)
    b2 = C.add_object(1, t)
    for x, y in ((a1, b1), (a1, b2), (a2, b1), (a2, b2)):
        C.set_entry(x, y, identity_cob(F2, t))
    gauss_eliminate(C, a1, b1)
    assert len(C.obj) == 2
    assert not C.out[a2], "corrected entry must vanish"


def test_gauss_rejects_non_identity():
    t = Tangle((1, 0), 0, 0)
    # present entries that are not a unit identity: a dotted strip, and
    # twice the identity over Z
    for ring, tgt, terms in ((Q, t._replace(qshift=2), {1: Q.one}), (Z, t, {0: Z.from_int(2)})):
        C = FilteredComplex(ring)
        a = C.add_object(0, t)
        b = C.add_object(1, tgt)
        C.set_entry(a, b, Cob(t, tgt, terms))
        with pytest.raises(NotCancellableError):
            gauss_eliminate(C, a, b)
        assert C.out[a][b].terms == terms
    # no entry at all
    C = FilteredComplex(Q)
    a = C.add_object(0, t)
    b = C.add_object(1, t._replace(qshift=2))
    with pytest.raises(NotCancellableError):
        gauss_eliminate(C, a, b)


def test_reduce_pass_saturates():
    for txt in (PD_TREFOIL, PD_FIGURE8):
        pd = parse_pd(txt)
        so = scan_order(orient_and_sign(pd))
        for ring in (F2, Q, Z4):
            C = scan(so, ring, mode="kh")
            for a, outs in C.out.items():
                for b, f in outs.items():
                    k = f.identity_coefficient()
                    assert k is None or not ring.is_unit(k)
            if ring.is_field:
                assert strictly_raising(C)


def test_scan_unknots_normalize():
    for txt in ("PD[]", "PD[X[1,1,2,2]]", "PD[X[2,1,1,2]]"):
        so = scan_order(orient_and_sign(parse_pd(txt)))
        C = scan(so, Q, mode="s")
        D = from_filtered(C)
        assert sorted(D.q[g] for g in D.objects_at(0)) == [-1, 1]
        assert s_from_based(D).s == 0


def test_scan_mode_s_final_window():
    pd = parse_pd(PD_FIGURE8)
    so = scan_order(orient_and_sign(pd))
    C = scan(so, F2, mode="s")
    assert all(-1 <= h <= 1 for h in C.degrees())


def test_scan_trefoil_full_matches_dense_oracle():
    pd = parse_pd(PD_TREFOIL)
    od = orient_and_sign(pd)
    so = scan_order(od)
    mine = khovanov_table(from_filtered(scan(so, F2, "kh")))
    oracle = khovanov_ranks(od.pd.crossings, od.signs, "f2")
    assert mine == oracle


@pytest.mark.parametrize(
    "maker",
    [
        lambda: torus_pd(5),
        lambda: rational_pd([2, 2]),
        lambda: rational_pd([3, 2]),
        lambda: braid_pd([1, 1, 1, 2, 2, 2], 3, "granny"),
        lambda: braid_pd([1, 1, 1, -2, -2, -2], 3, "square"),
        # kinks, which the scan order undoes first: the oracle reads the
        # kinked diagram as it is
        *(lambda v=v: add_kink(parse_pd(PD_TREFOIL), 1, v) for v in range(4)),
        nested_kink_trefoil,
        lambda: parse_pd("PD[X[1,1,2,2]]"),
    ],
)
def test_scan_vs_dense_oracle(maker):
    pd = maker()
    od = orient_and_sign(pd)
    so = scan_order(od)
    for ring, fld in ((F2, "f2"), (F3, "f3"), (Q, "q")):
        mine = khovanov_table(from_filtered(scan(so, ring, "kh")))
        assert mine == khovanov_ranks(od.pd.crossings, od.signs, fld)
    s_scan = s_from_based(from_filtered(scan(so, F2, "s"))).s
    assert s_scan == bn_s_invariant(od.pd.crossings, od.signs, "f2")
    # mode-s and mode-full agree on the invariant
    assert s_scan == s_from_based(from_filtered(scan(so, F2, "kh"))).s


def test_full_scan_two_generators_over_fields():
    # the saturated deformed complex of a knot has at least two generators
    # in homological degree 0 once restricted to mode-s windows; over F2
    # the scan stops at the knot cut open at a marked point, whose reduced
    # complex keeps at least one there, the survivor the readoff finds;
    # its grading tells it apart: even q where the closed ones have odd q
    pd = torus_pd(3)
    so = scan_order(orient_and_sign(pd))
    for ring, least in ((F2, 1), (F3, 2), (Q, 2)):
        D = from_filtered(scan(so, ring, "s"))
        assert {q % 2 for q in D.q.values()} == {0 if ring == F2 else 1}
        total_h0 = len(D.objects_at(0))
        assert total_h0 >= least


def test_dump_format():
    pd = parse_pd(PD_TREFOIL)
    so = scan_order(orient_and_sign(pd))
    C = scan(so, F2, mode="s")
    text = dump(C)
    lines = text.strip().splitlines()
    gens = [ln for ln in lines if len(ln.split()) == 3]
    entries = [ln for ln in lines if len(ln.split()) == 5]
    assert len(gens) == len(C.obj)
    assert len(gens) + len(entries) == len(lines)


def test_glue_tables_agree_with_the_reduction_over_the_ring():
    # Every entry and identity of each step, glued beside each piece map:
    # the rings scan in lockstep and share one step's tables, F2 filling
    # their plans first; each result is checked against the oracle, which
    # reduces pair by pair over the ring itself.
    rings = (F2, Z4, F3, Q)
    for pd in (PD_TREFOIL, PD_FIGURE8):
        order = scan_order(orient_and_sign(parse_pd(pd)))
        od = order.diagram
        scans = {r: initial_complex(r, od.n_plus, od.n_minus) for r in rings}
        for step in order.steps:
            tables: dict = {}
            for ring, C in scans.items():
                (t0, t1), saddle = crossing_complex(ring)
                entries = [f for outs in C.out.values() for f in outs.values()]
                entries += [identity_cob(ring, t) for t in C.obj.values()]
                for f in entries:
                    for phi in (identity_cob(ring, t0), identity_cob(ring, t1), saddle):
                        _check_glue(ring, f, phi, step, tables)
                C = tensor_with_crossing(C, step)
                scans[ring] = reduce_pass(deloop(C))


def _check_glue(ring, f, phi, step, tables):
    infos = [
        glued_at(t, piece, step.pairs, step.left_order, step.piece_order)
        for t, piece in ((f.src, phi.src), (f.tgt, phi.tgt))
    ]
    expected = glue_comps(
        ring, f, phi, step.pairs, step.left_order, step.piece_order
    )
    for _ in range(2):
        got = glue_cobs(ring, f, phi, step.pairs, *infos, tables=tables)
        assert comps_of(got) == expected


def _run_optimized(script, **env):
    """Run script under ``python -O`` with bnscan importable; the process."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_check_raises_under_optimized_mode():
    # a -> b -> d and a -> c -> d with entries 1, 1, 1, -1 square to zero;
    # flipping the -1 leaves d^2 = 2, which check() must report even when
    # assert statements are compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.coeff import Q\n"
        "from bnscan.sinv import BasedComplex, InconsistentError\n"
        "D = BasedComplex(Q)\n"
        "a, b, c, d = (D.add_object(h, 0) for h in (0, 1, 1, 2))\n"
        "for src, tgt, k in ((a, b, 1), (a, c, 1), (b, d, 1), (c, d, -1)):\n"
        "    D.set_entry(src, tgt, Q.from_int(k))\n"
        "D.check()\n"
        "D.set_entry(c, d, Q.one)\n"
        "try:\n"
        "    D.check()\n"
        "except InconsistentError:\n"
        "    raise SystemExit(3)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 3, proc.stderr


def test_check_raises_on_a_dot_beyond_the_cycles_under_optimized_mode():
    # an entry on a one-cycle shape dotted on bit 1 has no disc to carry
    # that dot, and a dotted entry of degree 0, or any entry of degree 1,
    # has no power of H to sit at; with BNSCAN_DEBUG the scan steps'
    # check() must refuse them even when assert statements are compiled
    # away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.cob import Cob, Tangle\n"
        "from bnscan.coeff import Q\n"
        "from bnscan.complex import DEBUG, FilteredComplex, InconsistentError, deloop\n"
        "if not DEBUG:\n"
        "    raise SystemExit(5)\n"
        "t = Tangle((1, 0), 0, 0)\n"
        "def refusal(tgt, mask):\n"
        "    C = FilteredComplex(Q)\n"
        "    a, b = C.add_object(0, t), C.add_object(1, tgt)\n"
        "    C.set_entry(a, b, Cob(t, tgt, {mask: Q.one}))\n"
        "    try:\n"
        "        deloop(C)\n"
        "    except InconsistentError as exc:\n"
        "        return str(exc)\n"
        "    return ''\n"
        "if refusal(t._replace(qshift=2), 1):\n"
        "    raise SystemExit(6)\n"
        "if 'a dot beyond its cycles' not in refusal(t._replace(qshift=2), 2):\n"
        "    raise SystemExit(7)\n"
        "for tgt, mask in ((t, 1), (t._replace(qshift=1), 0)):\n"
        "    if 'an H-power the grading cannot give' not in refusal(tgt, mask):\n"
        "        raise SystemExit(8)\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_optimized(script, BNSCAN_DEBUG="1")
    assert proc.returncode == 3, proc.stderr


def test_check_raises_on_incoherent_indexes_under_optimized_mode():
    # out and inc must list the same entries, and each entry must raise
    # the degree by one; check() must name each corruption even when
    # assert statements are compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.coeff import Q\n"
        "from bnscan.sinv import BasedComplex, InconsistentError\n"
        "corruptions = [\n"
        "    ('disagree on 0 -> 1', lambda D, a, b, c: D.inc[b].discard(a)),\n"
        "    ('disagree on 1 -> 2', lambda D, a, b, c: D.inc[c].add(b)),\n"
        "    ('entry 0 -> 2 skips a degree', lambda D, a, b, c: D.h.update({c: 2})),\n"
        "    ('hold different ids', lambda D, a, b, c: D.out.pop(c)),\n"
        "]\n"
        "for message, corrupt in corruptions:\n"
        "    D = BasedComplex(Q)\n"
        "    a, b, c, d = (D.add_object(h, 0) for h in (0, 1, 1, 2))\n"
        "    D.set_entry(a, b, Q.one)\n"
        "    D.set_entry(a, c, Q.one)\n"
        "    D.check()\n"
        "    corrupt(D, a, b, c)\n"
        "    try:\n"
        "        D.check()\n"
        "    except InconsistentError as exc:\n"
        "        if message not in str(exc):\n"
        "            raise SystemExit(f'expected {message!r}, got {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'check() missed: {message}')\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 3, proc.stderr


def test_reduced_scan_refuses_an_object_other_than_the_marked_arc_under_optimized_mode():
    # after the last deloop of a reduced scan every object must be the
    # marked arc without circles; drop_marked_dots must name any other
    # one even when assert statements are compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.cob import Tangle\n"
        "from bnscan.coeff import F2\n"
        "from bnscan.complex import (\n"
        "    MARKED_ARC, FilteredComplex, InconsistentError, drop_marked_dots,\n"
        ")\n"
        "for other in (Tangle(()), Tangle(MARKED_ARC, 1), Tangle((1, 0, 3, 2))):\n"
        "    C = FilteredComplex(F2)\n"
        "    C.add_object(0, Tangle(MARKED_ARC))\n"
        "    C.add_object(1, other)\n"
        "    try:\n"
        "        drop_marked_dots(C)\n"
        "    except InconsistentError as exc:\n"
        "        if 'not the marked arc' not in str(exc):\n"
        "            raise SystemExit(f'wrong message: {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'missed the object {other}')\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 3, proc.stderr


def test_reduced_scan_refuses_a_summand_beyond_the_marked_arc_under_optimized_mode():
    # between marked arcs a summand is the undotted strip (mask 0) or the
    # dotted one (mask 1), which is dropped; a mask with any other bit
    # would be kept or dropped wrongly, so it must be refused even when
    # assert statements are compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.cob import Cob, Tangle\n"
        "from bnscan.coeff import F2\n"
        "from bnscan.complex import (\n"
        "    MARKED_ARC, FilteredComplex, InconsistentError, drop_marked_dots,\n"
        ")\n"
        "arc = Tangle(MARKED_ARC)\n"
        "for terms in ({2: 1}, {0: 1, 2: 1}, {3: 1}):\n"
        "    C = FilteredComplex(F2)\n"
        "    a, b = C.add_object(0, arc), C.add_object(1, arc._replace(qshift=4))\n"
        "    C.set_entry(a, b, Cob(arc, arc._replace(qshift=4), terms))\n"
        "    try:\n"
        "        drop_marked_dots(C)\n"
        "    except InconsistentError as exc:\n"
        "        if 'other than the undotted one' not in str(exc):\n"
        "            raise SystemExit(f'wrong message: {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'missed the terms {terms}')\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 3, proc.stderr


def test_reduced_readoff_needs_one_survivor_at_even_q_under_optimized_mode():
    # a reduced complex keeps one degree-0 generator, at s, which is even
    # for a knot, and a closed one keeps two at odd q two apart; read_s
    # must refuse none, two at even q, one at odd q, two at odd q four
    # apart, or three, and name them, even when assert statements are
    # compiled away
    script = (
        "if __debug__:\n"
        "    raise SystemExit(4)\n"
        "from bnscan.coeff import F2\n"
        "from bnscan.sinv import BasedComplex, InconsistentError, read_s\n"
        "for qs in ((), (0, 2), (1,), (3, -1), (1, -1, 3)):\n"
        "    D = BasedComplex(F2)\n"
        "    D.add_object(-1, -4)\n"
        "    for q in qs:\n"
        "        D.add_object(0, q)\n"
        "    try:\n"
        "        read_s(D)\n"
        "    except InconsistentError as exc:\n"
        "        want = 'one survivor at even q or two at odd q two apart'\n"
        "        if want not in str(exc) or str(sorted(qs)) not in str(exc):\n"
        "            raise SystemExit(f'wrong message: {exc}')\n"
        "    else:\n"
        "        raise SystemExit(f'missed the survivors {qs}')\n"
        "raise SystemExit(3)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 3, proc.stderr


def test_reduced_scan_opens_the_last_pair_and_drops_the_dot_on_the_arc():
    # mode s over F2 ends at the marked arc, closed again once its dot is
    # dropped: every object is empty and every entry keeps only its
    # undotted summand, every generator sits at even q where those of the
    # closed scan (mode kh) sit at odd q, the survivor sits at s and stands
    # for the pair at s +- 1 of the closed scan, and a diagram without
    # crossings is the closed arc itself
    arc = Tangle(MARKED_ARC)
    for txt, s in (("PD[]", 0), ("PD[X[1,1,2,2]]", 0), (PD_TREFOIL, 2)):
        so = scan_order(orient_and_sign(parse_pd(txt)))
        C, closed = scan(so, F2, "s"), scan(so, F2, "kh")
        assert all(t.qshift % 2 == 0 for t in C.obj.values())
        assert all(t.qshift % 2 for t in closed.obj.values())
        assert all(t == Tangle((), 0, t.qshift) for t in C.obj.values())
        entries = [f for outs in C.out.values() for f in outs.values()]
        assert all(f.terms.keys() == {0} for f in entries)
        C.check()
        D = from_filtered(C)
        assert all(q % 2 == 0 for q in D.q.values())
        res = s_from_based(D)
        assert abs(res.s) == s
        assert res == s_from_based(from_filtered(closed))
    # a dotted summand is dropped, an undotted one kept in a new entry
    # between the closed objects, which keep their even gradings
    C = FilteredComplex(F2)
    a, b, c = (
        C.add_object(h, arc._replace(qshift=q)) for h, q in ((0, 0), (1, 2), (1, 4))
    )
    shared = {0: 1, 1: 1}
    C.set_entry(a, b, Cob(arc, arc._replace(qshift=2), shared))
    C.set_entry(a, c, Cob(arc, arc._replace(qshift=4), {1: 1}))
    drop_marked_dots(C)
    assert [C.obj[oid].qshift for oid in (a, b, c)] == [0, 2, 4]
    assert C.out[a] == {b: C.out[a][b]} and C.inc[c] == set()
    assert C.out[a][b].terms == {0: 1} and shared == {0: 1, 1: 1}
    assert (C.out[a][b].src, C.out[a][b].tgt) == (Tangle(()), Tangle((), 0, 2))
    C.check()
    assert dump(C) == "0 0 0\n1 2 0\n1 4 1\n0 0 0 1 1\n"


def test_add_object_refuses_an_id_in_use():
    t = Tangle((1, 0))
    C = FilteredComplex(Q)
    a, b = C.add_object(0, t), C.add_object(1, t)
    C.set_entry(a, b, identity_cob(Q, t))
    with pytest.raises(ValueError, match="already in use"):
        C.add_object(2, Tangle(()), a)
    assert C.obj[a] == t and C.h[a] == 0 and b in C.out[a]
    assert C.objects_at(0) == [a] and C.objects_at(1) == [b]
    C.check()
    # the id of a removed object is free again
    C.remove_object(a)
    assert C.add_object(2, Tangle((), 0, 1), a) == a
    C.check()


def test_each_degree_lists_its_objects_in_the_order_they_were_added():
    # The walks by degree (objects_at, the stable sort by h in tensor,
    # deloop and rebuild) visit ids of one degree in the order they were
    # added; the dumps depend on it.  Removals and the re-add of a freed
    # id must keep it, and so must rebuild and flipped.
    C = BasedComplex(Q)
    for h in (1, 0, 1, 2, 0, 1):  # ids 0..5
        C.add_object(h, 2 * h)
    C.remove_object(2)
    C.remove_object(1)
    assert C.add_object(0, 0, 2) == 2
    assert C.add_object(1, 2) == 6
    C.set_entry(4, 0, Q.one)
    C.set_entry(2, 5, Q.one)
    C.check()
    expect = {0: [4, 2], 1: [0, 5, 6], 2: [3]}
    assert C.degrees() == [0, 1, 2]
    assert {d: C.objects_at(d) for d in C.degrees()} == expect
    assert sorted(C.h, key=C.h.get) == [4, 2, 0, 5, 6, 3]
    R = C.rebuild(BasedComplex(Q))
    assert {d: R.objects_at(d) for d in R.degrees()} == expect
    F = C.flipped()
    assert {-d: F.objects_at(d) for d in F.degrees()} == expect


def test_shared_saddle_terms_survive_an_elimination_beside_them():
    # Same-shape objects of one tensor step share the terms of their
    # saddle entries.  Next to one of them, x0 -> x1, add a pair a -> b
    # of identities with x0 -> b and a -> x1: cancelling it corrects
    # x0 -> x1 to zero, and the entries that shared its terms must keep
    # them unchanged.
    order = scan_order(orient_and_sign(braid_pd([1, -2, 1, -2, 3, -2, 3], 4)))
    od = order.diagram
    for ring in (Q, F2, Z):
        C = initial_complex(ring, od.n_plus, od.n_minus)
        for step in order.steps:
            D = tensor_with_crossing(C, step)
            groups: dict = {}
            for x0, outs in D.out.items():
                for x1, f in outs.items():
                    if not (f.src.circles or f.tgt.circles):
                        groups.setdefault(id(f.terms), []).append((x0, x1, f))
            shared = next((g for g in groups.values() if len(g) > 1), None)
            if shared:
                break
            C = reduce_pass(deloop(D))
        else:
            raise AssertionError("no tensor step shared saddle terms")
        (x0, x1, f), *others = shared
        before = dict(f.terms)
        label = D.obj[x0]
        a = D.add_object(D.h[x0], label)
        b = D.add_object(D.h[x1], label)
        D.set_entry(a, b, identity_cob(ring, label))
        D.set_entry(x0, b, identity_cob(ring, label))
        D.set_entry(a, x1, f)
        gauss_eliminate(D, a, b)
        assert x1 not in D.out[x0]
        for y0, y1, g in others:
            assert D.out[y0][y1] is g and g.terms == before


