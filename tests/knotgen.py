"""Knot fixture generators for the test suite.

Everything here builds PD codes from scratch: braid closures (with Markov
moves for same-knot diagram pairs), torus knots T(2,k), 2-bridge knots
from continued fractions, pretzel knots, Reidemeister I kinks added to a
diagram, and DT codes read back off a PD.
The package under test only ever sees the resulting PD text.  Knot table
files are read with ``parse_knot_file``.
"""

from __future__ import annotations

from fractions import Fraction

from bnscan.diagram import (
    NotAKnotError,
    ParseError,
    PDCode,
    _interlacement,
    parse_knot_line,
    parse_pd,
    trace_passages,
)


class _Labels:
    def __init__(self):
        self.next = 0

    def fresh(self):
        self.next += 1
        return self.next


def _normalize_orientation(crossings):
    """Rotate tuples so leg 0 is the incoming under-strand.

    Twist-region emitters know the geometry (ccw leg order, under axis on
    legs 0/2) but not the global flow; a shadow traversal assigns
    directions, then tuples whose under-strand enters at leg 2 rotate by
    two.
    """
    slots = {}
    for ci, x in enumerate(crossings):
        for leg, e in enumerate(x):
            slots.setdefault(e, []).append((ci, leg))
    status = {}
    ci, leg = 0, 0
    while (ci, leg) not in status:
        status[(ci, leg)] = "in"
        out = (leg + 2) % 4
        status[(ci, out)] = "out"
        e = crossings[ci][out]
        (c1, l1), (c2, l2) = slots[e]
        ci, leg = (c2, l2) if (c1, l1) == (ci, out) else (c1, l1)
    if len(status) != 4 * len(crossings):
        raise ValueError("shadow traversal did not cover the diagram")
    fixed = []
    for ci, x in enumerate(crossings):
        if status[(ci, 0)] == "in":
            fixed.append(x)
        else:
            a, b, c, d = x
            fixed.append((c, d, a, b))
    return fixed


def braid_pd(word, strands, name=None):
    """PD code of the closure of a braid word (sigma_i = i, inverse = -i).

    Strands run downward; positive letters cross strand i over i+1.
    """
    lab = _Labels()
    top = [lab.fresh() for _ in range(strands)]
    cur = list(top)
    crossings = []
    for letter in word:
        p = abs(letter) - 1
        if not (0 <= p < strands - 1):
            raise ValueError(f"letter {letter} outside braid group B_{strands}")
        in_l, in_r = cur[p], cur[p + 1]
        out_l, out_r = lab.fresh(), lab.fresh()
        if letter > 0:
            # over-strand NW->SE, under NE->SW; legs ccw from under-in (NE)
            crossings.append((in_r, in_l, out_l, out_r))
        else:
            # over-strand NE->SW, under NW->SE; legs ccw from under-in (NW)
            crossings.append((in_l, out_l, out_r, in_r))
        cur[p], cur[p + 1] = out_l, out_r
    # close up: bottom label at position p is the same edge as the top one
    subs = {}
    for p in range(strands):
        a, b = top[p], cur[p]
        if a == b:
            raise ValueError("closure has a crossing-free component")
        subs[a] = b
    resolved = []
    for x in crossings:
        resolved.append(tuple(subs.get(e, e) for e in x))
    return parse_pd(
        "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in resolved) + "]", name
    )


def torus_pd(k, name=None):
    """The (2, k) torus knot as the closure of sigma_1^k (k odd)."""
    return braid_pd([1] * k, 2, name or f"T(2,{k})")


# The legs of a kink crossing entered by edge a, left by edge b, with loop
# edge c: under first (loop on either side), then over first.
_KINKS = (
    lambda a, b, c: (a, b, c, c),
    lambda a, b, c: (a, c, c, b),
    lambda a, b, c: (c, a, b, c),
    lambda a, b, c: (c, c, b, a),
)


def add_kink(pd, edge, variant=0):
    """pd with a Reidemeister I kink on ``edge``, one of ``_KINKS``.

    The strand runs along ``edge`` into the kink crossing, once around
    its loop, and on along a fresh edge to where ``edge`` led.
    """
    xs = [list(x) for x in pd.crossings]
    out = max(max(x) for x in xs) + 1
    ci, leg = next((c, g) for c, g in trace_passages(pd) if xs[c][g] == edge)
    xs[ci][leg] = out
    xs.append(_KINKS[variant](edge, out, out + 1))
    return parse_pd(
        "PD[" + ",".join("X[%d,%d,%d,%d]" % tuple(x) for x in xs) + "]", pd.name
    )


def nested_kink_trefoil():
    """The trefoil with a kink, and a second kink on the first one's loop."""
    pd = add_kink(parse_pd(PD_TREFOIL, "nested"), 1, 0)
    loop = max(e for x in pd.crossings for e in x)
    return add_kink(pd, loop, 3)


def conjugate_word(word, g):
    return [g] + list(word) + [-g]


def stabilize_word(word, strands, sign=1):
    return list(word) + [sign * strands], strands + 1


# --- rational (2-bridge) knots ---------------------------------------------


def _twist_east(state, lab, sign):
    ne, se = state["ne"], state["se"]
    out_ne, out_se = lab.fresh(), lab.fresh()
    if sign > 0:
        # under-strand NW->SE; legs ccw from NW
        x = (ne, se, out_se, out_ne)
    else:
        # under-strand SW->NE; legs ccw from SW
        x = (se, out_se, out_ne, ne)
    state["ne"], state["se"] = out_ne, out_se
    return x


def _twist_south(state, lab, sign):
    sw, se = state["sw"], state["se"]
    out_sw, out_se = lab.fresh(), lab.fresh()
    if sign > 0:
        # under-strand NE->SW; legs ccw from NE
        x = (se, sw, out_sw, out_se)
    else:
        # under-strand NW->SE; legs ccw from NW
        x = (sw, out_sw, out_se, se)
    state["sw"], state["se"] = out_sw, out_se
    return x


def rational_pd(partial_quotients, name=None):
    """A 2-bridge knot diagram for a positive continued fraction.

    Twist regions alternate east (horizontal) and south (vertical) with
    handedness making the diagram alternating; the plat closure joining
    the north pair and south pair is used when it yields a knot, else the
    east/west closure (exactly one of the two closes a rational tangle
    into a knot when the classifying fraction has odd numerator).
    """
    a = list(partial_quotients)
    if not a or any(x < 1 for x in a):
        raise ValueError("need a positive continued fraction")
    lab = _Labels()
    nw = lab.fresh()
    sw = lab.fresh()
    state = {"nw": nw, "ne": nw, "sw": sw, "se": sw}
    crossings = []
    for i, count in enumerate(a):
        for _ in range(count):
            if i % 2 == 0:
                crossings.append(_twist_east(state, lab, +1))
            else:
                crossings.append(_twist_south(state, lab, -1))
    closures = (
        {state["ne"]: state["nw"], state["se"]: state["sw"]},
        {state["ne"]: state["se"], state["nw"]: state["sw"]},
    )
    expected_det = fraction_of(a).numerator
    last_error = None
    for subs in closures:
        resolved = [tuple(subs.get(e, e) for e in x) for x in crossings]
        try:
            resolved = _normalize_orientation(resolved)
            pd = parse_pd(
                "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in resolved) + "]",
                name or "C(" + ",".join(map(str, a)) + ")",
            )
        except (ValueError, NotAKnotError) as exc:  # link: other closure
            last_error = exc
            continue
        # one closure caps off the last twist region reducibly; the right
        # one realizes the classifying fraction, so its determinant is the
        # fraction's numerator
        from oracle_signature import goeritz_determinant
        from bnscan.diagram import orient_and_sign

        od = orient_and_sign(pd)
        if goeritz_determinant(pd.crossings, od.signs) == expected_det:
            return pd
        last_error = ValueError(f"closure of {a} has wrong determinant")
    raise ValueError(f"no faithful knot closure for {a}: {last_error}")


def fraction_of(partial_quotients):
    """The rational number p/q classified by the continued fraction."""
    val = Fraction(partial_quotients[-1])
    for x in reversed(partial_quotients[:-1]):
        val = x + 1 / val
    return val


def all_rational_vectors(max_crossings):
    """All positive continued fractions with a knot closure (odd p).

    Yields tuples (a1..am), a_i >= 1, a1 >= 1, am >= 2 to avoid trailing
    reducible twists, sum <= max_crossings, classifying fraction odd.
    """
    out = []

    def rec(prefix, remaining):
        if prefix and prefix[-1] >= 2 and sum(prefix) >= 3:
            frac = fraction_of(prefix)
            if frac.numerator % 2 == 1 and frac > 1:
                out.append(tuple(prefix))
        if remaining == 0:
            return
        for nxt in range(1, remaining + 1):
            rec(prefix + [nxt], remaining - nxt)

    rec([], max_crossings)
    return out


def pretzel_pd(p, q, r, name=None):
    """The (p, q, r) pretzel knot, p, q, r odd positive: three vertical
    twist columns closed up top and bottom."""
    counts = (p, q, r)
    if any(c < 1 or c % 2 == 0 for c in counts):
        raise ValueError("need odd positive twist counts")
    lab = _Labels()
    cols = []
    crossings = []
    for c in counts:
        tl, tr = lab.fresh(), lab.fresh()
        state = {"sw": tl, "se": tr}
        for _ in range(c):
            sw, se = state["sw"], state["se"]
            out_sw, out_se = lab.fresh(), lab.fresh()
            # vertical twist, under-strand NE->SW; legs ccw from NE
            crossings.append((se, sw, out_sw, out_se))
            state["sw"], state["se"] = out_sw, out_se
        cols.append((tl, tr, state["sw"], state["se"]))
    subs = {}

    def ident(x, y):
        # identify labels x and y (y replaces x)
        subs[x] = y

    for i in range(3):
        tl_n, tr_n = cols[(i + 1) % 3][0], cols[(i + 1) % 3][1]
        ident(cols[i][1], tl_n)  # top: right of col i to left of col i+1
        ident(cols[i][3], cols[(i + 1) % 3][2])  # bottom likewise
    def resolve(e):
        while e in subs:
            e = subs[e]
        return e

    resolved = [tuple(resolve(e) for e in x) for x in crossings]
    resolved = _normalize_orientation(resolved)
    return parse_pd(
        "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in resolved) + "]",
        name or f"P({p},{q},{r})",
    )


def dt_from_pd(pd: PDCode):
    """Read the DT code off a PD, in the convention of ``diagram.parse_dt``.

    The walk starts at the incoming under-leg of crossing 0; an entry is
    positive when the even passage through its crossing runs under.
    """
    passages = trace_passages(pd)
    times: dict[int, list[tuple[int, int]]] = {}
    for t, (ci, leg) in enumerate(passages, start=1):
        times.setdefault(ci, []).append((t, leg))
    evens = {}
    for ci, visits in times.items():
        assert len(visits) == 2
        (t1, l1), (t2, l2) = visits
        odd, even = (t1, t2) if t1 % 2 else (t2, t1)
        even_leg = l2 if even == t2 else l1
        under = even_leg in (0, 2)
        evens[odd] = even if under else -even
    return [evens[t] for t in sorted(evens)]


def interlacement_connected(evens):
    """True when the DT code's interlacement graph is connected.

    Then its planar realization is unique up to mirror image, so
    ``parse_dt`` returns the diagram the code was read from or its
    mirror.  Kinks, nugatory crossings and connected sums of diagrams
    break the graph up.
    """
    nbrs = _interlacement(evens)
    seen = 1
    todo = [0]
    while todo:
        new = nbrs[todo.pop()] & ~seen
        seen |= new
        todo.extend(i for i in range(len(nbrs)) if new >> i & 1)
    return seen == (1 << len(nbrs)) - 1


PD_TREFOIL = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
PD_FIGURE8 = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"


def parse_knot_file(text: str):
    """Parse a knot table; returns a list of (line number, PDCode | error)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            out.append((lineno, parse_knot_line(line)))
        except (ParseError, NotAKnotError) as exc:
            out.append((lineno, exc))
    return out
