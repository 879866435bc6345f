"""Exhaustive DT realization: the reference for ``diagram.pd_from_dt``.

This tries every one of the 2^n flip states of the even passages in
increasing bit-mask order and keeps the first whose rotation system has
n + 2 faces.  It needs no theory of Gauss codes, so the parser's parity
rule can be checked against it; it is only usable up to about a dozen
crossings.
"""

from __future__ import annotations

from bnscan.diagram import ParseError, PDCode, validate_pd


def search_pd_from_dt(evens, name=None) -> PDCode:
    n = len(evens)
    if sorted(abs(e) for e in evens) != list(range(2, 2 * n + 1, 2)):
        raise ParseError("DT entries must cover each even label once")
    crossing_of = {}
    for i, a in enumerate(evens):
        crossing_of[2 * i + 1] = i
        crossing_of[abs(a)] = i
    even_over = [a > 0 for a in evens]

    # Slots 0..3 counterclockwise at each crossing; the odd passage runs
    # slot 0 -> 2 and the even passage slot 1 -> 3 or 3 -> 1 per state.
    def in_out(state, lab):
        i = crossing_of[lab]
        if lab % 2:
            return (i, 0), (i, 2)
        return ((i, 1), (i, 3)) if state[i] else ((i, 3), (i, 1))

    def is_planar(state):
        ins = {}
        outs = {}
        for lab in range(1, 2 * n + 1):
            s_in, s_out = in_out(state, lab)
            ins[lab] = s_in
            outs[lab] = s_out
        leave = {}
        arrive = {}
        for lab in range(1, 2 * n + 1):
            nxt = lab % (2 * n) + 1
            # edge "lab" runs from outs[lab] to ins[nxt]; two darts
            leave[outs[lab]] = (lab, 0)
            leave[ins[nxt]] = (lab, 1)
            arrive[(lab, 0)] = ins[nxt]
            arrive[(lab, 1)] = outs[lab]
        faces = 0
        seen = set()
        for d0 in arrive:
            if d0 in seen:
                continue
            faces += 1
            d = d0
            while True:
                seen.add(d)
                i, s = arrive[d]
                d = leave[(i, (s + 1) % 4)]
                if d == d0:
                    break
        return faces == n + 2

    state = None
    for mask in range(1 << n):
        cand = [bool((mask >> i) & 1) for i in range(n)]
        if is_planar(cand):
            state = cand
            break
    if state is None:
        raise ParseError("DT code admits no planar embedding")

    def edge_in(lab):
        return (lab - 2) % (2 * n) + 1

    crossings = []
    for i in range(n):
        odd = 2 * i + 1
        even = abs(evens[i])
        legs = [None] * 4
        for lab in (odd, even):
            (_, s_in), (_, s_out) = in_out(state, lab)
            legs[s_in] = edge_in(lab)
            legs[s_out] = lab
        under = even if even_over[i] else odd
        (_, s_under_in), _ = in_out(state, under)
        crossings.append(tuple(legs[(s_under_in + k) % 4] for k in range(4)))
    pd = PDCode(tuple(crossings), name)
    validate_pd(pd)
    return pd
