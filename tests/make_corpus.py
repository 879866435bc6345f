"""Regenerate the knot corpus files under tests/data/.

Run from the repository root:  python3 tests/make_corpus.py

Families: 2-bridge knots from positive continued fractions (complete up
to the stated crossing numbers, deduplicated by classifying fraction up
to inversion), odd pretzels, (2,k) torus knots, assorted braid closures,
plus same-knot diagram pairs (fraction duals and Markov moves), and
braid closures of 20-40 crossings given as DT codes.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(__file__))

from knotgen import (
    all_rational_vectors,
    braid_pd,
    dt_from_pd,
    fraction_of,
    interlacement_connected,
    pretzel_pd,
    rational_pd,
    torus_pd,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def pd_text(pd):
    return "PD[" + ",".join("X[%d,%d,%d,%d]" % x for x in pd.crossings) + "]"


def canonical_fraction_key(vec):
    frac = fraction_of(list(vec))
    p, q = frac.numerator, frac.denominator
    qinv = pow(q, -1, p)
    return (p, min(q % p, qinv))


def rational_corpus(max_crossings):
    by_key = {}
    for vec in all_rational_vectors(max_crossings):
        key = canonical_fraction_key(vec)
        if key not in by_key or sum(vec) < sum(by_key[key]):
            by_key[key] = vec
    out = []
    for key in sorted(by_key):
        vec = by_key[key]
        pd = rational_pd(list(vec))
        out.append((pd.name, pd))
    return out


def braid_corpus():
    words = [
        ("granny", [1, 1, 1, 2, 2, 2], 3),
        ("square", [1, 1, 1, -2, -2, -2], 3),
        ("b8a", [1, 1, -2, 1, -2, 2], 3),
        ("b9a", [3, -1, 2, -2, -1, 3, 1, 3, 2], 4),
        ("b9b", [-3, 2, 1, -2, 2, -1, 3, 1, -2], 4),
        ("b10a", [1, 1, 1, 1, -2, 1, -2, 2, 2, 2], 3),
        ("b10b", [-2, -2, -2, -1, -1, -1, -2, 1, 1, -1], 3),
        ("b12a", [2, 1, -2, 2, -2, -2, -2, -2, 2, 1, -1, -2], 3),
        ("b12b", [1, 2, 1, -2, -2, 1, -1, 2, -1, -1, -2, -1], 3),
    ]
    out = []
    for name, word, strands in words:
        out.append((name, braid_pd(word, strands, name)))
    return out


def pretzel_corpus():
    out = []
    for pqr in ((1, 1, 1), (1, 3, 3), (3, 3, 3), (3, 3, 5), (3, 5, 5), (1, 3, 7)):
        pd = pretzel_pd(*pqr)
        out.append((pd.name, pd))
    return out


def torus_corpus():
    return [(f"T(2,{k})", torus_pd(k)) for k in (3, 5, 7, 9)]


def schubert_pairs(max_crossings):
    """Distinct continued fractions of the same 2-bridge knot."""
    groups: dict = {}
    for vec in all_rational_vectors(max_crossings):
        groups.setdefault(canonical_fraction_key(vec), []).append(vec)
    pairs = []
    for key in sorted(groups):
        vecs = sorted(set(groups[key]))
        if len(vecs) < 2:
            continue
        v1, v2 = vecs[0], vecs[1]
        if sum(v1) > 9 or sum(v2) > 9:
            continue
        pairs.append((rational_pd(list(v1)), rational_pd(list(v2))))
    return pairs


def markov_pairs():
    """Braid closures versus conjugated and stabilized presentations."""
    rng = random.Random(5)
    seeds = [
        ([1, 1, 1], 2),
        ([1, 1, 1, 1, 1], 2),
        ([1, 1, -2, 1, -2, 2], 3),
        ([1, 1, 1, 2, 2, 2], 3),
        ([1, 1, 1, -2, -2, -2], 3),
        ([1, 1, -2, -2, 1, -2], 3),
        ([3, -1, 2, -2, -1, 3, 1, 3, 2], 4),
        ([1, 1, 2, 2, 1, -2], 3),
        ([1, 1, 1, 1, -2, 1], 3),
        ([2, 3, 1, 1, 1, 3, -1, 3, 1], 4),
    ]
    pairs = []
    for word, strands in seeds:
        g = rng.choice(range(1, strands))
        conj = [g] + word + [-g]
        stab = word + [strands]
        variant = conj if rng.random() < 0.5 else stab
        strands2 = strands if variant is conj else strands + 1
        pairs.append(
            (braid_pd(word, strands), braid_pd(variant, strands2))
        )
        # also pair the conjugate with the stabilization for more variety
        pairs.append(
            (braid_pd(conj, strands), braid_pd(stab, strands + 1))
        )
    return pairs


def dt_braid_corpus():
    """Random braid closures of 20-40 crossings, as (name, pd, dt) rows.

    Letters are three-quarters positive so that s is far from 0.  A word
    is kept when its closure is a knot whose DT code has a connected
    interlacement graph: then any DT parser must return this diagram or
    its mirror, and |s| must not change.  A closure on k strands is a
    knot only when the word length has the parity of k - 1.
    """
    rng = random.Random(11)
    out = []
    for length, strands in ((20, 3), (25, 4), (28, 3), (30, 5), (33, 4), (40, 3)):
        while True:
            word = [
                rng.choice((1, 1, 1, -1)) * rng.randint(1, strands - 1)
                for _ in range(length)
            ]
            try:
                pd = braid_pd(word, strands)
            except ValueError:  # a link
                continue
            dt = dt_from_pd(pd)
            if interlacement_connected(dt):
                break
        out.append((f"dtb{length}_{strands}", pd, dt))
    return out


def write_corpus():
    os.makedirs(DATA, exist_ok=True)
    with open(os.path.join(DATA, "rational_upto10.txt"), "w") as f:
        f.write("# 2-bridge knots from positive continued fractions\n")
        f.write("# complete up to 10 crossings after fraction dedup\n")
        for name, pd in rational_corpus(10):
            f.write(f"{name} ; {pd_text(pd)}\n")
    with open(os.path.join(DATA, "mixed_knots.txt"), "w") as f:
        f.write("# braid closures, pretzels and torus knots\n")
        for name, pd in braid_corpus() + pretzel_corpus() + torus_corpus():
            f.write(f"{name} ; {pd_text(pd)}\n")
    with open(os.path.join(DATA, "pairs.txt"), "w") as f:
        f.write("# pairs of distinct diagrams of the same knot\n")
        idx = 0
        for a, b in schubert_pairs(10) + markov_pairs():
            f.write(f"pair{idx:02d}_a ; {pd_text(a)}\n")
            f.write(f"pair{idx:02d}_b ; {pd_text(b)}\n")
            idx += 1
    with open(os.path.join(DATA, "k16.txt"), "w") as f:
        f.write("# a 16-crossing non-alternating knot (engineering target)\n")
        pd = braid_pd([-4, -1, 1, -2, -1, -3, 2, 2, 2, 4, 4, 1, -2, -2, -4, 3], 5, "k16")
        f.write(f"k16 ; {pd_text(pd)}\n")
    with open(os.path.join(DATA, "dt_braids.txt"), "w") as f:
        f.write("# braid closures of 20-40 crossings as DT codes (see dt_braid_corpus)\n")
        for name, _pd, dt in dt_braid_corpus():
            f.write(f"{name} ; DT[{','.join(map(str, dt))}]\n")
    print("corpus written to", DATA)


if __name__ == "__main__":
    write_corpus()
