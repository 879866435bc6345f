"""Draw the braid words of ``data/dt_front.txt`` and check them.

    python3 perfbench/draw.py      # rewrites data/dt_front.txt

The ``dt_front`` rows are 24 braid words on 5 strands with 14 letters,
rejection sampled until the closure is a knot (the braid permutation is
a single cycle; with 5 strands only an even word length can close to one
component) with a prime diagram, each given as a DT code.  Primality is
required because a DT code fixes only a prime diagram's knot up to
mirror image: realizing a composite diagram may flip a summand, which
turns K1 # K2 into K1 # mirror(K2) and changes s.

The draw is stored as data, so a pass of the benchmark only reads it;
``test_perfbench.py`` checks that the file is this draw and that every
row is a prime knot closure whose DT code round-trips.
"""

from __future__ import annotations

import os
import random

from inputs import DATA, DT_STRANDS, Row, braid_closure

CROSSINGS = 14
KNOTS = 24
DRAW = 1
TABLE = os.path.join(DATA, "dt_front.txt")


def closes_to_knot(word, strands):
    """True when the braid permutation is one cycle through every strand."""
    perm = list(range(strands))
    for letter in word:
        p = abs(letter) - 1
        perm[p], perm[p + 1] = perm[p + 1], perm[p]
    seen, i = 0, 0
    while True:
        i = perm[i]
        seen += 1
        if i == 0:
            return seen == strands


def is_prime_diagram(crossings):
    """No kink, no nugatory crossing and no pair of edges that splits it.

    The diagram's graph has the crossings as vertices and the edges as
    edges; it must stay connected after removing any one vertex or any
    two edges.
    """
    ends = {}
    for ci, x in enumerate(crossings):
        for e in x:
            ends.setdefault(e, []).append(ci)
    edges = [tuple(v) for v in ends.values()]
    n = len(crossings)
    if any(a == b for a, b in edges):
        return False
    for v in range(n):
        if not _connected(n, [e for e in edges if v not in e], skip=v):
            return False
    for i in range(len(edges)):
        if _has_bridge(n, edges[:i] + edges[i + 1:]):
            return False
    return True


def _connected(n, edges, skip=None):
    adj = {v: [] for v in range(n) if v != skip}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    todo = [next(iter(adj))]
    seen = set(todo)
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)


def _has_bridge(n, edges):
    """True when the multigraph is disconnected or has a bridge."""
    adj = [[] for _ in range(n)]
    for k, (a, b) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    disc = [-1] * n
    low = [0] * n

    def visit(v, via, t):
        disc[v] = low[v] = t
        for w, k in adj[v]:
            if k == via:
                continue
            if disc[w] < 0:
                if visit(w, k, t + 1) or low[w] > disc[v]:
                    return True
                low[v] = min(low[v], low[w])
            else:
                low[v] = min(low[v], disc[w])
        return False

    return visit(0, None, 0) or min(disc) < 0


def dt_code(crossings):
    """The DT code of a PD knot diagram, in the convention of ``parse_dt``.

    Walk the strand from the incoming under-leg of the first crossing;
    entry i pairs passage 2i-1 with the even passage through the same
    crossing, negated when the even passage runs under.
    """
    slots = {}
    for ci, x in enumerate(crossings):
        for leg, e in enumerate(x):
            slots.setdefault(e, []).append((ci, leg))
    visits = {}
    ci, leg, t = 0, 0, 0
    while True:
        t += 1
        visits.setdefault(ci, []).append((t, leg))
        out = (leg + 2) % 4
        (c1, l1), (c2, l2) = slots[crossings[ci][out]]
        ci, leg = (c2, l2) if (c1, l1) == (ci, out) else (c1, l1)
        if (ci, leg) == (0, 0):
            break
    if t != 2 * len(crossings):
        raise ValueError("diagram has more than one component")
    evens = {}
    for (t1, l1), (t2, l2) in visits.values():
        (odd, _), (even, even_leg) = sorted(
            ((t1, l1), (t2, l2)), key=lambda v: v[0] % 2 == 0
        )
        evens[odd] = even if even_leg in (1, 3) else -even
    return "DT[" + ",".join(str(evens[k]) for k in sorted(evens)) + "]"


def random_braid_word(rng, strands, length):
    """A word whose closure is a knot with a prime diagram."""
    while True:
        word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if closes_to_knot(word, strands) and is_prime_diagram(
                braid_closure(word, strands)):
            return tuple(word)


def dt_rows():
    """The rows of ``data/dt_front.txt``: the draw numbered ``DRAW``."""
    rng = random.Random(f"perfbench-dt-{DRAW}")
    rows = []
    for i in range(KNOTS):
        word = random_braid_word(rng, DT_STRANDS, CROSSINGS)
        code = dt_code(braid_closure(word, DT_STRANDS))
        rows.append(Row(f"dt{i:02d}", code, word))
    return tuple(rows)


def write_table(rows):
    with open(TABLE, "w") as f:
        f.write("# dt_front: closures of 14-letter braid words on 5 strands, "
                "as DT codes.\n")
        f.write("# name ; DT code ; braid word (sigma_i = i).  "
                "Written by draw.py.\n")
        for r in rows:
            f.write(f"{r.name} ; {r.code} ; {' '.join(map(str, r.braid))}\n")


if __name__ == "__main__":
    write_table(dt_rows())
