"""Knot diagram handling: PD/DT parsing, orientation, signs, scan orders.

PD codes use the standard planar-diagram convention: each crossing is a
4-tuple of edge labels listed counterclockwise starting at the incoming
under-strand.

A DT code fixes the order in which the strand meets the crossings; its
PD code also needs, at each crossing, the side from which the even
passage crosses the odd one.  These flips are not searched for: in a
planar curve, two interlaced crossings have opposite flips exactly when
they share an even number of interlaced crossings (de Fraysseix and
Ossona de Mendez, 1999).  Propagating these parities over the
interlacement graph fixes every flip up to one choice per connected
component, with O(n^2) operations on integer bitsets.  A face count
(Euler: n + 2 faces) then confirms that the chosen state is planar.

The scan order adds one crossing at a time so that every partial diagram
is connected and the glue interface is a contiguous run of the current
boundary cycle; a greedy girth minimizer with one step of lookahead picks
among candidates, with bounded backtracking as a safety net.  Only the
crossings that hold a boundary edge are candidates, found through an
edge -> crossings index, and a label -> position map finds each
interface in time linear in its size.  The lookahead glues nothing: the
length a crossing leaves follows from how many of its legs lie on the
boundary.  Kinks (loop edges whose two ends sit on the same crossing)
add nothing to the complex but a crossing to glue and a circle to
deloop, so Reidemeister I moves undo them before the order search, and
the scan never meets a loop edge.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(ValueError):
    """Malformed PD/DT text or violated PD invariants."""


class NotAKnotError(ValueError):
    """The diagram has more than one link component."""


class DisconnectedError(NotAKnotError):
    """The diagram is a split union of pieces."""


class PDCode(NamedTuple):
    """A validated planar diagram of a knot."""

    crossings: tuple[tuple[int, int, int, int], ...]
    name: str | None = None

    @property
    def n(self):
        return len(self.crossings)


class OrientedDiagram(NamedTuple):
    """A PD code with crossing signs and writhe data."""

    pd: PDCode
    signs: tuple[int, ...]
    n_plus: int
    n_minus: int

    @property
    def writhe(self):
        return self.n_plus - self.n_minus


class ScanStep(NamedTuple):
    """One gluing step: which crossing attaches where and how."""

    crossing: int
    boundary_before: tuple[int, ...]
    boundary_after: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # (boundary position, crossing leg)
    left_order: tuple[int, ...]  # surviving boundary positions, new order
    piece_order: tuple[int, ...]  # surviving crossing legs, new order


class ScanOrder(NamedTuple):
    diagram: OrientedDiagram  # the diagram scanned, its kinks undone
    steps: tuple[ScanStep, ...]

    @property
    def girth(self):
        return max((len(s.boundary_after) for s in self.steps), default=0)


# --- PD parsing --------------------------------------------------------------

_X_RE = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")
_PD_RE = re.compile(rf"PD\[(?:{_X_RE.pattern}(?:,{_X_RE.pattern})*)?\]")


def parse_pd(text: str, name: str | None = None) -> PDCode:
    """Parse ``PD[X[a,b,c,d],...]`` and validate the knot invariants."""
    compact = "".join(text.split())
    if not _PD_RE.fullmatch(compact):
        raise ParseError(f"not a PD code: {text!r}")
    crossings = [tuple(map(int, labels)) for labels in _X_RE.findall(compact)]
    pd = PDCode(tuple(crossings), name)
    validate_pd(pd)
    return pd


def validate_pd(pd: PDCode, legs="its legs") -> None:
    """Refuse a PD code that is not a planar one-component knot diagram.

    The legs, read counterclockwise, form a rotation system; it is planar
    exactly when it has n + 2 faces (Euler).  ``legs`` names what fixed
    the leg order in the error message.
    """
    counts: dict[int, int] = {}
    for x in pd.crossings:
        for e in x:
            counts[e] = counts.get(e, 0) + 1
    bad = [e for e, c in counts.items() if c != 2]
    if bad:
        raise ParseError(f"edge labels {sorted(bad)} do not occur exactly twice")
    if pd.n:
        trace_passages(pd)
        faces = _count_faces(pd)
        if faces != pd.n + 2:
            raise ParseError(
                f"no planar embedding: {legs} give {faces} faces, "
                f"not {pd.n + 2}"
            )


def _edge_slots(pd: PDCode) -> dict[int, list[tuple[int, int]]]:
    slots: dict[int, list[tuple[int, int]]] = {}
    for ci, x in enumerate(pd.crossings):
        for leg, e in enumerate(x):
            slots.setdefault(e, []).append((ci, leg))
    return slots


def trace_passages(pd: PDCode):
    """Walk the strand through the diagram, one pass per crossing visit.

    Returns [(crossing, in-leg), ...] along the single component.  The
    under-strand enters at leg 0 by convention; every strand leaves at
    the opposite leg.  Raises if the walk closes early (several
    components) or the legs cannot be oriented consistently.
    """
    slots = _edge_slots(pd)
    start = (0, 0)
    ci, leg = start
    passages = []
    while True:
        passages.append((ci, leg))
        out = (leg + 2) % 4
        e = pd.crossings[ci][out]
        (c1, l1), (c2, l2) = slots[e]
        ci, leg = (c2, l2) if (c1, l1) == (ci, out) else (c1, l1)
        if leg == 2:
            raise NotAKnotError(
                f"edge {e} flows into the outgoing under-leg of crossing {ci}"
            )
        if (ci, leg) == start:
            break
        if len(passages) > 2 * pd.n:
            raise NotAKnotError("strand walk does not close up")
    if len(passages) != 2 * pd.n:
        touched = {c for c, _l in passages}
        adj = {c: set() for c in range(pd.n)}
        for ends in slots.values():
            if len(ends) == 2:
                adj[ends[0][0]].add(ends[1][0])
                adj[ends[1][0]].add(ends[0][0])
        seen = set()
        stack = [0]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(adj[c] - seen)
        if len(seen) < pd.n:
            raise DisconnectedError("diagram splits into separate pieces")
        raise NotAKnotError("diagram has more than one component")
    return passages


def orient_and_sign(pd: PDCode) -> OrientedDiagram:
    """Trace a consistent orientation and compute the crossing signs.

    The under-strand runs leg 0 -> leg 2 and the sign is +1 exactly when
    the over-strand comes in at leg 1; this is invariant under reversing
    the global orientation since both strands flip together.
    """
    if pd.n == 0:
        return OrientedDiagram(pd, (), 0, 0)
    passages = trace_passages(pd)
    over_in: dict[int, int] = {}
    for ci, in_leg in passages:
        if in_leg in (1, 3):
            if ci in over_in:
                raise NotAKnotError("crossing traversed twice along over-strand")
            over_in[ci] = in_leg
    signs = []
    for ci in range(pd.n):
        if ci not in over_in:
            raise NotAKnotError(f"crossing {ci} has no over-strand passage")
        signs.append(1 if over_in[ci] == 1 else -1)
    n_plus = sum(1 for s in signs if s > 0)
    return OrientedDiagram(pd, tuple(signs), n_plus, pd.n - n_plus)


def mirror_pd(pd: PDCode) -> PDCode:
    """Mirror image: reflect the plane, keeping over/under strands.

    Reflection reverses the counterclockwise leg order while the incoming
    under-strand stays at leg 0, so each tuple reverses cyclically around
    its first entry; every crossing sign flips.
    """
    reflected = tuple((a, d, c, b) for a, b, c, d in pd.crossings)
    name = f"mirror({pd.name})" if pd.name else None
    return PDCode(reflected, name)


# --- scan order --------------------------------------------------------------


def without_kinks(od: OrientedDiagram) -> OrientedDiagram:
    """The diagram with every kink undone by Reidemeister I moves.

    A kink is a crossing with two adjacent legs on one loop edge.  The
    move drops the crossing and merges the two edges the strand uses to
    enter and leave it, which can make a kink of another crossing, so the
    moves repeat until none is left.  The other crossings keep their
    order, legs and signs.  A kink-free diagram comes back as it is.
    """
    xs, signs = list(od.pd.crossings), list(od.signs)
    while True:
        kink = next(
            ((ci, j) for ci, legs in enumerate(xs) for j in range(4)
             if legs[j] == legs[j - 1]),
            None,
        )
        if kink is None:
            break
        ci, j = kink
        keep, drop = xs[ci][(j + 1) % 4], xs[ci][(j + 2) % 4]
        del xs[ci], signs[ci]
        xs = [tuple(keep if e == drop else e for e in legs) for legs in xs]
    if len(xs) == od.pd.n:
        return od
    n_plus = signs.count(1)
    pd = PDCode(tuple(xs), od.pd.name)
    return OrientedDiagram(pd, tuple(signs), n_plus, len(xs) - n_plus)


def _attachment(boundary, pos, legs):
    """Where a crossing glues onto the boundary cycle: (r, s, k) or None.

    The glued labels are those of the crossing's legs that lie on the
    boundary (``pos`` maps each boundary label to its position).  They
    must fill a run boundary[r..r+k-1] whose reverse is the run
    legs[s..s+k-1] of the crossing's cyclic legs.  When k < m, the
    boundary length, r is the one glued position whose predecessor is not
    glued; when k = m, each r is tried in turn.  The leg that holds
    boundary[r+k-1] fixes s, so a test costs O(k).
    """
    m = len(boundary)
    hits = [pos[e] for e in legs if e in pos]
    k = len(hits)
    glued = set(hits)
    if not k or len(glued) != k:
        return None
    if k == m:
        starts = range(m)
    else:
        starts = [p for p in hits if (p - 1) % m not in glued]
        if len(starts) != 1:
            return None
    for r in starts:
        s = legs.index(boundary[(r + k - 1) % m])
        if all(legs[(s + i) % 4] == boundary[(r + k - 1 - i) % m]
               for i in range(1, k)):
            return r, s, k
    return None


def _interface(m, r, s, k):
    """(pairs, left_order, piece_order) of an attachment."""
    pairs = tuple(((r + i) % m, (s + k - 1 - i) % 4) for i in range(k))
    left_order = tuple((r + k + i) % m for i in range(m - k))
    piece_order = tuple((s + k + i) % 4 for i in range(4 - k))
    return pairs, left_order, piece_order


# Planar diagrams rarely need a backtrack at all (at most one on 1,179
# corpus diagrams and random braid closures); without a bound, a
# non-planar PD code searches an exponential tree.
_BACKTRACK_BUDGET = 1000


def scan_order(od: OrientedDiagram) -> ScanOrder:
    """Order the crossings for scanning, minimizing boundary growth.

    Greedy with one step of lookahead; connected prefixes, contiguous
    interfaces.  A step ranks its candidates by (glued boundary length,
    shortest length one more crossing can then leave, crossing index).
    The candidates are the unplaced crossings that hold a boundary label,
    found through an edge -> crossings index.  The lookahead needs no
    gluing: a crossing with k legs on a boundary of length m leaves
    m + 4 - 2k points, so the next crossings are tested for contiguity in
    order of that length, and the first that fits gives the score.
    Backtracks over candidates if a greedy branch gets stuck, and raises
    NotAKnotError after ``_BACKTRACK_BUDGET`` backtracks.  The search runs
    on ``without_kinks(od)``, which is the diagram the order carries.
    """
    od = without_kinks(od)
    pd = od.pd
    n = pd.n
    if n == 0:
        return ScanOrder(od, ())
    xs = pd.crossings
    at: dict[int, list[int]] = {}  # edge label -> crossings holding it
    for ci, legs in enumerate(xs):
        for e in legs:
            at.setdefault(e, []).append(ci)

    def held(done, boundary):
        """Unplaced crossings holding boundary labels -> how many each."""
        count: dict[int, int] = {}
        for e in boundary:
            for c in at[e]:
                if c not in done:
                    count[c] = count.get(c, 0) + 1
        return count

    def shortest_next(done, boundary):
        """The shortest boundary that one more crossing can leave."""
        m = len(boundary)
        if len(done) == n:
            return m
        lengths = sorted((m + 4 - 2 * k, c) for c, k in held(done, boundary).items())
        pos = {e: p for p, e in enumerate(boundary)}
        for length, c in lengths:
            if _attachment(boundary, pos, xs[c]) is not None:
                return length
        return m

    def ranked(done, boundary):
        """The candidates of one step, best first, with their gluings.

        They are grouped by the length they leave, m + 4 - 2k, and a
        group's interfaces, boundaries and lookaheads are made only when
        the search reaches it; a group of one needs no lookahead.  The
        score (length, lookahead, index) is lexicographic, so the order
        is that of sorting every candidate by it.
        """
        m = len(boundary)
        pos = {e: p for p, e in enumerate(boundary)}
        groups: dict[int, list] = {}
        for ci in held(done, boundary) if done else range(n):
            attach = _attachment(boundary, pos, xs[ci]) if done else (0, 0, 0)
            if attach is not None:
                groups.setdefault(m + 4 - 2 * attach[2], []).append((ci, attach))
        for length in sorted(groups):
            group = []
            for ci, attach in groups[length]:
                iface = _interface(m, *attach)
                _pairs, left_order, piece_order = iface
                bnd = tuple(boundary[p] for p in left_order)
                bnd += tuple(xs[ci][x] for x in piece_order)
                done2 = done | {ci}
                ahead = shortest_next(done2, bnd) if len(groups[length]) > 1 else 0
                group.append(((ahead, ci), ci, iface, bnd, done2))
            group.sort(key=lambda item: item[0])
            yield from group

    # Depth-first search on an explicit stack: frames[k] holds the prefix
    # after k steps and its untried candidates; steps[k] leads out of it.
    steps: list[ScanStep] = []
    frames = [(frozenset(), (), ranked(frozenset(), ()))]
    backtracks = deepest = 0
    while frames:
        done, boundary, untried = frames[-1]
        nxt = next(untried, None)
        if nxt is not None:
            _score, ci, iface, bnd, done2 = nxt
            steps.append(ScanStep(ci, boundary, bnd, *iface))
            deepest = max(deepest, len(done2))
            if len(done2) < n:
                frames.append((done2, bnd, ranked(done2, bnd)))
                continue
            if not bnd:
                return ScanOrder(od, tuple(steps))
        else:
            frames.pop()
            if not steps:
                break
        steps.pop()
        backtracks += 1
        if backtracks > _BACKTRACK_BUDGET:
            raise NotAKnotError(
                f"no planar scan order found: gave up after {_BACKTRACK_BUDGET} "
                f"backtracks, having placed at most {deepest} of {n} crossings "
                "(is the PD planar?)"
            )
    raise NotAKnotError("no planar scan order found (is the PD planar?)")


# --- DT codes -----------------------------------------------------------------

_DT_RE = re.compile(r"^DT\[(.*)\]$")


def parse_dt(text: str, name: str | None = None) -> PDCode:
    """Convert ``DT[a1,a2,...]`` to a PD code.

    Convention: entry i (from 1) pairs passage 2i-1 with passage |a_i|,
    and the even passage runs under exactly when a_i > 0.  At each
    crossing, slots 0..3 are counterclockwise and the odd passage runs
    from slot 0 to slot 2; the even passage runs 1 -> 3 or 3 -> 1, as
    the interlacement parities demand.  A DT code determines a knot only
    up to mirror image, and a composite one up to mirroring each summand;
    the embedding returned is the one in which, in each connected
    component of the interlacement graph, the highest-index crossing's
    even passage runs from slot 3 to slot 1.  Raises ParseError when the
    code has no planar realization.
    """
    compact = "".join(text.split())
    m = _DT_RE.match(compact)
    if not m:
        raise ParseError(f"not a DT code: {text!r}")
    body = m.group(1)
    if not body:
        raise ParseError("empty DT code")
    try:
        evens = [int(tok) for tok in re.split(r"[,;]", body) if tok]
    except ValueError as exc:
        raise ParseError(f"bad DT entry in {text!r}") from exc
    return pd_from_dt(evens, name)


def _interlacement(evens):
    """Bitsets of the crossings interlaced with each crossing.

    Crossing i is visited at times 2i+1 and |a_i|; crossing b is
    interlaced with a when exactly one visit of b lies strictly between
    the two visits of a.  With ``prefix[t]`` the XOR of the bits of the
    crossings visited up to time t, the crossings visited an odd number
    of times between the visits of a are one XOR of two prefixes.
    """
    n = len(evens)
    at = [0] * (2 * n + 1)
    for i, a in enumerate(evens):
        at[2 * i + 1] = i
        at[abs(a)] = i
    prefix = [0] * (2 * n + 1)
    for t in range(1, 2 * n + 1):
        prefix[t] = prefix[t - 1] ^ (1 << at[t])
    nbrs = []
    for i, a in enumerate(evens):
        p, q = sorted((2 * i + 1, abs(a)))
        nbrs.append(prefix[q - 1] ^ prefix[p])
    return nbrs


def _flip_state(evens):
    """The flip of each crossing's even passage, from interlacement parities.

    In a planar realization, interlaced crossings a and b have opposite
    flips exactly when they have an even number of common interlaced
    neighbours (de Fraysseix and Ossona de Mendez, *On a
    characterization of Gauss codes*, 1999).  This fixes the flips of a
    connected component of the interlacement graph up to one global
    choice.  The highest-index crossing of each component gets False;
    among the states the rule allows, this one is the smallest read as a
    bit mask with bit i for crossing i.  Raises ParseError when the
    constraints contradict.
    """
    nbrs = _interlacement(evens)
    state = [None] * len(nbrs)
    for root in reversed(range(len(nbrs))):
        if state[root] is not None:
            continue
        state[root] = False
        stack = [root]
        while stack:
            a = stack.pop()
            rest = nbrs[a]
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                want = state[a] ^ ((nbrs[a] & nbrs[b]).bit_count() % 2 == 0)
                if state[b] is None:
                    state[b] = want
                    stack.append(b)
                elif state[b] != want:
                    raise ParseError(
                        "DT code admits no planar embedding: the interlaced "
                        f"crossings of entries {a + 1} and {b + 1} break the "
                        "parity rule (flips differ exactly when two interlaced "
                        "crossings share an even number of interlaced crossings)"
                    )
    return state


def pd_from_dt(evens, name: str | None = None) -> PDCode:
    """The PD code of a DT code, given as its list of even labels."""
    n = len(evens)
    if sorted(abs(e) for e in evens) != list(range(2, 2 * n + 1, 2)):
        raise ParseError("DT entries must cover each even label once")
    state = _flip_state(evens)
    crossings = []
    for i, a in enumerate(evens):
        # Slots 0..3 counterclockwise: the odd passage runs 0 -> 2 and the
        # even one 1 -> 3 when flipped, else 3 -> 1.  Edge e leads from
        # passage e into passage e + 1 (mod 2n).
        odd, even = 2 * i + 1, abs(a)
        even_in = 1 if state[i] else 3
        legs = [odd - 1 or 2 * n, 0, odd, 0]
        legs[even_in], legs[even_in ^ 2] = even - 1, even
        under_in = even_in if a > 0 else 0
        crossings.append(tuple(legs[(under_in + k) % 4] for k in range(4)))
    pd = PDCode(tuple(crossings), name)
    # The parity rule is necessary, not sufficient: the face count decides.
    validate_pd(pd, "the flips forced by the DT code's interlacement parities")
    return pd


def _count_faces(pd: PDCode) -> int:
    """Faces of the rotation system of a PD code (legs counterclockwise)."""
    slots = _edge_slots(pd)
    seen = set()
    faces = 0
    for start in ((ci, leg) for ci in range(pd.n) for leg in range(4)):
        if start in seen:
            continue
        faces += 1
        # leave along a leg, arrive at the far end of its edge, and leave
        # again by the next leg counterclockwise
        dart = start
        while dart not in seen:
            seen.add(dart)
            end1, end2 = slots[pd.crossings[dart[0]][dart[1]]]
            ci, leg = end2 if end1 == dart else end1
            dart = (ci, (leg + 1) % 4)
    return faces


# --- knot files ----------------------------------------------------------------


def parse_knot_line(line: str):
    """Parse one ``name;PD[...]`` or ``name;DT[...]`` line, or None."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if ";" not in stripped:
        raise ParseError(f"missing ';' separator in {line!r}")
    name, code = stripped.split(";", 1)
    compact = "".join(code.split())
    if compact.startswith("PD["):
        return parse_pd(compact, name.strip())
    if compact.startswith("DT["):
        return parse_dt(compact, name.strip())
    raise ParseError(f"unknown code format in {line!r}")

