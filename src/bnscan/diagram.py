"""Knot diagram handling: PD/DT parsing, orientation, signs, scan orders.

PD codes use the standard planar-diagram convention: each crossing is a
4-tuple of edge labels listed counterclockwise starting at the incoming
under-strand.  DT codes are converted to PD codes by searching for a
planar embedding of the underlying 4-valent graph.

The scan order adds one crossing at a time so that every partial diagram
is connected and the glue interface is a contiguous run of the current
boundary cycle; a greedy girth minimizer with one step of lookahead picks
among candidates, with backtracking as a safety net.  Kinks (loop edges
whose two ends sit on the same crossing) glue to themselves within the
step that adds their crossing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed PD/DT text or violated PD invariants."""


class NotAKnotError(ValueError):
    """The diagram has more than one link component."""


class DisconnectedError(NotAKnotError):
    """The diagram is a split union of pieces."""


@dataclass(frozen=True)
class PDCode:
    """A validated planar diagram of a knot."""

    crossings: tuple[tuple[int, int, int, int], ...]
    name: str | None = None

    @property
    def n(self):
        return len(self.crossings)


@dataclass(frozen=True)
class OrientedDiagram:
    """A PD code with crossing signs and writhe data."""

    pd: PDCode
    signs: tuple[int, ...]
    n_plus: int
    n_minus: int

    @property
    def writhe(self):
        return self.n_plus - self.n_minus


@dataclass(frozen=True)
class ScanStep:
    """One gluing step: which crossing attaches where and how."""

    crossing: int
    sign: int
    boundary_before: tuple[int, ...]
    boundary_after: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # (boundary position, crossing leg)
    self_pairs: tuple[tuple[int, int], ...]  # loop-edge leg pairs
    left_order: tuple[int, ...]  # surviving boundary positions, new order
    piece_order: tuple[int, ...]  # surviving crossing legs, new order


@dataclass(frozen=True)
class ScanOrder:
    diagram: OrientedDiagram
    steps: tuple[ScanStep, ...]

    @property
    def girth(self):
        return max((len(s.boundary_after) for s in self.steps), default=0)


# --- PD parsing --------------------------------------------------------------

_PD_RE = re.compile(r"^PD\[(.*)\]$")
_X_RE = re.compile(r"^X\[(\d+),(\d+),(\d+),(\d+)\]$")


def parse_pd(text: str, name: str | None = None) -> PDCode:
    """Parse ``PD[X[a,b,c,d],...]`` and validate the knot invariants."""
    compact = "".join(text.split())
    m = _PD_RE.match(compact)
    if not m:
        raise ParseError(f"not a PD code: {text!r}")
    body = m.group(1)
    crossings = []
    if body:
        depth = 0
        token = ""
        tokens = []
        for ch in body + ",":
            if ch == "," and depth == 0:
                tokens.append(token)
                token = ""
                continue
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            token += ch
        for tok in tokens:
            xm = _X_RE.match(tok)
            if not xm:
                raise ParseError(f"bad crossing entry {tok!r}")
            crossings.append(tuple(int(g) for g in xm.groups()))
    pd = PDCode(tuple(crossings), name)
    validate_pd(pd)
    return pd


def validate_pd(pd: PDCode) -> None:
    counts: dict[int, int] = {}
    for x in pd.crossings:
        for e in x:
            counts[e] = counts.get(e, 0) + 1
    bad = [e for e, c in counts.items() if c != 2]
    if bad:
        raise ParseError(f"edge labels {sorted(bad)} do not occur exactly twice")
    if pd.n:
        trace_passages(pd)


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


def _loop_pairs(legs):
    """Self-glued leg pairs of a crossing (loop edges of a kink)."""
    pairs = []
    used = set()
    for i in range(4):
        j = (i + 1) % 4
        if i in used or j in used:
            continue
        if legs[i] == legs[j]:
            pairs.append((i, j))
            used.update((i, j))
    return tuple(pairs)


def _contiguous_interface(boundary, legs):
    """Find a contiguous gluing of a crossing onto the boundary cycle.

    The glued labels must form a contiguous run of the boundary whose
    reverse is a contiguous run of the crossing's cyclic legs.  Returns
    (pairs, self_pairs, left_order, piece_order) or None.
    """
    loop_legs = {i for pair in _loop_pairs(legs) for i in pair}
    shared = [e for e in legs if e in boundary and legs.index(e) not in loop_legs]
    shared_set = set(shared)
    if not shared_set or len(shared) != len(shared_set):
        return None
    m, k = len(boundary), len(shared_set)
    for r in range(m):
        run = [boundary[(r + i) % m] for i in range(k)]
        if set(run) != shared_set:
            continue
        for s in range(4):
            leg_run = [legs[(s + i) % 4] for i in range(k)]
            if leg_run != run[::-1]:
                continue
            if any((s + i) % 4 in loop_legs for i in range(k)):
                continue
            pairs = tuple(((r + i) % m, (s + k - 1 - i) % 4) for i in range(k))
            left_order = tuple((r + k + i) % m for i in range(m - k))
            free = [(s + k + i) % 4 for i in range(4 - k)]
            piece_order = tuple(x for x in free if x not in loop_legs)
            return pairs, _loop_pairs(legs), left_order, piece_order
    return None


def _first_interface(legs):
    loops = _loop_pairs(legs)
    loop_legs = {i for pair in loops for i in pair}
    if not loop_legs:
        piece_order = (0, 1, 2, 3)
    else:
        piece_order = tuple(x for x in range(4) if x not in loop_legs)
        if len(piece_order) == 2 and piece_order == (0, 3):
            piece_order = (3, 0)
    return (), loops, (), piece_order


def _glued_boundary(boundary, legs, iface):
    _pairs, _loops, left_order, piece_order = iface
    return tuple(boundary[p] for p in left_order) + tuple(
        legs[x] for x in piece_order
    )


def scan_order(od: OrientedDiagram) -> ScanOrder:
    """Order the crossings for scanning, minimizing boundary growth.

    Greedy with one step of lookahead; connected prefixes, contiguous
    interfaces.  Backtracks over candidates if a greedy branch gets stuck.
    """
    pd = od.pd
    n = pd.n
    if n == 0:
        return ScanOrder(od, ())

    def candidates(done, boundary):
        out = []
        for ci in range(n):
            if ci in done:
                continue
            legs = pd.crossings[ci]
            if not done:
                out.append((ci, _first_interface(legs)))
            else:
                iface = _contiguous_interface(boundary, legs)
                if iface is not None:
                    out.append((ci, iface))
        return out

    def score(boundary, ci, iface, done):
        bnd = _glued_boundary(boundary, pd.crossings[ci], iface)
        done2 = done | {ci}
        best_next = len(bnd)
        if len(done2) < n:
            nxt = candidates(done2, bnd)
            if nxt:
                best_next = min(
                    len(_glued_boundary(bnd, pd.crossings[cj], ifc))
                    for cj, ifc in nxt
                )
        return (len(bnd), best_next, ci)

    steps: list[ScanStep] = []

    def dfs(done, boundary):
        if len(done) == n:
            return not boundary
        cands = candidates(done, boundary)
        cands.sort(key=lambda item: score(boundary, item[0], item[1], done))
        for ci, iface in cands:
            legs = pd.crossings[ci]
            bnd = _glued_boundary(boundary, legs, iface)
            steps.append(
                ScanStep(
                    ci,
                    od.signs[ci],
                    tuple(boundary),
                    bnd,
                    iface[0],
                    iface[1],
                    iface[2],
                    iface[3],
                )
            )
            if dfs(done | {ci}, bnd):
                return True
            steps.pop()
        return False

    if not dfs(frozenset(), ()):
        raise NotAKnotError("no planar scan order found (is the PD planar?)")
    return ScanOrder(od, tuple(steps))


# --- DT codes -----------------------------------------------------------------

_DT_RE = re.compile(r"^DT\[(.*)\]$")


def parse_dt(text: str, name: str | None = None) -> PDCode:
    """Convert ``DT[a1,a2,...]`` to a PD code via planar embedding search.

    Convention: entry i pairs passage 2i-1 with |a_i|, and the even
    passage runs over exactly when a_i > 0.  A DT code determines a knot
    only up to mirror image; the first embedding found (deterministic
    search order) is returned.
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


def pd_from_dt(evens, name: str | None = None) -> PDCode:
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

