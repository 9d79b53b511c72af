"""Deterministic connectivity labels for one color fault.

Construction: pick per-component minimum-id vertices A0, then grow a ruling
sequence A = (a_1, ..., a_{k-1}) where a_i is the minimum-id vertex at distance
exactly i from everything chosen so far.  Every vertex then has a shortest path
P(v) of length < k to A0 u A.  A vertex label stores its anchor and
cid(v, G-d) for each color d on P(v); a color label stores cid(a, G-c) for
every a in A.  Queries resolve with one map hit or one anchor lookup.

The halting iteration k doubles as a greedy upper bound tied to the packing of
disjoint proper balls in the topology: floor(k/4) never exceeds the exact
packing number, and k = O(sqrt n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import id_width, width_for
from .graph import (
    VERTEX,
    ColoredGraph,
    GraphView,
    RemovedVertexError,
    as_view,
    bfs_tree,
    cids_after_faults,
    path_colors,
)
from .labels import LabelSet

SCHEME = "single-fault"


class SizeLimitError(ValueError):
    """Input too large for the exhaustive ball-packing search."""


@dataclass(frozen=True)
class RulingSet:
    """A0 (component minima), the chosen sequence A, the halting index k, and P(v).

    ``depth`` is each vertex's distance to A0 u A (-1 if removed).  The
    shortest paths P(v) form a forest: ``parent`` and ``parent_edge`` give
    v's next step towards A0 u A (None at an anchor or a removed vertex), and
    ``anchor`` the vertex of A0 u A where P(v) ends.
    """

    A0: tuple[int, ...]
    A: tuple[int, ...]
    k: int
    depth: tuple[int, ...] = field(compare=False, repr=False)
    parent: tuple[int | None, ...] = field(compare=False, repr=False)
    parent_edge: tuple[int | None, ...] = field(compare=False, repr=False)
    anchor: tuple[int | None, ...] = field(compare=False, repr=False)

    def anchors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.A0) | set(self.A)))


def _ruling_sequence(gv: GraphView) -> tuple[list[int], list[int], int, list[int]]:
    """(A0, A, k, depth): the distance-i selection loop with minimum-id tie-breaks.

    The BFS forest of G seeds A0 and the distances; each new anchor then
    lowers them in place with a BFS that enters only the vertices whose
    distance drops.
    """
    forest = bfs_tree(gv)
    A0 = [v for v, r in enumerate(forest.root) if r == v]
    depth = list(forest.depth)
    A: list[int] = []
    queue: list[int] = []
    i = 1
    while True:
        for x in queue:  # the queue grows while it is scanned
            dx = depth[x] + 1
            for w, _eid in gv.adjacency(x):
                if depth[w] > dx:
                    depth[w] = dx
                    queue.append(w)
        try:
            a = depth.index(i)
        except ValueError:
            break
        A.append(a)
        depth[a] = 0
        queue = [a]
        i += 1
    return A0, A, i, depth


def build_ruling_set(g: ColoredGraph | GraphView) -> RulingSet:
    """A0, A and k from ``_ruling_sequence``, then the paths P(v).

    P(v) steps from v to its minimum-id neighbor one level closer (first edge
    id among parallels), as a level-synchronized BFS scanning each level in
    increasing id would choose.  Parent chains are therefore consistent: if u
    lies on the chain of v, u's chain is a suffix of v's, and the union of all
    chains is a forest.
    """
    gv = as_view(g)
    A0, A, k, depth = _ruling_sequence(gv)
    n = gv.n
    parent: list[int | None] = [None] * n
    parent_edge: list[int | None] = [None] * n
    anchor: list[int | None] = [None] * n
    for w in sorted(range(n), key=depth.__getitem__):
        d = depth[w]
        if d == 0:
            anchor[w] = w
        elif d > 0:
            x, eid = next((x, eid) for x, eid in gv.adjacency(w) if depth[x] == d - 1)
            parent[w] = x
            parent_edge[w] = eid
            anchor[w] = anchor[x]
    return RulingSet(
        tuple(A0), tuple(A), k, tuple(depth), tuple(parent), tuple(parent_edge), tuple(anchor)
    )


@dataclass(frozen=True)
class SingleFaultVertexLabel:
    vertex: int
    anchor: int
    cid_by_color: dict[int, int]
    own_color: int | None  # vertex mode only: v's color, whose fault removes v
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SingleFaultColorLabel:
    color: int
    cid_by_anchor: dict[int, int]
    bits: int = field(default=0, compare=False)


def label_single_fault(g: ColoredGraph, ruling: RulingSet | None = None) -> LabelSet:
    """Build the one-fault labels; handles disconnected input via A0."""
    if ruling is None:
        ruling = build_ruling_set(g)
    colors_on_path = path_colors(g, ruling.parent, ruling.parent_edge)

    wanted: dict[frozenset[int], set[int]] = {frozenset((c,)): set(ruling.A) for c in range(g.C)}
    for v in range(g.n):
        for c in colors_on_path[v]:
            wanted[frozenset((c,))].add(v)
    by_set = cids_after_faults(g, wanted)
    cids = [by_set[frozenset((c,))] for c in range(g.C)]

    wid = id_width(g.n)
    wc = width_for(g.C)
    wlen = width_for(ruling.k)

    vertex_labels = []
    for v in range(g.n):
        mapping = {}
        for c in sorted(colors_on_path[v]):
            value = cids[c][v]
            assert value is not None  # d != own color, so v survives G-d
            mapping[c] = value
        assert len(mapping) < ruling.k
        own = g.vertex_color(v) if g.mode == VERTEX else None
        bits = wid + (wc if g.mode == VERTEX else 0) + wlen + len(mapping) * (wc + wid)
        vertex_labels.append(
            SingleFaultVertexLabel(v, ruling.anchor[v], mapping, own, bits)  # type: ignore[arg-type]
        )

    color_labels = []
    for c in range(g.C):
        entries = {}
        for a in ruling.A:
            value = cids[c][a]
            # an anchor removed by its own color is never consulted: any vertex
            # anchored there has c on P(v), so the query resolves earlier
            entries[a] = a if value is None else value
        assert len(entries) == len(ruling.A)
        bits = wc + wlen + len(entries) * (wid + wid)
        color_labels.append(SingleFaultColorLabel(c, entries, bits))

    return LabelSet(
        scheme=SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=tuple(vertex_labels),
        color_labels=tuple(color_labels),
        meta={"k": ruling.k, "A0": ruling.A0, "A": ruling.A},
    )


def query_single_fault(lv: SingleFaultVertexLabel, lc: SingleFaultColorLabel) -> int:
    """cid(v, G-c) from the two labels alone."""
    if lv.own_color is not None and lv.own_color == lc.color:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
    hit = lv.cid_by_color.get(lc.color)
    if hit is not None:
        return hit
    hit = lc.cid_by_anchor.get(lv.anchor)
    if hit is not None:
        return hit
    return lv.anchor  # anchor is a component minimum (A0): its own cid


def pair_connected(
    lu: SingleFaultVertexLabel, lv: SingleFaultVertexLabel, lc: SingleFaultColorLabel
) -> bool:
    return query_single_fault(lu, lc) == query_single_fault(lv, lc)


# -- ball packing -------------------------------------------------------------


def ball_packing_greedy(g: ColoredGraph | GraphView) -> int:
    """Halting iteration k of the ruling-set loop: floor(k/4) <= exact packing."""
    return _ruling_sequence(as_view(g))[2]


def find_disjoint_proper_balls(g: ColoredGraph | GraphView, r: int) -> list[int] | None:
    """Centers of r pairwise disjoint proper r-balls, or None.

    Candidate centers are restricted to vertices with some vertex at distance
    exactly r (without one, the ball cannot be proper); balls are bitmasks so
    disjointness is a single AND.
    """
    gv = as_view(g)
    if r == 0:
        return []
    candidates = []
    balls = {}
    for v in range(gv.n):
        if not gv.vertex_present(v):
            continue
        dv = bfs_tree(gv, v).depth
        if any(d == r for d in dv):
            candidates.append(v)
            balls[v] = sum(1 << u for u in range(gv.n) if 0 <= dv[u] <= r)
    if len(candidates) < r:
        return None

    chosen: list[int] = []

    def search(start: int, used: int) -> bool:
        if len(chosen) == r:
            return True
        for idx in range(start, len(candidates)):
            if len(chosen) + len(candidates) - idx < r:
                return False
            v = candidates[idx]
            if balls[v] & used:
                continue
            chosen.append(v)
            if search(idx + 1, used | balls[v]):
                return True
            chosen.pop()
        return False

    return chosen if search(0, 0) else None


def ball_packing_exact(g: ColoredGraph | GraphView, size_limit: int = 32) -> int:
    """Maximum r admitting r vertex-disjoint proper r-balls (exhaustive)."""
    gv = as_view(g)
    if gv.n > size_limit:
        raise SizeLimitError(f"exact ball packing limited to n <= {size_limit}")
    upper = 0
    for v in range(gv.n):
        if gv.vertex_present(v):
            ecc = max((d for d in bfs_tree(gv, v).depth if d >= 0), default=0)
            upper = max(upper, ecc)
    # a proper r-ball holds >= r+1 vertices, so r*(r+1) <= n as well
    while upper * (upper + 1) > gv.n:
        upper -= 1
    for r in range(upper, 0, -1):
        if find_disjoint_proper_balls(gv, r) is not None:
            return r
    return 0
