"""Deterministic connectivity labels for one color fault.

Construction: pick per-component minimum-id vertices A0, then grow a ruling
sequence A = (a_1, ..., a_{k-1}) where a_i is the minimum-id vertex at distance
exactly i from everything chosen so far.  Every vertex then has a shortest path
P(v) of length < k to A0 u A.  A vertex label stores its anchor and
cid(v, G-d) for each color d on P(v); a color label stores cid(a, G-c) for
every a in A, as one tuple in A's order beside an anchor -> position index
that every color label of the set shares.  ``label_single_fault`` reads every
entry off the index of the one-fault oracle (``nca.build_one_fault_oracle``),
which holds cid(v, G-c) for all (v, c) in O(n) words, and checks in O(n) that
a ruling set it is given lies in G; the recursion's one-fault leaves read the
entries from a pair sweep (``multi_fault``) and share the same assembly.
Queries resolve with one map hit or one anchor lookup.  Label sizes come from
``label_bits``, given the ruling set and its path colors.

The halting iteration k also bounds the packing number bp(G), the largest r
admitting r vertex-disjoint proper r-balls: ``packing_certificate`` reads
floor(k/4) such balls off k and A (a label set's ``meta`` holds both), so floor(k/4) <= bp(G), and since a proper r-ball
holds at least r + 1 vertices, k = O(sqrt n).  A proper r-ball is one BFS
bounded at r (``proper_ball``), which checks the certificate's balls in the
ball encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bits import id_width, width_for
from .graph import (
    ColoredGraph,
    GraphError,
    RemovedVertexError,
    bfs,
    bfs_tree,
    path_colors,
)
from .labels import LabelSet
from .nca import build_one_fault_oracle

SCHEME = "single-fault"

@dataclass(frozen=True, slots=True)
class RulingSet:
    """A0 (component minima), the chosen sequence A, the halting index k, and P(v).

    ``depth`` is each vertex's distance to A0 u A.  The shortest paths P(v)
    form a forest: ``parent`` and ``parent_edge`` give v's next step towards
    A0 u A (None at an anchor), and ``anchor`` the vertex of A0 u A where
    P(v) ends.
    """

    A0: tuple[int, ...]
    A: tuple[int, ...]
    k: int
    depth: tuple[int, ...] = field(compare=False, repr=False)
    parent: tuple[int | None, ...] = field(compare=False, repr=False)
    parent_edge: tuple[int | None, ...] = field(compare=False, repr=False)
    anchor: tuple[int, ...] = field(compare=False, repr=False)

    def anchors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.A0) | set(self.A)))


def _ruling_sequence(g: ColoredGraph) -> tuple[list[int], list[int], int, list[int]]:
    """(A0, A, k, depth): the distance-i selection loop with minimum-id tie-breaks.

    The BFS forest of G seeds A0 and the distances; each new anchor then
    lowers them in place with a BFS that enters only the vertices whose
    distance drops.  That lowering is not a first-discovery walk like
    ``graph.bfs``: it reads the distances left by the earlier anchors, and
    enters a vertex again whenever a new anchor brings it closer, so it keeps
    its own queue.
    """
    forest = bfs_tree(g)
    A0 = [v for v, r in enumerate(forest.root) if r == v]
    depth = list(forest.depth)
    A: list[int] = []
    queue: list[int] = []
    adjacency = [g.adjacency(v) for v in range(g.n)]  # once: a vertex is entered many times
    i = 1
    while True:
        for x in queue:  # the queue grows while it is scanned
            dx = depth[x] + 1
            for w, _eid in adjacency[x]:
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


def build_ruling_set(g: ColoredGraph) -> RulingSet:
    """A0, A and k from ``_ruling_sequence``, then the paths P(v).

    P(v) steps from v to its minimum-id neighbor one level closer (first edge
    id among parallels), as a level-synchronized BFS scanning each level in
    increasing id would choose.  Parent chains are therefore consistent: if u
    lies on the chain of v, u's chain is a suffix of v's, and the union of all
    chains is a forest.
    """
    A0, A, k, depth = _ruling_sequence(g)
    n = g.n
    parent: list[int | None] = [None] * n
    parent_edge: list[int | None] = [None] * n
    anchor = list(range(n))  # an anchor's own
    for w in sorted(range(n), key=depth.__getitem__):
        d = depth[w]
        if d:
            x, eid = next((x, eid) for x, eid in g.adjacency(w) if depth[x] == d - 1)
            parent[w] = x
            parent_edge[w] = eid
            anchor[w] = anchor[x]
    return RulingSet(
        tuple(A0), tuple(A), k, tuple(depth), tuple(parent), tuple(parent_edge), tuple(anchor)
    )


@dataclass(frozen=True, slots=True)
class SingleFaultVertexLabel:
    vertex: int
    anchor: int
    cid_by_color: dict[int, int]
    own_color: int | None  # vertex mode only: v's color, whose fault removes v
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True, repr=False)
class SingleFaultColorLabel:
    """cid(a, G-c) for every anchor a of A, as one tuple in A's order.

    ``anchor_index`` maps each a to its position in A; every color label of
    one label set shares that one dict, and nothing mutates it.
    """

    color: int
    anchor_cids: tuple[int, ...]
    anchor_index: dict[int, int]
    bits: int = field(default=0, compare=False)

    @property
    def cid_by_anchor(self) -> dict[int, int]:
        """The label's content, a -> cid(a, G-c), rebuilt on each read (queries index instead)."""
        return dict(zip(self.anchor_index, self.anchor_cids))

    def __repr__(self) -> str:
        return (f"SingleFaultColorLabel(color={self.color!r}, "
                f"cid_by_anchor={self.cid_by_anchor!r}, bits={self.bits!r})")


def label_bits(
    g: ColoredGraph, ruling: RulingSet, colors_on_path: list[frozenset[int]]
) -> tuple[list[int], list[int]]:
    """The ``bits`` of each vertex label and each color label, with no label built.

    A vertex label holds its anchor, own color (vertex mode), map length and a
    (color, cid) per color on P(v); a color label its color, map length and an
    (anchor, cid) per a in A.
    """
    wid = id_width(g.n)
    wc = width_for(g.C)
    wlen = width_for(ruling.k)
    head = wid + (wc if g.vertex_colors is not None else 0) + wlen
    vertex_bits = [head + len(colors) * (wc + wid) for colors in colors_on_path]
    return vertex_bits, [wc + wlen + len(ruling.A) * (wid + wid)] * g.C


def label_single_fault(g: ColoredGraph, ruling: RulingSet | None = None) -> LabelSet:
    """Build the one-fault labels; handles disconnected input via A0.

    A given ``ruling`` must fit ``g`` (``_check_ruling``), else GraphError.
    """
    oracle = build_one_fault_oracle(g)
    if ruling is None:
        ruling = build_ruling_set(g)
    else:
        _check_ruling(g, ruling, oracle.root)
    colors_on_path = path_colors(g, ruling.parent, ruling.parent_edge)
    entries = _entries(g, ruling, colors_on_path)
    return _assemble(g, ruling, colors_on_path, entries, oracle.cids)


def _check_ruling(g: ColoredGraph, ruling: RulingSet, root: tuple[int, ...]) -> None:
    """GraphError unless ``ruling``, the ruling set of some graph, fits ``g``, in O(n).

    Each step v -> parent[v] of a path P(v) must be an edge of g between the
    two, and each root of the paths' forest an anchor of A or its component's
    minimum in g (``root``), whose cid no single fault moves.
    """
    n = g.n
    if len(ruling.parent) != n:
        raise GraphError(f"ruling set of {len(ruling.parent)} vertices for a graph of {n}")
    edges, m, in_A = g.edges, g.m, set(ruling.A)
    for v, (p, eid) in enumerate(zip(ruling.parent, ruling.parent_edge)):
        if p is None:
            ok = v in in_A or root[v] == v
        else:
            ok = eid < m and edges[eid] in ((v, p), (p, v))
        if not ok:
            raise GraphError(f"ruling set not built on this graph: vertex {v}'s path P(v)")


def _entries(
    g: ColoredGraph, ruling: RulingSet, colors_on_path: list[frozenset[int]]
) -> list[tuple[list[int], list[int]]]:
    """Per color c, the vertices whose cid(v, G-c) the labels hold.

    These are the v with c on P(v), increasing, for v's map, and the anchors
    of A that c does not remove, for c's label.  Neither list holds a vertex
    of color c: c is never v's own color on P(v).
    """
    own = g.vertex_colors
    on_path: list[list[int]] = [[] for _ in range(g.C)]
    for v in range(g.n):
        for c in colors_on_path[v]:
            on_path[c].append(v)
    return [(on_path[c], [a for a in ruling.A if own is None or own[a] != c]) for c in range(g.C)]


def _assemble(
    g: ColoredGraph,
    ruling: RulingSet,
    colors_on_path: list[frozenset[int]],
    entries: list[tuple[list[int], list[int]]],
    cids: Callable[[int, list[int]], Iterable[int]],
) -> LabelSet:
    """The labels from ``_entries``, given ``cids(c, vertices)``: cid(v, G-c) per listed v."""
    vertex_bits, color_bits = label_bits(g, ruling, colors_on_path)
    own = g.vertex_colors
    A = ruling.A
    index = {a: i for i, a in enumerate(A)}  # shared by every color label
    mappings: list[dict[int, int]] = [{} for _ in range(g.n)]
    color_labels = []
    for c, (on_path, live) in enumerate(entries):  # in increasing c, so each mapping is sorted
        for v, value in zip(on_path, cids(c, on_path)):
            mappings[v][c] = value
        values = cids(c, live)
        if len(live) < len(A):
            # an anchor removed by its own color keeps its own id, never
            # consulted: any vertex anchored there has c on P(v), so the
            # query resolves earlier
            read = iter(values)
            values = [a if own[a] == c else next(read) for a in A]
        color_labels.append(SingleFaultColorLabel(c, tuple(values), index, color_bits[c]))

    vertex_labels = []
    for v, mapping in enumerate(mappings):
        assert len(mapping) < ruling.k
        vertex_labels.append(SingleFaultVertexLabel(
            v, ruling.anchor[v], mapping,
            None if own is None else own[v], vertex_bits[v],
        ))

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
    if lv.own_color == lc.color:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
    hit = lv.cid_by_color.get(lc.color)
    if hit is not None:
        return hit
    i = lc.anchor_index.get(lv.anchor)
    # an anchor outside A is a component minimum (A0): its own cid
    return lv.anchor if i is None else lc.anchor_cids[i]


def pair_connected(
    lu: SingleFaultVertexLabel, lv: SingleFaultVertexLabel, lc: SingleFaultColorLabel
) -> bool:
    """cid(u, G-c) == cid(v, G-c): ``query_single_fault`` on both sides, in one frame.

    The same checks in the same order: RemovedVertexError names u before v.
    """
    c = lc.color
    if lu.own_color == c:
        raise RemovedVertexError(f"vertex {lu.vertex} has color {c}")
    if lv.own_color == c:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {c}")
    cu = lu.cid_by_color.get(c)
    if cu is None:
        i = lc.anchor_index.get(lu.anchor)
        cu = lu.anchor if i is None else lc.anchor_cids[i]
    cv = lv.cid_by_color.get(c)
    if cv is None:
        i = lc.anchor_index.get(lv.anchor)
        cv = lv.anchor if i is None else lc.anchor_cids[i]
    return cu == cv


# -- ball packing -------------------------------------------------------------


def proper_ball(g: ColoredGraph, center: int, r: int) -> dict[int, int] | None:
    """Distance of every vertex within r of ``center`` by a BFS that stops at depth r.

    None when no vertex lies at distance exactly r: the ball is not proper.
    A negative r is a ValueError.
    """
    if not 0 <= center < g.n:
        raise GraphError(f"center {center} out of range")
    if r < 0:
        raise ValueError(f"ball radius {r} is negative")
    dist = {}
    for x, _p, _eid, d in bfs(g.adjacency, (center,)):
        if d > r:
            break
        dist[x] = d
    return dist if d >= r else None


def packing_certificate(k: int, A: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(r, centers): r = floor(k/4) pairwise disjoint proper r-balls, off a ruling set's k and A.

    The centers are the anchors a_j with 2r < j <= 3r, ``A[2r:3r]``; A holds
    a_1 ... a_{k-1}, and 3r <= k - r <= k - 1 once r >= 1, so there are r of
    them.  When a_j was chosen it lay at distance exactly j >= 2r + 1 from
    A0 u {a_1, ..., a_{j-1}}, a set that meets its component.  Hence:

    - for i < j, dist(a_i, a_j) >= j > 2r (or a_i lies in another component),
      so the r-balls of a_i and a_j are disjoint;
    - a shortest path from a_j to that set has length j > r, and its vertex r
      steps from a_j lies at distance exactly r: every r-ball is proper.

    So floor(k/4) <= bp(G), certified in O(k) time once the ruling set is
    built; ``proper_ball`` checks each ball.  Raises ValueError unless
    ``len(A) == k - 1``.
    """
    if len(A) != k - 1:
        raise ValueError(f"a ruling set with k = {k} has k - 1 anchors in A, not {len(A)}")
    r = k // 4
    return r, A[2 * r:3 * r]
