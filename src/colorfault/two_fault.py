"""Deterministic labels for two color faults on bounded-diameter graphs.

Per component, a BFS tree T rooted at the minimum id s, all of them one
forest from :func:`colorfault.graph.bfs_tree`.  For each vertex v and each
color c on T[s,v], a BFS of G-c from v is truncated at ceil(sqrt n)
vertices: a smaller tree spans v's whole component of G-c, a full one is hit
by a greedily chosen set U.  The walk skips c's class of
``ColoredGraph.color_classes``, built once per color.  The vertex label stores cid(v, G-c), the pair cids
for every color in the truncated tree, and, for full trees, a representative
u in U.  The label of color c holds cid(u, G-{c,d}) for every u in U that
survives c and every d on T[s,u]; the query reads the representative's pair
cids from there, so a vertex label holds O(D·sqrt n) ids for D the depth of T.
The five-way case analysis of ``_derive_cid`` resolves cid(v, G-{c,d}) from the
two vertex labels and two color labels alone, exactly.  Its first case, neither
c nor d on T[s,v], gives s: the entry ``query_two_fault_ids`` resolves that case
itself and calls ``_derive_cid`` only for a side whose label holds c or d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Collection, Sequence

from .bits import id_width, width_for
from .graph import (
    EDGE,
    VERTEX,
    ColoredGraph,
    RemovedVertexError,
    bfs,
    bfs_tree,
    cids_after_faults,
    path_colors,
)
from .labels import LabelSet

SCHEME = "two-fault-diam"


# -- greedy hitting set ----------------------------------------------------------


def greedy_hitting_set(sets: Sequence[Collection[int]], n: int) -> tuple[int, ...]:
    """Hit every set, repeatedly taking the vertex covering the most still-unhit
    sets (minimum id on ties).

    The pick is lazy: a heap holds ``(-gain, v)`` with each gain as last
    computed, and its top is taken once its recomputed gain equals its key.
    Gains only fall, so no other vertex can gain more, and the heap's order
    puts the minimum id first among equal gains.
    """
    for i, s in enumerate(sets):
        if not s:
            raise ValueError(f"set {i} is empty and cannot be hit")
    covers: dict[int, set[int]] = {}
    for i, s in enumerate(sets):
        for v in s:
            if not 0 <= v < n:
                raise ValueError(f"element {v} outside universe of size {n}")
            covers.setdefault(v, set()).add(i)
    heap = [(-len(hit), v) for v, hit in covers.items()]
    heapify(heap)
    unhit = set(range(len(sets)))
    chosen: list[int] = []
    while unhit:
        key, v = heappop(heap)
        gain = len(covers[v] & unhit)
        if gain == -key:
            chosen.append(v)
            unhit -= covers[v]
        elif gain:
            heappush(heap, (-gain, v))
    return tuple(sorted(chosen))


# -- data types -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TruncatedTree:
    vertices: tuple[int, ...]
    colors: frozenset[int]  # colors present in the tree
    full: bool


@dataclass(frozen=True, slots=True)
class ColorEntry:
    cid_minus_c: int
    pair_cids: dict[int, int]  # d in tree colors -> cid(v, G-{c,d})
    full: bool
    rep: int | None  # in U; c's color label holds its pair cids


@dataclass(frozen=True, slots=True)
class TwoFaultVertexLabel:
    vertex: int
    root_id: int
    own_color: int | None
    entries: dict[int, ColorEntry]  # keyed by color on T[s,v]
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class TwoFaultColorLabel:
    color: int
    pairs: dict[tuple[int, int], int]  # (u in U, d on T[s,u]) -> cid(u, G-{color,d})
    bits: int = field(default=0, compare=False)


def truncated_bfs(
    g: ColoredGraph, removed: Collection[int], origin: int, cap: int
) -> TruncatedTree:
    """BFS of ``g`` minus the edge ids ``removed`` from a live origin, halting at ``cap`` vertices.

    With ``removed`` a color's class (``ColoredGraph.color_classes``) this
    walks G - c exactly, in vertex mode too: the walk enters only live
    vertices, so an edge at a c-colored vertex is one whose far end has color c.
    """
    adj = g.adjacency

    def adjacency(x: int) -> list[tuple[int, int]]:
        return [(w, eid) for w, eid in adj(x) if eid not in removed]

    walk = list(islice(bfs(adjacency, (origin,)), cap))
    order = [x for x, _p, _eid, _d in walk]
    if g.mode == EDGE:
        colors = {g.edge_color(eid) for _x, _p, eid, _d in walk[1:]}
    else:
        colors = {g.vertex_color(w) for w in order}
    return TruncatedTree(tuple(order), frozenset(colors), len(order) >= cap)


def label_two_fault(g: ColoredGraph) -> LabelSet:
    cap = math.isqrt(g.n) if math.isqrt(g.n) ** 2 == g.n else math.isqrt(g.n) + 1
    cap = max(cap, 1)
    forest = bfs_tree(g)
    # colors on T[s,v]; vertex mode includes both endpoints, minus v's own
    colors_on_path = path_colors(g, forest.parent, forest.parent_edge)

    removed = [frozenset(cls) for cls in g.color_classes()]
    truncated: dict[tuple[int, int], TruncatedTree] = {}
    full_family: list[tuple[tuple[int, int], TruncatedTree]] = []
    for v in range(g.n):
        for c in sorted(colors_on_path[v]):
            t = truncated_bfs(g, removed[c], v, cap)
            truncated[(v, c)] = t
            if t.full:
                full_family.append(((v, c), t))

    if full_family:
        U = greedy_hitting_set([t.vertices for _key, t in full_family], g.n)
    else:
        U = ()
    in_U = set(U)
    reps = {key: min(w for w in t.vertices if w in in_U) for key, t in full_family}
    own = g.vertex_colors if g.mode == VERTEX else [None] * g.n

    # every cid(x, G-{c,d}) the labels store, with d = c for cid(x, G-c);
    # colors_on_path[x] never holds x's own color
    wanted: dict[frozenset[int], set[int]] = {}

    def want(x: int, c: int, d: int) -> None:
        wanted.setdefault(frozenset((c, d)), set()).add(x)

    for (v, c), t in truncated.items():
        want(v, c, c)
        for d in t.colors - {own[v]}:
            want(v, c, d)
    for c in range(g.C):
        for u in U:
            if own[u] != c:  # u itself dies with c; never consulted for this color
                for d in colors_on_path[u]:
                    want(u, c, d)
    cids = cids_after_faults(g, wanted)

    def pair_cid(x: int, c: int, d: int) -> int:
        value = cids[frozenset((c, d))][x]
        assert value is not None
        return value

    wid = id_width(max(g.n, 2))
    wc = width_for(max(g.C, 2))
    wlen = width_for(g.n + 1)

    vertex_labels = []
    for v in range(g.n):
        entries: dict[int, ColorEntry] = {}
        for c in sorted(colors_on_path[v]):
            t = truncated[(v, c)]
            entries[c] = ColorEntry(
                cid_minus_c=pair_cid(v, c, c),
                pair_cids={d: pair_cid(v, c, d) for d in sorted(t.colors - {own[v]})},
                full=t.full,
                rep=reps.get((v, c)),
            )
        bits = wid + (wc if g.mode == VERTEX else 0) + wlen
        for c, e in entries.items():
            bits += wc + wid + 1 + wlen + len(e.pair_cids) * (wc + wid)
            if e.full:
                bits += wid
        vertex_labels.append(
            TwoFaultVertexLabel(
                v,
                root_id=forest.root[v],
                own_color=own[v],
                entries=entries,
                bits=bits,
            )
        )

    color_labels = []
    for c in range(g.C):
        pairs = {
            (u, d): pair_cid(u, c, d)
            for u in U if own[u] != c
            for d in sorted(colors_on_path[u])
        }
        bits = wc + wlen + len(pairs) * (wid + wc + wid)
        color_labels.append(TwoFaultColorLabel(c, pairs, bits))

    return LabelSet(
        scheme=SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=tuple(vertex_labels),
        color_labels=tuple(color_labels),
        meta={
            "cap": cap,
            "depth": max(forest.depth, default=0),
            "hitting_set": U,
            "full_trees": len(full_family),
        },
    )


def _derive_cid(
    lv: TwoFaultVertexLabel,
    lc: TwoFaultColorLabel,
    ld: TwoFaultColorLabel,
) -> int:
    c, d = lc.color, ld.color
    if lv.own_color is not None and lv.own_color in (c, d):
        raise RemovedVertexError(f"vertex {lv.vertex} has a faulted color")
    have_c = c in lv.entries
    have_d = d in lv.entries
    if not have_c and not have_d:
        return lv.root_id  # the path to the component minimum survives
    if not have_c:
        c, d = d, c
        lc, ld = ld, lc
    entry = lv.entries[c]
    hit = entry.pair_cids.get(d)
    if hit is not None:
        return hit
    if not entry.full:
        # the small tree spans v's whole component of G-c and avoids d
        return entry.cid_minus_c
    rep = entry.rep
    assert rep is not None
    # rep lies in U and survives c, so each color label holds its pair cids
    hit = ld.pairs.get((rep, c))
    if hit is not None:
        return hit
    hit = lc.pairs.get((rep, d))
    if hit is not None:
        return hit
    return lv.root_id  # neither color on T[s,rep]: rep reaches the root


def query_two_fault_ids(ls: LabelSet, u: int, v: int, c: int, d: int) -> bool:
    # Most queries resolve both sides in _derive_cid's first case, in about
    # 0.33 us, and a call to check_ids would add 0.15 us (best latencies on
    # the many-faults-skewed questions, Python 3.11), so the valid case is
    # tested inline and check_ids only names the bad id.
    n, C = ls.n, ls.C
    if not (0 <= u < n and 0 <= v < n and 0 <= c < C and 0 <= d < C):
        ls.check_ids(u, v, (c, d))
    lu, lv = ls.vertex_labels[u], ls.vertex_labels[v]
    if lu.own_color is not None and lu.own_color in (c, d):
        raise RemovedVertexError(f"vertex {u} has a faulted color")
    if u == v:
        return True
    if lv.own_color is not None and lv.own_color in (c, d):
        raise RemovedVertexError(f"vertex {v} has a faulted color")
    eu, ev = lu.entries, lv.entries
    hu = c in eu or d in eu
    hv = c in ev or d in ev
    if not (hu or hv):
        return lu.root_id == lv.root_id
    lc, ld = ls.color_labels[c], ls.color_labels[d]
    return (_derive_cid(lu, lc, ld) if hu else lu.root_id) == (
        _derive_cid(lv, lc, ld) if hv else lv.root_id
    )
