"""Brute-force connectivity oracle: the ground truth every scheme is tested against.

:func:`brute_force_partition` is the one partition of G - F for a single fault
set F.  It states the survival rule itself, edge by edge, rather than reading
``ColoredGraph.color_classes``, so it shares no survival code with the schemes
it checks.
"""

from __future__ import annotations

from typing import Iterable

from .graph import EDGE, ColoredGraph, GraphError, RemovedVertexError, UnionFind


def brute_force_partition(g: ColoredGraph, faults: Iterable[int] = ()) -> list[int | None]:
    """cid per vertex under ``faults``; None for removed vertices.

    One union-find over the edges that survive: an edge survives unless its
    color fails (edge mode) or the color of either end fails (vertex mode).
    """
    F = g.check_fault_set(faults)
    uf = UnionFind(g.n)
    if g.mode == EDGE:
        ec = g.edge_colors
        for eid, (u, v) in enumerate(g.edges):
            if u != v and ec[eid] not in F:
                uf.union(u, v)
    else:
        vc = g.vertex_colors
        for u, v in g.edges:
            if u != v and vc[u] not in F and vc[v] not in F:
                uf.union(u, v)
    parent, min_id = uf.parent, uf.min_id
    part: list[int | None] = []
    for x in range(g.n):  # the finds inline: one pass, no call per vertex
        while parent[x] != x:
            x = parent[x]
        part.append(min_id[x])
    if g.mode == EDGE:
        return part
    return [None if c in F else cid for cid, c in zip(part, vc)]


def brute_force_connected(
    g: ColoredGraph, u: int, v: int, faults: Iterable[int] = ()
) -> bool:
    """Whether ``u`` and ``v`` share a part of :func:`brute_force_partition`.

    Errors match the core cid semantics.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    part = brute_force_partition(g, faults)
    for x in (u, v):
        if part[x] is None:
            raise RemovedVertexError(f"vertex {x} has a faulted color")
    return part[u] == part[v]
