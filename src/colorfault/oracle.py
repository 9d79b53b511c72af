"""Brute-force connectivity oracle: the ground truth every scheme is tested against."""

from __future__ import annotations

from typing import Iterable

from .graph import (
    ColoredGraph,
    GraphError,
    RemovedVertexError,
    components,
    remove_colors,
    union_find,
)


def brute_force_connected(
    g: ColoredGraph, u: int, v: int, faults: Iterable[int] = ()
) -> bool:
    """Union-find over surviving edges; errors match the core cid semantics."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    gv = remove_colors(g, faults)
    for x in (u, v):
        if not gv.vertex_present(x):
            raise RemovedVertexError(f"vertex {x} has a faulted color")
    if u == v:
        return True
    return union_find(gv).connected(u, v)


def brute_force_partition(g: ColoredGraph, faults: Iterable[int] = ()) -> list[int | None]:
    """cid per vertex under ``faults``; None for removed vertices."""
    return components(remove_colors(g, faults))
