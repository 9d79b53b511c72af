"""Deterministic instance generators for experiments and verification sweeps."""

from __future__ import annotations

import random

from .graph import EDGE, VERTEX, ColoredGraph, GraphError

COLORINGS = ("uniform", "unique", "blocks")


def _colors(count: int, C: int, coloring: str, rng: random.Random) -> tuple[list[int], int]:
    """``count`` colors (one per edge or per vertex) and the palette size."""
    if coloring == "unique":
        return list(range(count)), max(count, 1)
    if C <= 0:
        raise GraphError("palette size must be positive for this coloring")
    if coloring == "uniform":
        return [rng.randrange(C) for _ in range(count)], C
    if coloring == "blocks":
        return [min(i * C // max(count, 1), C - 1) for i in range(count)], C
    raise GraphError(f"unknown coloring mode {coloring!r}")


def _finish(
    n: int,
    edges: list[tuple[int, int]],
    C: int,
    coloring: str,
    rng: random.Random,
    mode: str,
) -> ColoredGraph:
    if mode == EDGE:
        colors, palette = _colors(len(edges), C, coloring, rng)
        return ColoredGraph(n=n, mode=EDGE, edges=tuple(edges), C=palette,
                            edge_colors=tuple(colors))
    vcolors, palette = _colors(n, C, coloring, rng)
    return ColoredGraph(n=n, mode=VERTEX, edges=tuple(edges), C=palette,
                        vertex_colors=tuple(vcolors))


def gen_random(
    n: int,
    m: int,
    C: int,
    seed: int,
    mode: str = EDGE,
    coloring: str = "uniform",
    simple: bool = True,
    connected: bool = False,
) -> ColoredGraph:
    """Random multigraph; ``simple`` samples edges without replacement."""
    if n < 0 or m < 0:
        raise GraphError("n and m must be non-negative")
    if m and not n:
        raise GraphError(f"{m} edges need at least one vertex")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if connected and n > 1:
        # random spanning tree first so the remainder only pads
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            a = order[i]
            b = order[rng.randrange(i)]
            edges.append((min(a, b), max(a, b)))
        if m < n - 1:
            raise GraphError(f"connected graph on {n} vertices needs m >= {n - 1}")
    remaining = m - len(edges)
    if simple:
        capacity = n * (n - 1) // 2
        if m > capacity:
            raise GraphError(f"m={m} infeasible for a simple graph on {n} vertices")
        present = set(edges)
        while remaining > 0:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in present:
                continue
            present.add(e)
            edges.append(e)
            remaining -= 1
    else:
        for _ in range(remaining):
            u = rng.randrange(n)
            v = rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
    edges.sort()
    return _finish(n, edges, C, coloring, rng, mode)


def gen_path(
    n: int,
    coloring: str = "unique",
    C: int = 0,
    seed: int = 0,
    mode: str = EDGE,
) -> ColoredGraph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return _finish(n, edges, C, coloring, random.Random(seed), mode)


def gen_wheel(
    n: int,
    coloring: str = "unique",
    C: int = 0,
    seed: int = 0,
    mode: str = EDGE,
) -> ColoredGraph:
    """Hub 0 joined to every vertex of the cycle 1..n-1."""
    if n < 4:
        raise GraphError("wheel needs n >= 4")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return _finish(n, edges, C, coloring, random.Random(seed), mode)


def gen_grid(
    a: int,
    b: int,
    coloring: str = "unique",
    C: int = 0,
    seed: int = 0,
    mode: str = EDGE,
) -> ColoredGraph:
    """a x b grid; vertex (r, c) has id r*b + c."""
    if a <= 0 or b <= 0:
        raise GraphError("grid dimensions must be positive")
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1))
            if r + 1 < a:
                edges.append((v, v + b))
    return _finish(a * b, edges, C, coloring, random.Random(seed), mode)


def gen_tree(n: int, seed: int, coloring: str = "uniform", C: int = 3, mode: str = EDGE) -> ColoredGraph:
    """Random labeled tree (each vertex attaches to a random earlier one)."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return _finish(n, edges, C, coloring, rng, mode)
