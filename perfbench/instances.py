"""Seeded benchmark inputs, generated here with stdlib ``random`` only.

The program under test receives these instances as ``ccg`` text through
``parse_graph``; nothing here imports ``colorfault``, so a change to the
package's own generators cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """An edge-colored multigraph as plain tuples plus its ccg text."""

    name: str
    n: int
    C: int
    edges: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]
    text: str

    @property
    def m(self) -> int:
        return len(self.edges)

    def fingerprint(self) -> dict:
        sizes = [0] * self.C
        for c in self.colors:
            sizes[c] += 1
        return {
            "n": self.n,
            "m": self.m,
            "C": self.C,
            "class_max": max(sizes, default=0),
            "class_median": statistics.median(sizes) if sizes else 0,
            "sha256": hashlib.sha256(self.text.encode()).hexdigest(),
        }


def make_instance(name: str, n: int, C: int, edges, colors) -> Instance:
    edges = tuple(edges)
    colors = tuple(colors)
    lines = [f"ccg 1 edge {n} {len(edges)} {C}"]
    lines.extend(f"{u} {v} {c}" for (u, v), c in zip(edges, colors))
    return Instance(name, n, C, edges, colors, "\n".join(lines) + "\n")


def derive(seed: int, *salt) -> random.Random:
    """Independent stream per (seed, purpose); stable across Python runs."""
    key = hashlib.sha256(repr((seed,) + salt).encode()).digest()
    return random.Random(int.from_bytes(key[:8], "big"))


def random_connected_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Simple connected graph: a random spanning tree padded with random edges."""
    order = list(range(n))
    rng.shuffle(order)
    present: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        present.add((min(a, b), max(a, b)))
    while len(present) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            present.add((min(a, b), max(a, b)))
    return sorted(present)


def apportioned_colors(m: int, weights: list[float], rng: random.Random) -> list[int]:
    """Class k gets its share of ``m`` by largest remainder; edges are then shuffled.

    Fixing class sizes (rather than drawing each edge's color) keeps the palette's
    shape identical across seeds, so seeds vary only which edges share a class.
    """
    total = sum(weights)
    quotas = [m * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(weights)), key=lambda k: counts[k] - quotas[k])
    for k in by_remainder[: m - sum(counts)]:
        counts[k] += 1
    colors = [k for k, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(colors)
    return colors


def unique_colors(m: int, rng: random.Random) -> list[int]:
    colors = list(range(m))
    rng.shuffle(colors)
    return colors


def random_graph(name: str, n: int, m: int, C: int, seed: int, palette: str = "uniform") -> Instance:
    edges = random_connected_edges(n, m, derive(seed, name, "edges"))
    rng = derive(seed, name, "colors")
    # Zipf(1.3): class k is proportional to (k + 1) ** -1.3
    weights = [(k + 1) ** -1.3 for k in range(C)] if palette == "zipf" else [1.0] * C
    colors = apportioned_colors(len(edges), weights, rng)
    return make_instance(name, n, C, edges, colors)


def path_graph(name: str, n: int, seed: int) -> Instance:
    edges = [(i, i + 1) for i in range(n - 1)]
    return make_instance(name, n, len(edges), edges, unique_colors(len(edges), derive(seed, name)))


def grid_graph(name: str, rows: int, cols: int, seed: int) -> Instance:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return make_instance(name, rows * cols, len(edges), edges,
                         unique_colors(len(edges), derive(seed, name)))


def random_bits(count: int, rng: random.Random) -> list[int]:
    return [rng.randrange(2) for _ in range(count)]
