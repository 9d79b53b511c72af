"""All-pairs fault-tolerant connectivity from any single-source scheme.

A grid of independently augmented graphs G_ij is built: each adds one fresh
source s_ij joined to every original vertex independently with probability
2^-j, with the new elements never failing.  Labels concatenate the inner
scheme's labels across the grid; a pair query compares the two vertices'
source-connectivity answers cell by cell and declares them connected exactly
when no cell disagrees.  Connected pairs therefore can never be misreported
(with an exact inner scheme); for a disconnected pair, the column whose rate
matches the smaller component size separates the two vertices in any single
row with constant probability, and the row count turns that into a high
probability overall.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Protocol, Sequence

from .bits import width_for
from .graph import EDGE, VERTEX, ColoredGraph, cids_after_faults, components, remove_colors
from .labels import LabelSet
from .sketch import _hash_fields as derive_seed

SCHEME = "all-pairs-reduction"


def grid_rows(n: int, alpha: float) -> int:
    return max(1, math.ceil(alpha * math.log(max(n, 2)) / math.log(10 / 9)))


def grid_cols(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2)))) + 2


def matching_column(component_size: int) -> int:
    """The j with 2^(j-2) < |U| <= 2^(j-1)."""
    return (component_size - 1).bit_length() + 1 if component_size >= 1 else 1


# -- single-source scheme contract -------------------------------------------------


class SingleSourceScheme(Protocol):
    """A vertex label's ``answers[fault_key(fault_labels)]`` is its ``query`` answer."""

    error_rate: float

    def build(self, g: ColoredGraph, source: int) -> "SingleSourceLabels": ...

    def fault_key(self, fault_labels: Sequence) -> Hashable: ...

    def query(self, vertex_label, fault_labels: Sequence) -> bool: ...


@dataclass(frozen=True)
class SingleSourceLabels:
    vertex_labels: tuple
    color_labels: tuple


@dataclass(frozen=True)
class ExactVertexLabel:
    vertex: int
    answers: dict[frozenset[int], bool]
    bits: int


@dataclass(frozen=True)
class ExactColorLabel:
    color: int
    bits: int


class ExactSingleSource:
    """Brute-force table scheme: one answer bit per fault set (small C, f only).

    Isolates the reduction's own randomness in tests; every inner answer is
    exact, so the reduction's one-sided guarantee is assertable.
    """

    error_rate = 0.0

    def __init__(self, f: int, fault_palette: int):
        self.f = f
        self.fault_palette = fault_palette  # colors eligible to fail: 0..C-1

    def build(self, g: ColoredGraph, source: int) -> SingleSourceLabels:
        subsets = [
            frozenset(F)
            for size in range(self.f + 1)
            for F in itertools.combinations(range(self.fault_palette), size)
        ]
        cids = cids_after_faults(g, {F: range(g.n) for F in subsets})
        vertex_labels = []
        for v in range(g.n):
            answers = {
                F: cids[F][v] is not None and cids[F][v] == cids[F][source] for F in subsets
            }
            vertex_labels.append(ExactVertexLabel(v, answers, len(subsets)))
        color_labels = tuple(
            ExactColorLabel(c, width_for(max(g.C, 2))) for c in range(g.C)
        )
        return SingleSourceLabels(tuple(vertex_labels), color_labels)

    def fault_key(self, fault_labels: Sequence) -> frozenset[int]:
        """The fault set as the answer tables key it, after the budget check."""
        F = frozenset(fl.color for fl in fault_labels)
        if len(F) > self.f:
            raise ValueError("fault set larger than the scheme's budget")
        return F

    def query(self, vertex_label: ExactVertexLabel, fault_labels: Sequence) -> bool:
        return vertex_label.answers[self.fault_key(fault_labels)]


# -- augmented grid -----------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedCell:
    row: int
    col: int
    graph: ColoredGraph
    source: int
    source_edges: tuple[int, ...]  # original vertices joined to the source


def augment(g: ColoredGraph, row: int, col: int, seed: int) -> AugmentedCell:
    """G plus a never-failing source joined to each vertex with rate 2^-col."""
    rng = random.Random(derive_seed(seed, row, col))
    p = 2.0 ** (-col)
    source = g.n
    joined = tuple(v for v in range(g.n) if rng.random() < p)
    edges = list(g.edges) + [(source, v) for v in joined]
    if g.mode == EDGE:
        colors = list(g.edge_colors or ()) + [g.C] * len(joined)
        graph = ColoredGraph(
            n=g.n + 1, mode=EDGE, edges=tuple(edges), C=g.C + 1,
            edge_colors=tuple(colors),
        )
    else:
        vcolors = list(g.vertex_colors or ()) + [g.C]
        graph = ColoredGraph(
            n=g.n + 1, mode=VERTEX, edges=tuple(edges), C=g.C + 1,
            vertex_colors=tuple(vcolors),
        )
    return AugmentedCell(row, col, graph, source, joined)


@dataclass(frozen=True)
class ReductionVertexLabel:
    vertex: int
    cells: tuple  # inner vertex labels, row-major
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ReductionColorLabel:
    color: int
    cells: tuple
    bits: int = field(default=0, compare=False)


def build_all_pairs(
    g: ColoredGraph,
    f: int,
    inner: SingleSourceScheme,
    alpha: float = 2.0,
    seed: int = 0,
) -> LabelSet:
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    rows = grid_rows(g.n, alpha)
    cols = grid_cols(g.n)
    cell_labels = []
    cell_meta = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            cell = augment(g, i, j, seed)
            cell_labels.append(inner.build(cell.graph, cell.source))
            cell_meta.append(cell)

    vertex_labels = []
    for v in range(g.n):
        parts = tuple(ls.vertex_labels[v] for ls in cell_labels)
        vertex_labels.append(
            ReductionVertexLabel(v, parts, sum(p.bits for p in parts))
        )
    color_labels = []
    for c in range(g.C):
        parts = tuple(ls.color_labels[c] for ls in cell_labels)
        color_labels.append(
            ReductionColorLabel(c, parts, sum(p.bits for p in parts))
        )
    return LabelSet(
        scheme=SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=tuple(vertex_labels),
        color_labels=tuple(color_labels),
        meta={
            "rows": rows,
            "cols": cols,
            "alpha": alpha,
            "seed": seed,
            "inner": inner,
            "cells": tuple(cell_meta),
        },
    )


def query_all_pairs(
    ls: LabelSet,
    lu: ReductionVertexLabel,
    lw: ReductionVertexLabel,
    fault_labels: Sequence[ReductionColorLabel],
) -> bool:
    """Connected iff the two vertices agree with the source in every cell.

    A fault set names the same colors in every cell, so its key into the
    cells' answer tables is built (and its budget checked) once.
    """
    inner: SingleSourceScheme = ls.meta["inner"]
    key = inner.fault_key([fl.cells[0] for fl in fault_labels])
    return all(a.answers[key] == b.answers[key] for a, b in zip(lu.cells, lw.cells))


def query_all_pairs_ids(ls: LabelSet, u: int, w: int, F: Iterable[int]) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, w, colors)
    return query_all_pairs(
        ls,
        ls.vertex_labels[u],
        ls.vertex_labels[w],
        [ls.color_labels[c] for c in colors],
    )


def row_separation_estimate(
    g: ColoredGraph,
    u: int,
    w: int,
    F: Iterable[int],
    trials: int,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate that a single row at the matched column separates
    a disconnected pair: exactly one of the two components gets a source edge."""
    comp = components(remove_colors(g, F))
    if comp[u] == comp[w]:
        raise ValueError("pair is connected; plant a disconnected one")
    U = [v for v, c in enumerate(comp) if c == comp[u]]
    W = [v for v, c in enumerate(comp) if c == comp[w]]
    if len(U) > len(W):
        U, W = W, U
    j = matching_column(len(U))
    p = 2.0 ** (-j)
    rng = random.Random(derive_seed(seed, u, w, j))
    hits = 0
    for _ in range(trials):
        n_u = any(rng.random() < p for _ in U)
        n_w = any(rng.random() < p for _ in W)
        hits += n_u != n_w
    return hits / trials
