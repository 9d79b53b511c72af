"""All-pairs fault-tolerant connectivity from any single-source scheme.

A grid of independently augmented graphs G_ij is built: each adds one fresh
source s_ij joined to every original vertex independently with probability
2^-j, with the new elements never failing.  A vertex label stores the inner
scheme's answers transposed: for each fault set, one grid mask whose bit i
(cells row-major) is the vertex's source-connectivity answer in cell i.  A
pair is declared connected exactly when its two masks for the fault set are
equal, i.e. when no cell disagrees.  Connected pairs therefore can never be
misreported (with an exact inner scheme); for a disconnected pair, the column
whose rate matches the smaller component size separates the two vertices in
any single row with constant probability, and the row count turns that into
a high probability overall.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Protocol, Sequence

from .bits import width_for
from .graph import EDGE, VERTEX, ColoredGraph, cids_after_faults
from .labels import LabelSet, check_removed
from .sketch import _hash_fields as derive_seed

SCHEME = "all-pairs-reduction"


def grid_rows(n: int, alpha: float) -> int:
    return max(1, math.ceil(alpha * math.log(max(n, 2)) / math.log(10 / 9)))


def grid_cols(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2)))) + 2


# -- single-source scheme contract -------------------------------------------------


class SingleSourceScheme(Protocol):
    """A vertex label's ``answers[fault_key(fault_labels)]`` is its ``query`` answer.

    The reduction reads each inner vertex label's ``answers`` once, at build
    time, to fill its grid masks, and never at query time.
    """

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
    rows: dict[Hashable, int]  # fault key -> grid mask: bit i is the answer in cell i
    bits: int = field(default=0, compare=False)
    own_color: int | None = None  # vertex mode only: v's color, whose fault removes v


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
    masks: list[dict] = [{} for _ in range(g.n)]
    vertex_bits = [0] * g.n
    cell_colors = []
    grid = itertools.product(range(1, rows + 1), range(1, cols + 1))
    for i, (row, col) in enumerate(grid):
        cell = augment(g, row, col, seed)
        labels = inner.build(cell.graph, cell.source)
        bit = 1 << i
        for v in range(g.n):
            lbl = labels.vertex_labels[v]
            mask = masks[v]
            for key, answer in lbl.answers.items():
                mask[key] = mask.get(key, 0) | (bit if answer else 0)
            vertex_bits[v] += lbl.bits
        cell_colors.append(labels.color_labels)

    own = g.vertex_colors if g.mode == VERTEX else None
    own_bits = width_for(g.C) if own is not None else 0
    vertex_labels = tuple(
        ReductionVertexLabel(v, masks[v], vertex_bits[v] + own_bits,
                             None if own is None else own[v])
        for v in range(g.n)
    )
    color_labels = []
    for c in range(g.C):
        parts = tuple(cl[c] for cl in cell_colors)
        color_labels.append(
            ReductionColorLabel(c, parts, sum(p.bits for p in parts))
        )
    return LabelSet(
        scheme=SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=vertex_labels,
        color_labels=tuple(color_labels),
        meta={"rows": rows, "cols": cols, "alpha": alpha, "seed": seed, "inner": inner},
    )


def query_all_pairs(
    ls: LabelSet,
    lu: ReductionVertexLabel,
    lw: ReductionVertexLabel,
    fault_labels: Sequence[ReductionColorLabel],
) -> bool:
    """Connected iff the two vertices agree with the source in every cell.

    A fault set names the same colors in every cell, so its key (and its
    budget check) is built once and selects one grid mask per vertex.
    """
    check_removed(lu, lw, [fl.color for fl in fault_labels])
    inner: SingleSourceScheme = ls.meta["inner"]
    key = inner.fault_key([fl.cells[0] for fl in fault_labels])
    return lu.rows[key] == lw.rows[key]


def query_all_pairs_ids(ls: LabelSet, u: int, w: int, F: Iterable[int]) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, w, colors)
    return query_all_pairs(
        ls,
        ls.vertex_labels[u],
        ls.vertex_labels[w],
        [ls.color_labels[c] for c in colors],
    )
