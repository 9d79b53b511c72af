"""All-pairs fault-tolerant connectivity from one fault-set sweep of G.

The reduction's grid of cells G_ij each add to G a fresh, never-failing source
joined to every vertex independently with probability 2^-j.  A vertex label
holds, for each fault set F, one grid mask whose bit i (cells row-major) says
whether the vertex reaches cell i's source in G_i - F.  Every such path enters
the source through a joined vertex, so the bit is "v survives F and its
component of G - F holds a surviving joined vertex of cell i": the build runs
``cids_after_faults`` once on G and builds no augmented graph; the tests
build each cell's graph, G plus its source, and check every mask bit against
brute force on it.  A query reads only the labels.  A pair is
connected exactly when its two masks are equal, so connected pairs are never
misreported; for a disconnected pair, the column whose rate matches the
smaller component size separates the two in any row with constant
probability, and the row count makes that a high probability.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .bits import width_for
from .graph import (
    VERTEX,
    ColoredGraph,
    InvalidFaultSetError,
    RemovedVertexError,
    cids_after_faults,
)
from .labels import LabelSet
from .sketch import _hash_fields as derive_seed

SCHEME = "all-pairs-reduction"


def grid_rows(n: int, alpha: float) -> int:
    return max(1, math.ceil(alpha * math.log(max(n, 2)) / math.log(10 / 9)))


def grid_cols(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2)))) + 2


def joined_vertices(n: int, row: int, col: int, seed: int) -> tuple[int, ...]:
    """The vertices of 0..n-1 joined to cell (row, col)'s source, each with rate 2^-col."""
    rng = random.Random(derive_seed(seed, row, col))
    p = 2.0 ** (-col)
    return tuple(v for v in range(n) if rng.random() < p)


class ExactSingleSource:
    """The fault-set family the CLI and the benchmark hand to ``build_all_pairs``.

    Every set of at most f colors of the palette 0..C-1 fails; the reduction
    keeps one grid mask per set.
    """

    def __init__(self, f: int, fault_palette: int):
        self.f = f
        self.fault_palette = fault_palette  # colors eligible to fail: 0..C-1

    def fault_sets(self) -> list[frozenset[int]]:
        """Every fault set of at most f colors of the palette, smallest first."""
        return [
            frozenset(F)
            for size in range(self.f + 1)
            for F in itertools.combinations(range(self.fault_palette), size)
        ]


@dataclass(frozen=True, slots=True)
class ReductionVertexLabel:
    vertex: int
    rows: dict[frozenset[int], int]  # fault set -> grid mask: bit i is the answer in cell i
    bits: int = field(default=0, compare=False)
    own_color: int | None = None  # vertex mode only: v's color, whose fault removes v


@dataclass(frozen=True, slots=True)
class ReductionColorLabel:
    color: int
    bits: int = field(default=0, compare=False)


def build_all_pairs(
    g: ColoredGraph,
    f: int,
    inner: ExactSingleSource,
    alpha: float = 2.0,
    seed: int = 0,
) -> LabelSet:
    """A G - F component reaches the cells its surviving vertices are joined to.

    ``inner`` names the fault sets; a vertex label keeps one grid mask per set.
    A vertex pays one bit per fault set and cell (plus its own color in vertex
    mode), a color one id of the augmented palette per cell.
    """
    if f < 0:
        raise ValueError(f"fault budget f={f} must be at least 0")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if inner.f != f or inner.fault_palette != g.C:
        raise ValueError(
            f"inner scheme is for f={inner.f} over {inner.fault_palette} colors; "
            f"the build needs f={f} over {g.C}"
        )
    rows = grid_rows(g.n, alpha)
    cols = grid_cols(g.n)
    cells = rows * cols
    joined = [0] * g.n  # bit i: the vertex is joined to cell i's source
    grid = itertools.product(range(1, rows + 1), range(1, cols + 1))
    for i, (row, col) in enumerate(grid):
        for v in joined_vertices(g.n, row, col, seed):
            joined[v] |= 1 << i

    subsets = inner.fault_sets()
    cids = cids_after_faults(g, {F: range(g.n) for F in subsets})
    masks: list[dict[frozenset[int], int]] = [{} for _ in range(g.n)]
    for F in subsets:
        cid = cids[F]
        reach: dict[int, int] = {}  # component id -> cells whose source it reaches
        for v in range(g.n):
            if cid[v] is not None:
                reach[cid[v]] = reach.get(cid[v], 0) | joined[v]
        for v in range(g.n):
            masks[v][F] = 0 if cid[v] is None else reach[cid[v]]

    own = g.vertex_colors if g.mode == VERTEX else None
    vertex_bits = cells * len(subsets) + (width_for(g.C) if own is not None else 0)
    color_bits = cells * width_for(max(g.C + 1, 2))
    return LabelSet(
        scheme=SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=tuple(
            ReductionVertexLabel(v, masks[v], vertex_bits, None if own is None else own[v])
            for v in range(g.n)
        ),
        color_labels=tuple(ReductionColorLabel(c, color_bits) for c in range(g.C)),
        meta={"rows": rows, "cols": cols, "alpha": alpha, "seed": seed, "f": f},
    )


def query_all_pairs_ids(ls: LabelSet, u: int, w: int, F: Iterable[int]) -> bool:
    """Connected iff the two vertices agree with the source in every cell.

    A fault set names the same colors in every cell, so its colors select one
    grid mask per vertex; a set the labels hold no mask for is over budget.
    """
    key = frozenset(F)
    n = ls.n
    if not (0 <= u < n and 0 <= w < n) or key and not 0 <= min(key) <= max(key) < ls.C:
        ls.check_ids(u, w, sorted(key))  # names the bad id
    lu, lw = ls.vertex_labels[u], ls.vertex_labels[w]
    for lbl in (lu, lw):
        if lbl.own_color in key:
            raise RemovedVertexError(f"vertex {lbl.vertex} has a faulted color")
    mask = lu.rows.get(key)
    if mask is None:
        raise InvalidFaultSetError("fault set larger than the scheme's budget")
    return mask == lw.rows[key]
