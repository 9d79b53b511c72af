import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc
from typing import Iterable

import pytest

from colorfault.bits import width_for
from colorfault.generators import gen_random
from colorfault.graph import (
    EDGE,
    VERTEX,
    ColoredGraph,
    GraphError,
    InvalidFaultSetError,
    RemovedVertexError,
    edge_graph,
    vertex_graph,
)
from colorfault.labels import check_removed
from colorfault.oracle import brute_force_connected, brute_force_partition
from colorfault.reduction import (
    ExactSingleSource,
    build_all_pairs,
    derive_seed,
    grid_cols,
    grid_rows,
    joined_vertices,
    query_all_pairs_ids,
)


@dataclasses.dataclass(frozen=True)
class AugmentedCell:
    row: int
    col: int
    graph: ColoredGraph
    source: int
    source_edges: tuple[int, ...]  # original vertices joined to the source


def augment(g: ColoredGraph, row: int, col: int, seed: int) -> AugmentedCell:
    """G plus a never-failing source joined to each vertex with rate 2^-col.

    The paper's cell graph G_ij, the reference the label masks are checked on.
    """
    source = g.n
    joined = joined_vertices(g.n, row, col, seed)
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


def matching_column(component_size: int) -> int:
    """The j with 2^(j-2) < |U| <= 2^(j-1)."""
    return (component_size - 1).bit_length() + 1 if component_size >= 1 else 1


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
    comp = brute_force_partition(g, F)
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


def test_grid_dimensions_smallest():
    assert grid_cols(2) == 3
    assert grid_rows(2, 1.0) == math.ceil(math.log(2) / math.log(10 / 9))


def test_matching_column():
    assert matching_column(1) == 1
    assert matching_column(2) == 2
    assert matching_column(4) == 3
    assert matching_column(5) == 4


def test_augment_reproducible_and_never_failing():
    g = gen_random(10, 18, 3, seed=1)
    a = augment(g, 2, 3, seed=7)
    b = augment(g, 2, 3, seed=7)
    assert a.graph == b.graph and a.source_edges == b.source_edges
    # the source and its edges survive every fault over the original palette
    classes = a.graph.color_classes()
    for c in range(g.C):
        assert brute_force_partition(a.graph, {c})[a.source] is not None
        assert all(k not in classes[c] for k in range(len(g.edges), a.graph.m))


def test_connected_pairs_never_misreported():
    for seed in range(5):
        g = gen_random(14, 26, 4, seed=seed)
        inner = ExactSingleSource(f=1, fault_palette=g.C)
        ls = build_all_pairs(g, f=1, inner=inner, alpha=1.0, seed=seed)
        for c in range(g.C):
            for u in range(g.n):
                for w in range(u + 1, g.n):
                    if brute_force_connected(g, u, w, {c}):
                        assert query_all_pairs_ids(ls, u, w, {c})


def assert_bits_sum_over_grid(mode: str) -> None:
    g = gen_random(8, 12, 4, seed=2, mode=mode)  # width_for(C) < width_for(C + 1)
    inner = ExactSingleSource(f=1, fault_palette=g.C)
    ls = build_all_pairs(g, f=1, inner=inner, alpha=1.0, seed=1)
    cells = ls.meta["rows"] * ls.meta["cols"]
    fault_sets = 1 + g.C  # the empty set and every single color
    own_bits = width_for(g.C) if mode == "vertex" else 0
    for lbl in ls.vertex_labels:
        assert all(0 <= row < 1 << cells for row in lbl.rows.values())
        assert len(lbl.rows) == fault_sets
        assert lbl.bits == cells * fault_sets + own_bits
    for lbl in ls.color_labels:
        assert lbl.bits == cells * width_for(g.C + 1)  # a color of the augmented palette


def test_label_bits_sum_over_grid():
    assert_bits_sum_over_grid("edge")


def test_vertex_label_bits_add_own_color():
    assert_bits_sum_over_grid("vertex")


@pytest.mark.parametrize("g, seed", [
    pytest.param(gen_random(10, 16, 3, seed=5), 4, id="edge"),
    pytest.param(gen_random(10, 16, 3, seed=5, mode="vertex"), 4, id="vertex"),
    # three components, one of them an isolated vertex
    pytest.param(edge_graph(9, [(0, 1, 0), (1, 2, 1), (2, 0, 2), (3, 4, 0), (4, 5, 1),
                                (5, 6, 2), (6, 3, 3), (4, 6, 1)], C=4), 1,
                 id="edge-disconnected"),
    pytest.param(vertex_graph([0, 1, 2, 0, 1, 2, 3, 3, 0, 1],
                              [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8), (8, 5)]),
                 2, id="vertex-disconnected"),
    pytest.param(gen_random(9, 20, 3, seed=11, simple=False), 6, id="multigraph"),
    pytest.param(gen_random(12, 30, 4, seed=8, mode="vertex"), 3, id="vertex-dense"),
])
def test_rows_match_per_cell_answers(g, seed):
    f = 2
    inner = ExactSingleSource(f=f, fault_palette=g.C)
    ls = build_all_pairs(g, f=f, inner=inner, alpha=1.0, seed=seed)
    grid = itertools.product(range(1, ls.meta["rows"] + 1), range(1, ls.meta["cols"] + 1))
    removed_joined = False  # vertex mode: some fault set removes a vertex joined to a source
    for i, (row, col) in enumerate(grid):
        cell = augment(g, row, col, seed)
        for size in range(f + 1):
            for F in itertools.combinations(range(g.C), size):
                if g.mode == "vertex":
                    removed_joined |= any(g.vertex_colors[v] in F for v in cell.source_edges)
                for v in range(g.n):
                    got = ls.vertex_labels[v].rows[frozenset(F)] >> i & 1
                    # a vertex that F removes reaches no source
                    removed = g.mode == "vertex" and g.vertex_colors[v] in F
                    assert got == (not removed and
                                   brute_force_connected(cell.graph, v, cell.source, F))
    assert g.mode == "edge" or removed_joined


def test_build_peak_memory_small():
    # one component-id table per fault set (22 tables of 48 entries here) and one grid mask
    # per vertex and fault set
    g = gen_random(48, 96, 6, seed=1)
    tracemalloc.start()
    try:
        build_all_pairs(g, 2, ExactSingleSource(2, 6), 1.0, 5)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_vertex_mode_removed_endpoint_raises():
    g = gen_random(12, 20, 3, seed=4, mode="vertex")
    ls = build_all_pairs(g, 1, ExactSingleSource(1, g.C), 1.0, 0)
    assert g.vertex_colors[0] == g.vertex_colors[3] == 1
    with pytest.raises(RemovedVertexError):
        query_all_pairs_ids(ls, 0, 3, [1])
    for c in range(g.C):
        for u in range(g.n):
            for w in range(g.n):
                try:
                    want = brute_force_connected(g, u, w, {c})
                except RemovedVertexError:
                    with pytest.raises(RemovedVertexError):
                        query_all_pairs_ids(ls, u, w, {c})
                    continue
                if want:
                    assert query_all_pairs_ids(ls, u, w, {c})


def test_disconnected_error_rate_small():
    rng = random.Random(0)
    errors = 0
    trials = 0
    for seed in range(4):
        g = gen_random(16, 24, 4, seed=100 + seed)
        inner = ExactSingleSource(f=1, fault_palette=g.C)
        ls = build_all_pairs(g, f=1, inner=inner, alpha=2.0, seed=seed)
        pairs = [
            (u, w, c)
            for c in range(g.C)
            for u in range(g.n)
            for w in range(u + 1, g.n)
            if not brute_force_connected(g, u, w, {c})
        ]
        for u, w, c in pairs:
            trials += 1
            errors += query_all_pairs_ids(ls, u, w, {c})
    assert trials > 100
    assert errors / trials <= 0.01


def test_reflexive_queries():
    g = gen_random(10, 16, 3, seed=9)
    inner = ExactSingleSource(f=1, fault_palette=g.C)
    ls = build_all_pairs(g, f=1, inner=inner, alpha=1.0, seed=2)
    for v in range(g.n):
        assert query_all_pairs_ids(ls, v, v, {0})


def test_row_separation_at_least_tenth():
    g = edge_graph(20, [(i, i + 1, i % 3) for i in range(9)] +
                       [(10 + i, 11 + i, i % 3) for i in range(9)], C=3)
    # components {0..9} and {10..19} are disconnected with no faults at all
    est = row_separation_estimate(g, 0, 10, F=(), trials=10000, seed=1)
    sigma = math.sqrt(est * (1 - est) / 10000)
    assert est >= 0.1 - 3 * sigma


def test_alpha_validation():
    g = gen_random(6, 8, 2, seed=1)
    inner = ExactSingleSource(f=1, fault_palette=g.C)
    with pytest.raises(ValueError):
        build_all_pairs(g, f=1, inner=inner, alpha=0.5)
    # the inner scheme must be for the build's fault budget and the graph's palette
    with pytest.raises(ValueError):
        build_all_pairs(g, f=2, inner=inner, alpha=1.0)
    with pytest.raises(ValueError):
        build_all_pairs(g, f=1, inner=ExactSingleSource(f=1, fault_palette=g.C - 1), alpha=1.0)
    g = gen_random(12, 20, 4, seed=3)  # a short palette would leave fault sets without a mask
    with pytest.raises(ValueError):
        build_all_pairs(g, 1, ExactSingleSource(1, 2), 1.0, 0)


def test_negative_fault_budget_rejected():
    g = gen_random(6, 8, 2, seed=1)
    with pytest.raises(ValueError, match="fault budget"):
        build_all_pairs(g, f=-1, inner=ExactSingleSource(-1, g.C), alpha=1.0)


def pinned_reduction_answers(rebuild=lambda ls: ls) -> tuple[int, str]:
    """(True count, sha256) of every pair under 12 seeded fault sets of size <= 2.

    ``rebuild`` maps the built label set to the one asked.
    """
    g = gen_random(16, 24, 4, seed=31)
    ls = rebuild(build_all_pairs(g, f=2, inner=ExactSingleSource(2, g.C), alpha=1.0, seed=3))
    rng = random.Random(37)
    answers = [query_all_pairs_ids(ls, u, w, F)
               for F in (rng.sample(range(g.C), rng.randrange(0, 3)) for _ in range(12))
               for u in range(g.n) for w in range(g.n)]
    return sum(answers), hashlib.sha256(bytes(answers)).hexdigest()


# Recorded before a query computed its fault key once for every grid cell.
PINNED = (2114, "82dcbfb8902375512fac658fe5987b3e21563aa2a911c93a0117166801a3ccb6")


def test_answers_pinned():
    assert pinned_reduction_answers() == PINNED


def test_queries_read_labels_only():
    assert pinned_reduction_answers(lambda ls: dataclasses.replace(ls, meta={})) == PINNED


def test_oversized_fault_set_rejected():
    g = gen_random(10, 16, 3, seed=5)
    ls = build_all_pairs(g, f=1, inner=ExactSingleSource(1, g.C), alpha=1.0, seed=4)
    with pytest.raises(ValueError, match="budget"):
        query_all_pairs_ids(ls, 0, 1, [0, 1])


# -- the query before its checks shared one frame ----------------------------------


def reference_query_all_pairs(lu, lw, fault_labels) -> bool:
    check_removed(lu, lw, [fl.color for fl in fault_labels])
    key = frozenset(fl.color for fl in fault_labels)
    if key not in lu.rows:
        raise InvalidFaultSetError("fault set larger than the scheme's budget")
    return lu.rows[key] == lw.rows[key]


def reference_query_all_pairs_ids(ls, u, w, F) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, w, colors)
    return reference_query_all_pairs(
        ls.vertex_labels[u],
        ls.vertex_labels[w],
        [ls.color_labels[c] for c in colors],
    )


def outcome(fn, *args):
    """The answer, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: see the caller
        return type(exc), str(exc)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_query_matches_the_unfolded_reference(mode):
    # random pairs and fault sets, with bad vertex and color ids, repeated
    # colors, over-budget sets and (vertex mode) removed endpoints
    g = gen_random(12, 20, 4, seed=5, mode=mode)
    ls = build_all_pairs(g, 2, ExactSingleSource(2, g.C), alpha=1.0, seed=3)
    rng = random.Random(40)
    seen = set()
    for _ in range(4000):
        u, w = (rng.randrange(-2, g.n + 2) if rng.random() < 0.1 else rng.randrange(g.n)
                for _ in range(2))
        palette = range(-2, g.C + 2) if rng.random() < 0.1 else range(g.C)
        F = rng.sample(palette, rng.randrange(0, 4))
        F += F[:rng.randrange(0, 2)]
        want = outcome(reference_query_all_pairs_ids, ls, u, w, F)
        assert outcome(query_all_pairs_ids, ls, u, w, iter(F)) == want, (u, w, F)
        seen.add(want if isinstance(want, bool) else (want[0], want[1].split()[0]))
    assert {True, False, (GraphError, "vertex"), (InvalidFaultSetError, "color"),
            (InvalidFaultSetError, "fault")} <= seen
    assert ((RemovedVertexError, "vertex") in seen) == (mode == "vertex")
