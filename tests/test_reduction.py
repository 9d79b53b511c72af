import hashlib
import math
import random

import pytest

from colorfault.generators import gen_random
from colorfault.graph import edge_graph
from colorfault.oracle import brute_force_connected
from colorfault.reduction import (
    ExactSingleSource,
    augment,
    build_all_pairs,
    grid_cols,
    grid_rows,
    matching_column,
    query_all_pairs_ids,
    row_separation_estimate,
)


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
    for c in range(g.C):
        view = a.graph.view({c})
        assert view.vertex_present(a.source)
        surviving = {eid for eid, _u, _v in view.surviving_edges()}
        for k in range(len(g.edges), a.graph.m):
            assert k in surviving


def test_exact_inner_scheme_is_exact():
    g = gen_random(12, 20, 4, seed=3)
    inner = ExactSingleSource(f=2, fault_palette=g.C)
    cell = augment(g, 1, 2, seed=5)
    labels = inner.build(cell.graph, cell.source)
    import itertools

    for size in range(3):
        for F in itertools.combinations(range(g.C), size):
            faults = [labels.color_labels[c] for c in F]
            for v in range(g.n):
                want = brute_force_connected(cell.graph, v, cell.source, F)
                assert inner.query(labels.vertex_labels[v], faults) == want


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


def test_label_bits_sum_over_grid():
    g = gen_random(8, 12, 3, seed=2)
    inner = ExactSingleSource(f=1, fault_palette=g.C)
    ls = build_all_pairs(g, f=1, inner=inner, alpha=1.0, seed=1)
    cells = ls.meta["rows"] * ls.meta["cols"]
    lbl = ls.vertex_labels[0]
    assert len(lbl.cells) == cells
    assert lbl.bits == sum(p.bits for p in lbl.cells)


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


def pinned_reduction_answers() -> tuple[int, str]:
    """(True count, sha256) of every pair under 12 seeded fault sets of size <= 2."""
    g = gen_random(16, 24, 4, seed=31)
    ls = build_all_pairs(g, f=2, inner=ExactSingleSource(2, g.C), alpha=1.0, seed=3)
    rng = random.Random(37)
    answers = [query_all_pairs_ids(ls, u, w, F)
               for F in (rng.sample(range(g.C), rng.randrange(0, 3)) for _ in range(12))
               for u in range(g.n) for w in range(g.n)]
    return sum(answers), hashlib.sha256(bytes(answers)).hexdigest()


# Recorded before a query computed its fault key once for every grid cell.
PINNED = (2114, "82dcbfb8902375512fac658fe5987b3e21563aa2a911c93a0117166801a3ccb6")


def test_answers_pinned():
    assert pinned_reduction_answers() == PINNED
