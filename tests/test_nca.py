import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault.bits import id_width
from colorfault.generators import gen_random
from colorfault.graph import RemovedVertexError, edge_graph
from colorfault.nca import (
    build_nca,
    build_one_fault_oracle,
    dump_oracle,
    label_nca,
    load_oracle,
    naive_nearest_colored_ancestor,
    nca_query,
    nca_threshold,
    oracle_file_bits,
    query_nca_labels,
)
from colorfault.oracle import brute_force_partition

RED, BLUE, GREEN = 0, 1, 2

# chain 0 -> 1 -> 2 -> 3 colored red, blue, red, blue
CHAIN_PARENT = [None, 0, 1, 2]
CHAIN_COLORS = [RED, BLUE, RED, BLUE]


def random_forest(rng, n):
    parent = [None] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v) if rng.random() < 0.9 else None
    return parent


# -- structure ------------------------------------------------------------------


def test_per_color_array_sizes():
    s = build_nca(CHAIN_PARENT, CHAIN_COLORS)
    assert len(s.arrays[RED]) == 4
    assert len(s.arrays[BLUE]) == 4


def test_dfs_preorder_root_first():
    s = build_nca(CHAIN_PARENT, CHAIN_COLORS)
    assert s.pre[0] == 0


def test_chain_queries():
    s = build_nca(CHAIN_PARENT, CHAIN_COLORS)
    assert nca_query(s, 3, RED) == 2
    assert nca_query(s, 1, GREEN) is None
    assert nca_query(s, 2, RED) == 2  # self-inclusive


def test_matches_naive_walk_on_random_trees():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(2, 30)
        parent = random_forest(rng, n)
        colors = [rng.randrange(4) if rng.random() < 0.8 else None for _ in range(n)]
        s = build_nca(parent, colors)
        for v in range(n):
            for c in range(4):
                assert nca_query(s, v, c) == naive_nearest_colored_ancestor(
                    parent, colors, v, c
                ), (parent, colors, v, c)


# -- one-fault oracle -------------------------------------------------------------


def test_oracle_path_aba():
    g = edge_graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    o = build_one_fault_oracle(g)
    assert not o.query(0, 3, 1)
    assert o.query(2, 3, 1)


def test_oracle_reflexive():
    g = gen_random(15, 25, 4, seed=1)
    o = build_one_fault_oracle(g)
    for v in range(g.n):
        for c in range(g.C):
            assert o.query(v, v, c)


def _check_oracle(g, o):
    for c in range(g.C):
        part = brute_force_partition(g, {c})
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if part[u] is None or part[v] is None:
                    with pytest.raises(RemovedVertexError):
                        o.query(u, v, c)
                else:
                    assert o.query(u, v, c) == (part[u] == part[v]), (u, v, c)


@given(st.integers(0, 2**30))
@settings(max_examples=15, deadline=None)
def test_oracle_exhaustive_small_random(seed):
    g = gen_random(14, 22, 5, seed=seed)
    _check_oracle(g, build_one_fault_oracle(g))


def test_oracle_vertex_mode():
    g = gen_random(12, 18, 4, seed=7, mode="vertex")
    _check_oracle(g, build_one_fault_oracle(g))


def test_oracle_disconnected():
    g = edge_graph(7, [(0, 1, 0), (1, 2, 1), (4, 5, 0), (5, 6, 1)], C=3)
    _check_oracle(g, build_one_fault_oracle(g))


# -- oracle file --------------------------------------------------------------------


def test_oracle_file_round_trip():
    for mode in ("edge", "vertex"):
        g = gen_random(16, 26, 5, seed=3, mode=mode)
        o = build_one_fault_oracle(g)
        loaded = load_oracle(dump_oracle(o))
        _check_oracle(g, loaded)


def test_oracle_file_size_bound():
    g = gen_random(40, 70, 8, seed=9)
    o = build_one_fault_oracle(g)
    _header, body = oracle_file_bits(o)
    n = len(o.structure.parent)
    assert body <= 3 * n * id_width(n)
    assert len(dump_oracle(o)) * 8 <= _header + body + 7


# -- nearest-colored-ancestor labels -------------------------------------------------


def test_star_prevalent_color():
    # star, all leaves one color: that color is answered from vertex labels
    n = 10
    parent = [None] + [0] * (n - 1)
    colors = [None] + [RED] * (n - 1)
    ls = label_nca(parent, colors, C=1)
    assert ls.color_labels[RED].prevalent
    for v in range(1, n):
        assert query_nca_labels(ls.vertex_labels[v], ls.color_labels[RED]) == v


def test_all_distinct_colors_two_timestamps():
    parent = [None, 0, 1, 2, 3]
    colors = [0, 1, 2, 3, 4]
    ls = label_nca(parent, colors, C=5)
    for lbl in ls.color_labels:
        assert not lbl.prevalent
        assert len(lbl.entries) == 1  # one colored vertex = one (pre, post) pair


def test_labels_match_structure_on_random_trees():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 36)
        parent = random_forest(rng, n)
        C = rng.randrange(1, 7)
        colors = [rng.randrange(C) if rng.random() < 0.85 else None for _ in range(n)]
        s = build_nca(parent, colors)
        ls = label_nca(parent, colors, C=C)
        for v in range(n):
            for c in range(C):
                assert query_nca_labels(
                    ls.vertex_labels[v], ls.color_labels[c]
                ) == nca_query(s, v, c)


def test_label_size_bound_on_acceptance_family():
    rng = random.Random(5)
    for n in (33, 36, 40, 44, 48):
        parent = random_forest(rng, n)
        colors = [rng.randrange(8) for _ in range(n)]
        ls = label_nca(parent, colors, C=8)
        assert ls.max_label_bits() <= 3 * math.sqrt(n) * id_width(n)


def test_threshold_examples():
    assert nca_threshold(10) == 2
    assert nca_threshold(48) == 4
    assert nca_threshold(2) == 2


def test_connectivity_labels_exact():
    from colorfault.nca import label_nca_connectivity, pair_connected_nca

    for seed in range(6):
        for mode in ("edge", "vertex"):
            g = gen_random(14, 24, 4, seed=seed, mode=mode)
            ls = label_nca_connectivity(g)
            for c in range(g.C):
                part = brute_force_partition(g, {c})
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if part[u] is None or part[v] is None:
                            with pytest.raises(RemovedVertexError):
                                pair_connected_nca(
                                    ls.vertex_labels[u], ls.vertex_labels[v],
                                    ls.color_labels[c],
                                )
                        else:
                            got = pair_connected_nca(
                                ls.vertex_labels[u], ls.vertex_labels[v],
                                ls.color_labels[c],
                            )
                            assert got == (part[u] == part[v])
