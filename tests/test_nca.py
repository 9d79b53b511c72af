import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault.bits import BitWriter, id_width, width_for
from colorfault.generators import gen_random
from colorfault.graph import GraphError, RemovedVertexError, edge_graph
from colorfault.nca import (
    ORACLE_MAGIC,
    ORACLE_VERSION,
    build_nca,
    build_one_fault_oracle,
    dump_oracle,
    label_nca,
    label_nca_connectivity,
    load_oracle,
    nca_query,
    nca_threshold,
    oracle_file_bits,
    query_nca_labels,
)
from colorfault.oracle import brute_force_partition
from colorfault.single_fault import label_single_fault, query_single_fault

RED, BLUE, GREEN = 0, 1, 2

# chain 0 -> 1 -> 2 -> 3 colored red, blue, red, blue
CHAIN_PARENT = [None, 0, 1, 2]
CHAIN_COLORS = [RED, BLUE, RED, BLUE]


def naive_nearest_colored_ancestor(
    parent: list[int | None], colors: list[int | None], v: int, c: int
) -> int | None:
    """Reference oracle: walk the parent chain."""
    x: int | None = v
    while x is not None:
        if colors[x] == c:
            return x
        x = parent[x]
    return None


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


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_cid_rejects_bad_ids(mode):
    g = gen_random(12, 18, 4, seed=7, mode=mode)
    o = build_one_fault_oracle(g)
    for oracle in (o, load_oracle(dump_oracle(o))):
        # -1 would wrap around to the last vertex or color
        for v, c in ((-1, 0), (g.n, 0), (0, -1), (0, g.C)):
            with pytest.raises(GraphError):
                oracle.cids(c, [1, v])
        for c in range(g.C):
            part = brute_force_partition(g, {c})
            live = [v for v in range(g.n) if part[v] is not None]
            assert oracle.cids(c, live) == [part[v] for v in live]
            for v in set(range(g.n)) - set(live):
                with pytest.raises(RemovedVertexError):
                    oracle.cids(c, [v])


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


# vertex-mode graphs from sparse to dense, connected or not, among them
# multigraphs; every one has an anchor of the one-fault ruling set whose own
# color is one the tests fail
VERTEX_GRAPHS = [gen_random(12, 18, 4, seed=7, mode="vertex")] + [
    gen_random(n, m, C, seed=seed, mode="vertex", simple=simple, connected=connected)
    for seed, (n, m, C, simple, connected) in enumerate([
        (2, 1, 2, True, True), (9, 8, 3, True, True), (17, 16, 2, True, True),
        (20, 24, 3, True, False), (24, 30, 5, True, True), (30, 34, 4, False, False),
        (31, 60, 6, True, True), (40, 44, 3, True, False),
    ], start=700)
]


def test_oracle_vertex_mode():
    for g in VERTEX_GRAPHS:
        o = build_one_fault_oracle(g)
        assert len(o.structure.parent) == g.n  # the graph as given, not subdivided
        for oracle in (o, load_oracle(dump_oracle(o))):
            _check_oracle(g, oracle)
        # the one-fault labels read the same index; an anchor of the failed
        # color (each anchor's own color is failed once) keeps its own id
        ls = label_single_fault(g)
        assert ls.meta["A"]
        for c in range(g.C):
            part = brute_force_partition(g, {c})
            lc = ls.color_labels[c]
            for a, value in lc.cid_by_anchor.items():
                assert value == (a if g.vertex_color(a) == c else part[a]), (a, c)
            for v, lv in enumerate(ls.vertex_labels):
                if part[v] is None:
                    with pytest.raises(RemovedVertexError):
                        query_single_fault(lv, lc)
                else:
                    assert query_single_fault(lv, lc) == part[v], (v, c)


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


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_file_size_bound(mode):
    g = gen_random(40, 70, 8, seed=9, mode=mode)
    o = build_one_fault_oracle(g)
    header, body = oracle_file_bits(o)
    n = len(o.structure.parent)
    assert body <= 3 * n * id_width(n)
    # the counted bits are the file's, up to the padding of its last byte
    assert 0 <= 8 * len(dump_oracle(o)) - header - body < 8


def _oracle_file(parents, colors, cids, C, vertex_colors=None):
    """Hand-written oracle file; a parent equal to the vertex marks a root."""
    n = len(parents)
    wid, wc = id_width(n), width_for(C)
    w = BitWriter()
    w.write(ORACLE_MAGIC, 32)
    w.write(ORACLE_VERSION, 8)
    w.write(0 if vertex_colors is None else 1, 8)
    w.write(n, 32)
    w.write(C, 32)
    for p, c, cid in zip(parents, colors, cids):
        w.write(p, wid)
        w.write(c, wc)
        w.write(cid, wid)
    if vertex_colors is not None:
        w.write(len(vertex_colors), 32)
        for c in vertex_colors:
            w.write(c, wc)
    return w.to_bytes()


def test_hand_written_oracle_file_loads():
    # path 0 -1- 1 -0- 2: failing color 1 cuts 0 from {1, 2}
    o = load_oracle(_oracle_file((0, 0, 1), (0, 1, 0), (0, 1, 2), C=2))
    assert not o.query(0, 2, 1)
    assert o.query(1, 2, 1)
    assert not o.query(1, 2, 0)


_DUMPED = {mode: dump_oracle(build_one_fault_oracle(gen_random(16, 26, 5, seed=3, mode=mode)))
           for mode in ("edge", "vertex")}


@pytest.mark.parametrize("blob", [
    _oracle_file((0, 2, 1), (0, 0, 0), (0, 0, 0), 2),  # 1 and 2 parent each other
    _oracle_file((0, 3, 1), (0, 0, 0), (0, 0, 0), 2),  # parent outside 0..2
    _oracle_file((0, 0, 1), (0, 0, 0), (0, 3, 0), 2),  # cid outside 0..2
    _oracle_file((0, 0, 1), (0, 3, 0), (0, 0, 0), 3),  # color outside the palette
    _oracle_file((0, 0, 1), (0, 0, 0), (0, 0, 0), 3, (0, 1, 2, 0)),  # 4 original vertices > 3
    _oracle_file((0, 0, 1), (0, 0, 0), (0, 0, 0), 3, (0, 3)),  # vertex color outside the palette
    _DUMPED["edge"][:5],  # cut inside the header
    _DUMPED["edge"][:-3],  # cut inside the body
    _DUMPED["vertex"][:-3],  # cut inside the vertex colors
    _DUMPED["edge"][:5] + bytes([7]) + _DUMPED["edge"][6:],  # mode byte neither 0 nor 1
], ids=["cycle", "parent", "cid", "color", "original-n", "vertex-color",
        "truncated-header", "truncated-body", "truncated-vertex-colors", "mode"])
def test_malformed_oracle_file_rejected(blob):
    with pytest.raises(GraphError):
        load_oracle(blob)


def test_cli_rejects_cyclic_oracle_file(tmp_path):
    path = tmp_path / "cycle.cfo"
    path.write_bytes(_oracle_file((0, 2, 1), (0, 0, 0), (0, 0, 0), C=2))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run(
        [sys.executable, "-m", "colorfault.cli", "oracle", "query", str(path), "0", "1", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error:"), run.stderr


# sha256 of the oracle file, then (max, total) label bits of label_nca on the
# oracle's forest and of label_nca_connectivity, on gen_random(40, 70, 8,
# seed=9).  The edge row was recorded before the index was merged into one
# DFS; the vertex row when the vertex-mode forest stopped being subdivided
# (n vertices, not n + m).
PINNED = {
    "edge": ("a6b5ef3eccebb36d3044bdfa60a6551223fb51c1dc215e9857be7c7d70680b52",
             (91, 2705), (91, 2945)),
    "vertex": ("d39c1c26f16611b6a45f4f43a9f10bcbe8ce6403a6286f3c952ab498283dc0c8",
               (64, 2284), (64, 2644)),
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_outputs_pinned(mode):
    def bits(ls):
        sizes = ls.vertex_bits() + ls.color_bits()
        return max(sizes), sum(sizes)

    g = gen_random(40, 70, 8, seed=9, mode=mode)
    o = build_one_fault_oracle(g)
    forest = label_nca(list(o.structure.parent), list(o.structure.colors), C=g.C)
    assert (
        hashlib.sha256(dump_oracle(o)).hexdigest(),
        bits(forest),
        bits(label_nca_connectivity(g)),
    ) == PINNED[mode]


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
        assert len(lbl.stamps) == 2  # one colored vertex = one (pre, post) pair


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
    from colorfault.nca import pair_connected_nca

    graphs = [gen_random(14, 24, 4, seed=seed, mode=mode)
              for seed in range(6) for mode in ("edge", "vertex")]
    for g in graphs + VERTEX_GRAPHS:
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
