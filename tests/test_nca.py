import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault.bits import BitWriter, id_width, width_for
from colorfault.generators import gen_grid, gen_path, gen_random
from colorfault.graph import (
    VERTEX, GraphError, RemovedVertexError, edge_graph, parse_graph, serialize_graph,
    vertex_graph,
)
from colorfault.labels import LabelSet
import colorfault.nca as nca_module
from colorfault.nca import (
    ORACLE_MAGIC,
    ORACLE_VERSION,
    TABLED,
    OneFaultOracle,
    _split_labels,
    build_nca,
    build_one_fault_oracle,
    dump_oracle,
    label_nca_connectivity,
    load_oracle,
    nca_threshold,
    oracle_file_bits,
    oracle_index_words,
    oracle_table_colors,
    oracle_uncut_colors,
    pair_connected_nca,
    query_nca_labels,
)
from colorfault.oracle import brute_force_partition
from colorfault.single_fault import build_ruling_set, label_single_fault, query_single_fault

RED, BLUE, GREEN = 0, 1, 2

# chain 0 -> 1 -> 2 -> 3 colored red, blue, red, blue
CHAIN_PARENT = [None, 0, 1, 2]
CHAIN_COLORS = [RED, BLUE, RED, BLUE]


def naive_nearest_colored_ancestor(
    parent: list[int | None], colors: list[int | None], v: int, c: int
) -> int:
    """Reference oracle: walk the parent chain to the first vertex of color c, or to the root."""
    x = v
    while colors[x] != c and parent[x] is not None:
        x = parent[x]
    return x


def nca_query(o: OneFaultOracle, v: int, c: int) -> int:
    """The answer at v's nearest c-colored ancestor (v itself included), or v's root, searched.

    With payloads ``range(n)`` (see ``build_nca``) that answer is the ancestor itself.
    """
    if not 0 <= v < o.n:
        raise GraphError(f"vertex {v} out of range")
    stamps, answers, _table = o.index.get(c, o.uncut)
    i = bisect_right(stamps, o.pre[v])
    return o.root[v] if not i or answers[i - 1] is None else answers[i - 1]


def label_nca(parent: list[int | None], colors: list[int | None], C: int) -> LabelSet:
    """Nearest-colored-ancestor labels with the connectivity labels' prevalence split.

    Keyed colors with at least ``nca_threshold(n)`` vertices are answered
    directly from vertex labels; rarer ones ship their whole stamp array in
    the color label and are answered by predecessor search against pre(v),
    and with no hit by the root's id in the vertex label.
    """
    n = len(parent)
    o = build_nca(parent, colors, range(n), C)
    vertex_labels, color_labels, tau = _split_labels(o)
    return LabelSet(
        scheme="nca",
        n=n,
        C=C,
        mode=VERTEX,
        vertex_labels=vertex_labels,
        color_labels=color_labels,
        meta={"threshold": tau},
    )


def random_forest(rng, n):
    parent = [None] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v) if rng.random() < 0.9 else None
    return parent


# -- structure ------------------------------------------------------------------


def build_chain():
    return build_nca(CHAIN_PARENT, CHAIN_COLORS, range(len(CHAIN_PARENT)), C=3)


def test_per_color_array_sizes():
    o = build_chain()
    assert len(o.index[RED][0]) == 4
    assert len(o.index[BLUE][0]) == 4


def test_dfs_preorder_root_first():
    o = build_chain()
    assert o.pre[0] == 0


def test_chain_queries():
    o = build_chain()
    assert nca_query(o, 3, RED) == 2
    assert nca_query(o, 1, GREEN) == 0  # no green ancestor: the root
    assert nca_query(o, 2, RED) == 2  # self-inclusive


def test_matches_naive_walk_on_random_trees():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(2, 30)
        parent = random_forest(rng, n)
        colors = [rng.randrange(4) if rng.random() < 0.8 else None for _ in range(n)]
        o = build_nca(parent, colors, range(n), C=4)
        for v in range(n):
            for c in range(4):
                assert nca_query(o, v, c) == naive_nearest_colored_ancestor(
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


def _outcome(call):
    try:
        return call()
    except (GraphError, RemovedVertexError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_cid_rejects_bad_ids(mode):
    g = gen_random(12, 18, 4, seed=7, mode=mode)
    o = build_one_fault_oracle(g)
    for oracle in (o, load_oracle(dump_oracle(o))):
        # -1 would wrap around to the last vertex or color
        for v, c in ((-1, 0), (g.n, 0), (0, -1), (0, g.C)):
            with pytest.raises(GraphError):
                oracle.cids(c, [1, v])
            with pytest.raises(GraphError):
                oracle.query(1, v, c)
            with pytest.raises(GraphError):
                oracle.query(v, 1, c)
        for c in range(g.C):
            part = brute_force_partition(g, {c})
            live = [v for v in range(g.n) if part[v] is not None]
            assert oracle.cids(c, live) == [part[v] for v in live]
            for v in set(range(g.n)) - set(live):
                with pytest.raises(RemovedVertexError):
                    oracle.cids(c, [v])
                with pytest.raises(RemovedVertexError):
                    oracle.query(v, live[0], c)
                with pytest.raises(RemovedVertexError):
                    oracle.query(live[0], v, c)
                # u is checked in full before v, as in cids
                for bad in (-1, g.n):
                    with pytest.raises(RemovedVertexError):
                        oracle.query(v, bad, c)
        # the pair query is cids' read-off for one pair: same answers, same errors
        ids = range(-1, g.n + 1)
        for c in range(-1, g.C + 1):
            for u in ids:
                for v in ids:
                    want = _outcome(lambda: oracle.cids(c, (u, v)))
                    if isinstance(want, list):
                        want = want[0] == want[1]
                    assert _outcome(lambda: oracle.query(u, v, c)) == want, (u, v, c)


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
        assert len(o.parent) == g.n  # the graph as given, not subdivided
        assert load_oracle(dump_oracle(o)) == o
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


# graphs with colors on both sides of the table cut-off: a one-color star, a
# path and a grid, disconnected inputs, and random graphs in both modes
TABLE_GRAPHS = {
    "path-unique": gen_path(90),
    "path-uniform": gen_path(90, coloring="uniform", C=2, seed=1),
    "grid": gen_grid(9, 11, coloring="uniform", C=3, seed=2),
    "star": edge_graph(70, [(0, i, 0) for i in range(1, 70)], C=1),
    "two-stars": edge_graph(
        101, [(0, i, 0) for i in range(1, 50)] + [(50, i, i % 2) for i in range(51, 100)], C=3
    ),
    "random-forest": gen_random(120, 80, 2, seed=4),
    "random-edge": gen_random(130, 260, 3, seed=5, connected=True),
    "random-vertex": gen_random(130, 260, 2, seed=6, mode="vertex", connected=True),
    "random-vertex-disconnected": gen_random(140, 110, 2, seed=7, mode="vertex"),
}


def _ladder(k):
    """Two rails of k vertices joined by rungs; the BFS forest runs along the top rail.

    The top rail's color 1 is on k - 1 forest vertices and its failure cuts
    nothing, so this long color has no key and reads the shared ``uncut`` entry.
    """
    top = [(i, i + 1, 1) for i in range(k - 1)]
    rungs = [(i, k + i, 0) for i in range(k)]
    bottom = [(k + i, k + i + 1, 2) for i in range(k - 1)]
    return edge_graph(2 * k, top + rungs + bottom, C=4)


# each graph's palette has colors on no forest vertex: two past every edge's or
# vertex's color, and in the hand-built vertex graph color 3 sits on an
# isolated root and color 5 on nothing
UNCUT_GRAPHS = {
    "edge": replace(gen_random(50, 100, 16, seed=31, connected=True), C=18),
    "edge-disconnected": replace(gen_random(60, 45, 10, seed=32), C=12),
    "vertex": replace(gen_random(50, 110, 12, seed=33, mode="vertex", connected=True), C=14),
    "vertex-disconnected": replace(gen_random(60, 50, 8, seed=34, mode="vertex"), C=10),
    # the component minima 0 (color 1) and 3 (color 2) fail with their colors;
    # 0's fault cuts nothing from 1 and 2, but moves their cid to 1
    "vertex-minimum-colored": vertex_graph(
        [1, 0, 0, 2, 0, 0, 0, 3, 0, 4, 4],
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (8, 9), (9, 10)], C=6,
    ),
    "ladder": _ladder(20),
}


def _cuts_nothing(g, o, c):
    """Brute force: every vertex that survives c keeps its tree root's id as its cid in G - c."""
    part = brute_force_partition(g, {c})
    return all(cid is None or cid == o.root[v] for v, cid in enumerate(part))


class Probed(tuple):
    """A tuple that records every index read from it (``bisect`` reads through ``__getitem__``)."""

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)


# the graphs with no painted table: no color on n/TABLED forest vertices cuts anything
UNPAINTED = {"path-unique", "edge", "edge-disconnected"}


@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS | UNCUT_GRAPHS))
def test_answer_tables_equal_bisect_right(name):
    g = (TABLE_GRAPHS | UNCUT_GRAPHS)[name]
    o = build_one_fault_oracle(g)
    loaded = load_oracle(dump_oracle(o))
    assert loaded.index == o.index  # derived on load, never stored
    assert loaded == o
    n = g.n
    sizes = Counter(c for c in o.colors if c is not None)
    # the rule: a key exactly for each color with a forest vertex whose payload is not its root's id
    keyed = {c for c, p, r in zip(o.colors, o.payloads, o.root) if c is not None and p != r}
    assert o.index.keys() == keyed
    assert o.uncut == ((), (), o.root) and o.uncut[2] is o.root
    uncut = set()
    for c in range(g.C):
        stamps, answers, table = entry = o.index.get(c, o.uncut)
        assert c in o.index or entry is o.uncut, c  # the rest share one entry
        if _cuts_nothing(g, o, c):
            uncut.add(c)
        if c in o.index:
            assert (table is not None) == (TABLED * sizes[c] >= n), c
        live = [v for v in range(n) if g.vertex_colors is None or g.vertex_colors[v] != c]
        probed = Probed(stamps)
        if c in o.index:
            reading = replace(o, index={**o.index, c: (probed, answers, table)})
        else:
            reading = replace(o, uncut=(probed, answers, table))
        probed.read = []
        for u, v in zip(live, live[1:] + live[:1]):
            reading.query(u, v, c)
        reading.cids(c, live)
        if table is None:
            assert probed.read  # the probe sees a search
            continue
        for v in range(n):
            i = bisect_right(stamps, o.pre[v])
            got = answers[i - 1] if i else None
            if c not in o.index:  # the shared entry's table: its empty search, read as the root
                got = o.root[v] if got is None else got
            assert table[v] == got, (c, v)
        assert probed.read == []  # a table color's stamps are never searched
    if g.mode == "edge":
        assert keyed == set(range(g.C)) - uncut  # a key iff the color's failure cuts something
    else:  # a vertex of color c stores itself, so a fault that cuts nothing may still get a key
        assert set(range(g.C)) - keyed <= uncut
    assert oracle_uncut_colors(o) == g.C - len(keyed)
    tables = [t for _s, _a, t in o.index.values() if t is not None]
    assert oracle_table_colors(o) == len(tables) < TABLED
    assert bool(tables) == (name not in UNPAINTED)
    assert oracle_index_words(o) < 12 * n
    if name in UNCUT_GRAPHS:  # each has a palette color on no forest vertex, and so no key
        assert set(range(g.C)) - sizes.keys()
    if name == "vertex-minimum-colored":
        assert set(range(g.C)) - keyed == {3, 5} and uncut == {3, 4, 5}
    # the pair query and the batch read-off, through the tables
    for oracle in (o, loaded):
        _check_oracle(g, oracle)
        for c in range(g.C):
            part = brute_force_partition(g, {c})
            live = [v for v in range(n) if part[v] is not None]
            assert oracle.cids(c, live) == [part[v] for v in live]


@pytest.mark.parametrize("g", [
    gen_random(40, 70, 3, seed=11, connected=True),
    gen_random(45, 30, 3, seed=12),
    gen_random(40, 70, 2, seed=13, mode="vertex", connected=True),
    gen_random(45, 30, 2, seed=14, mode="vertex"),
], ids=["edge", "edge-disconnected", "vertex", "vertex-disconnected"])
def test_table_reads_equal_searches_errors_included(g):
    o = build_one_fault_oracle(g)
    assert any(table is not None for _s, _a, table in o.index.values())
    searched = replace(_searched_uncut(o),
                       index={c: (s, a, None) for c, (s, a, _t) in o.index.items()})
    ids = [-1, *range(g.n), g.n]
    for c in [-1, *range(g.C), g.C]:
        for u in ids:
            alone = _outcome(lambda: o.cids(c, [u]))
            assert alone == _outcome(lambda: searched.cids(c, [u])), (u, c)
            for v in ids:
                got = _outcome(lambda: o.query(u, v, c))
                assert got == _outcome(lambda: searched.query(u, v, c)), (u, v, c)
                if isinstance(alone, tuple):  # a bad c or u is named before v
                    assert got == alone, (u, v, c)


# -- colors without a key ---------------------------------------------------------


def _searched_uncut(o):
    """``o`` with the shared ``uncut`` entry's table set to None: its empty stamps are searched."""
    return replace(o, uncut=((), (), None))


@pytest.mark.parametrize("name", sorted(UNCUT_GRAPHS))
def test_load_oracle_derives_the_root_answers(name):
    o = build_one_fault_oracle(UNCUT_GRAPHS[name])
    loaded = load_oracle(dump_oracle(o))
    assert loaded.index.keys() == o.index.keys()
    assert loaded.uncut == ((), (), loaded.root) and loaded.uncut[2] is loaded.root
    assert oracle_uncut_colors(loaded) == oracle_uncut_colors(o) > 0


@pytest.mark.parametrize("name", sorted(UNCUT_GRAPHS))
def test_root_answers_equal_searches_errors_included(name):
    g = UNCUT_GRAPHS[name]
    o = build_one_fault_oracle(g)
    searched = _searched_uncut(o)
    _check_oracle(g, o)
    ids = [-1, *range(g.n), g.n]
    for c in [-1, *range(g.C), g.C]:
        for u in ids:
            assert _outcome(lambda: o.cids(c, [u])) == _outcome(lambda: searched.cids(c, [u]))
            for v in ids:
                got = _outcome(lambda: o.query(u, v, c))
                assert got == _outcome(lambda: searched.query(u, v, c)), (u, v, c)


@pytest.mark.parametrize("name", sorted(UNCUT_GRAPHS))
def test_connectivity_labels_ignore_root_answers(name):
    # a color without a key ships no stamps and has no vertex column, and
    # every label answer, errors included, is the oracle's
    g = UNCUT_GRAPHS[name]
    o = build_one_fault_oracle(g)
    labels = label_nca_connectivity(g)
    for c, lc in enumerate(labels.color_labels):
        if c not in o.index:
            assert not lc.prevalent and lc.stamps == () and lc.answers == (), c
            assert all(c not in lv.prevalent for lv in labels.vertex_labels), c

    def read_off(lv, lc):
        if lv.own_color == lc.color:
            raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
        hit = query_nca_labels(lv, lc)
        return lv.root_cid if hit is None else hit

    for c, lc in enumerate(labels.color_labels):
        for v, lv in enumerate(labels.vertex_labels):
            want = _outcome(lambda: o.cids(c, [v]))
            assert _outcome(lambda: [read_off(lv, lc)]) == want, (v, c)
    if name == "ladder":  # a long color whose failure cuts nothing: no key, so no column
        assert 1 not in o.index and o.colors.count(1) >= labels.meta["threshold"]
        assert 1 not in labels.vertex_labels[0].prevalent


# -- oracle file --------------------------------------------------------------------


def test_oracle_file_round_trip():
    for mode in ("edge", "vertex"):
        g = gen_random(16, 26, 5, seed=3, mode=mode)
        o = build_one_fault_oracle(g)
        loaded = load_oracle(dump_oracle(o))
        _check_oracle(g, loaded)


@pytest.mark.parametrize("g", VERTEX_GRAPHS + [
    gen_random(n, m, C, seed=seed) for seed, (n, m, C) in enumerate([
        (2, 1, 2), (16, 26, 5), (30, 34, 4), (40, 70, 8),
    ], start=300)
], ids=lambda g: f"{g.mode}-{g.n}-{g.m}-{g.C}")
def test_oracle_file_is_byte_stable(g):
    # a loaded file dumps back to the same bytes: one row per vertex, nothing else
    blob = dump_oracle(build_one_fault_oracle(g))
    assert dump_oracle(load_oracle(blob)) == blob
    assert len(blob) == math.ceil((112 + g.n * (2 * id_width(g.n) + width_for(g.C))) / 8)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_file_size_bound(mode):
    g = gen_random(40, 70, 8, seed=9, mode=mode)
    o = build_one_fault_oracle(g)
    header, body = oracle_file_bits(o)
    n = len(o.parent)
    assert body <= 3 * n * id_width(n)
    # the counted bits are the file's, up to the padding of its last byte
    assert 0 <= 8 * len(dump_oracle(o)) - header - body < 8


def _oracle_file(parents, colors, cids, C, vertex=False, version=ORACLE_VERSION):
    """Hand-written oracle file; a parent equal to the vertex marks a root.

    ``colors`` are parent-edge colors, or with ``vertex`` the vertices' own.
    """
    n = len(parents)
    wid, wc = id_width(n), width_for(C)
    w = BitWriter()
    w.write(ORACLE_MAGIC, 32)
    w.write(version, 8)
    w.write(1 if vertex else 0, 8)
    w.write(n, 32)
    w.write(C, 32)
    for p, c, cid in zip(parents, colors, cids):
        w.write(p, wid)
        w.write(c, wc)
        w.write(cid, wid)
    return w.to_bytes()


def test_hand_written_oracle_file_loads():
    # path 0 -1- 1 -0- 2: failing color 1 cuts 0 from {1, 2}
    o = load_oracle(_oracle_file((0, 0, 1), (0, 1, 0), (0, 1, 2), C=2))
    assert not o.query(0, 2, 1)
    assert o.query(1, 2, 1)
    assert not o.query(1, 2, 0)


@pytest.mark.parametrize("n", [0, 1])
def test_oracle_file_with_a_huge_palette_loads_in_o_n(n):
    # a header-only or one-row file whose palette is the largest the header holds
    C = 2**32 - 1
    o = load_oracle(_oracle_file((0,)[:n], (0,)[:n], (0,)[:n], C))
    assert o.index == {} and o.uncut[2] is o.root  # no key per palette color
    assert oracle_uncut_colors(o) == C and oracle_index_words(o) == 0
    if n:
        assert o.query(0, 0, C - 1) and o.cids(C - 1, [0]) == [0]
    with pytest.raises(GraphError):
        o.cids(C, [])


_DUMPED = {mode: dump_oracle(build_one_fault_oracle(gen_random(16, 26, 5, seed=3, mode=mode)))
           for mode in ("edge", "vertex")}
_PADDED = dump_oracle(build_one_fault_oracle(gen_random(9, 8, 3, seed=701)))  # ends in padding


@pytest.mark.parametrize("blob", [
    _oracle_file((0, 2, 1), (0, 0, 0), (0, 0, 0), 2),  # 1 and 2 parent each other
    _oracle_file((0, 3, 1), (0, 0, 0), (0, 0, 0), 2),  # parent outside 0..2
    _oracle_file((0, 0, 1), (0, 0, 0), (0, 3, 0), 2),  # cid outside 0..2
    _oracle_file((0, 0, 1), (0, 3, 0), (0, 0, 0), 3),  # color outside the palette
    _oracle_file((0, 0, 1), (0, 0, 0), (0, 0, 0), 3, version=1),  # a version-1 file
    _oracle_file((0, 0, 1), (3, 0, 0), (0, 0, 0), 3, vertex=True),  # a root's color outside the palette
    _DUMPED["edge"][:5],  # cut inside the header
    _DUMPED["edge"][:-3],  # cut inside the body
    _DUMPED["vertex"][:-3],  # cut inside the vertex-mode body, which holds the vertex colors
    _DUMPED["edge"][:5] + bytes([7]) + _DUMPED["edge"][6:],  # mode byte neither 0 nor 1
    _PADDED[:-1] + bytes([_PADDED[-1] | 1]),  # a padding bit after the body set
    _oracle_file((0, 0, 1), (2, 1, 0), (0, 1, 2), C=3),  # an edge-mode root's color filler not 0
], ids=["cycle", "parent", "cid", "color", "version-1", "vertex-color",
        "truncated-header", "truncated-body", "truncated-vertex-colors", "mode",
        "padding", "root-filler"])
def test_malformed_oracle_file_rejected(blob):
    with pytest.raises(GraphError):
        load_oracle(blob)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_file_rejects_bytes_after_its_body(mode):
    blob = _DUMPED[mode]
    load_oracle(blob)
    with pytest.raises(GraphError):
        load_oracle(blob + b"garbage!")
    with pytest.raises(GraphError):
        load_oracle(blob + b"\0")


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_oracle_file_rejects_impossible_cid(mode):
    # a stored cid is a component minimum: a root stores itself, and any
    # other vertex a cid no larger than its own id
    g = gen_random(16, 26, 5, seed=3, mode=mode)
    o = build_one_fault_oracle(g)
    n = len(o.parent)
    parents = [v if p is None else p for v, p in enumerate(o.parent)]
    colors = g.vertex_colors or [0 if c is None else c for c in o.colors]
    cids = list(o.payloads)
    vertex = mode == VERTEX
    assert _oracle_file(parents, colors, cids, g.C, vertex) == _DUMPED[mode]
    v = next(v for v in range(n - 1) if o.parent[v] is not None)
    raised = cids[:v] + [n - 1] + cids[v + 1:]
    with pytest.raises(GraphError):
        load_oracle(_oracle_file(parents, colors, raised, g.C, vertex))


def test_oracle_file_rejects_root_storing_another_vertex():
    # roots 0 and 1, vertex 2 below 1; root 1 stores 0 instead of itself
    with pytest.raises(GraphError):
        load_oracle(_oracle_file((0, 1, 1), (0, 0, 0), (0, 0, 1), C=1))


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
# seed=9).  Both hashes are of version-2 files.  The bits were recorded when
# stamps became pre-order positions (0..n, one bit narrower than the Euler
# stamps where width_for(n + 1) < width_for(2n)) and only the colors that cut
# something kept stamps; every vertex label carries its root's id since, so
# the forest labels' totals rose by it (edge 2705, vertex 2284 before) while
# every other number fell (edge 91, 91, 2945 and vertex 64, 64, 2644 before).
PINNED = {
    "edge": ("2e5c4e7216bee34a39aefa8a056812d91afe820e72ea69bbbfe14862ac22c827",
             (85, 2895), (58, 2376)),
    "vertex": ("585696963339aa661153c159bbae7b0612ad0a21793554f35fb371e4adf2dd17",
               (60, 2476), (60, 2152)),
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_outputs_pinned(mode):
    def bits(ls):
        sizes = ls.vertex_bits() + ls.color_bits()
        return max(sizes), sum(sizes)

    g = gen_random(40, 70, 8, seed=9, mode=mode)
    o = build_one_fault_oracle(g)
    forest = label_nca(list(o.parent), list(o.colors), C=g.C)
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
        # one colored vertex = one (enter, exit) pair; color 0, on the root
        # alone, cuts nothing and ships none
        assert len(lbl.stamps) == (0 if lbl.color == 0 else 2)


def test_labels_match_structure_on_random_trees():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 36)
        parent = random_forest(rng, n)
        C = rng.randrange(1, 7)
        colors = [rng.randrange(C) if rng.random() < 0.85 else None for _ in range(n)]
        o = build_nca(parent, colors, range(n), C)
        ls = label_nca(parent, colors, C=C)
        for v in range(n):
            for c in range(C):
                hit = query_nca_labels(ls.vertex_labels[v], ls.color_labels[c])
                assert (ls.vertex_labels[v].root_cid if hit is None else hit) == nca_query(o, v, c)


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


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_pair_query_matches_per_vertex_read_offs(mode):
    # every ordered pair, removed endpoints and u == v included: the one-frame
    # pair query answers and raises as two reads of query_nca_labels, each
    # falling back to the root's cid, with u checked before v
    def read_off(lv, lc):
        if lv.own_color == lc.color:
            raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
        hit = query_nca_labels(lv, lc)
        return lv.root_cid if hit is None else hit

    graphs = [gen_random(14, 22, 4, seed=seed, mode=mode) for seed in range(4)]
    graphs += [gen_random(30, 26, 9, seed=9, mode=mode, simple=False),  # rare colors, disconnected
               gen_path(12, coloring="uniform", C=2, seed=1, mode=mode)]
    kinds = set()
    for g in graphs:
        ls = label_nca_connectivity(g)
        for lc in ls.color_labels:
            kinds.add(lc.prevalent)
            for lu in ls.vertex_labels:
                for lv in ls.vertex_labels:
                    got = _outcome(lambda: pair_connected_nca(lu, lv, lc))
                    want = _outcome(lambda: read_off(lu, lc) == read_off(lv, lc))
                    assert got == want, (lu.vertex, lv.vertex, lc.color)
    assert kinds == {False, True}


def test_connectivity_labels_exact():
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


# -- one oracle per graph --------------------------------------------------------


def test_oracle_is_built_once_per_graph():
    g = gen_random(30, 50, 4, seed=2)
    assert build_one_fault_oracle(g) is build_one_fault_oracle(g)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_one_fault_setup_runs_one_sweep(mode, monkeypatch):
    """The oracle, its file round trip and both label builds share one cids sweep."""
    text = serialize_graph(gen_random(60, 110, 4, seed=5, mode=mode))
    calls = []
    sweep = nca_module.cids_after_faults
    monkeypatch.setattr(nca_module, "cids_after_faults",
                        lambda *args: calls.append(1) or sweep(*args))
    g = parse_graph(text)
    loaded = load_oracle(dump_oracle(build_one_fault_oracle(g)))
    single = label_single_fault(g, build_ruling_set(g))
    conn = label_nca_connectivity(g)
    assert len(calls) == 1
    assert loaded == build_one_fault_oracle(g)
    fresh = parse_graph(text)
    assert fresh._oracle is None
    assert single == label_single_fault(fresh)
    assert conn == label_nca_connectivity(parse_graph(text))
    assert len(calls) == 3  # each fresh graph built its own


def test_oracle_memo_leaves_graph_identity_alone():
    g = gen_random(25, 40, 3, seed=8, mode=VERTEX)
    before = (hash(g), repr(g))
    twin = parse_graph(serialize_graph(g))
    build_one_fault_oracle(g)
    assert g._oracle is not None
    assert (hash(g), repr(g)) == before
    assert g == twin and hash(g) == hash(twin)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.adjacency(3) == g.adjacency(3)


def test_derived_graphs_start_without_an_oracle():
    g = gen_random(25, 40, 3, seed=4)
    o = build_one_fault_oracle(g)
    kept = g.keep_edges(range(g.m - 5))
    same = replace(g)
    assert kept._oracle is None and same._oracle is None
    assert build_one_fault_oracle(same) is not o
    assert build_one_fault_oracle(same) == o


def test_threads_racing_to_build_one_graphs_oracle_agree():
    """A race may build twice, but every thread gets the graph's one oracle value."""
    g = gen_random(400, 800, 4, seed=6)
    got = []
    threads = [threading.Thread(target=lambda: got.append(build_one_fault_oracle(g)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(o == g._oracle for o in got)
    assert build_one_fault_oracle(g) is g._oracle
