import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault.bits import width_for
from colorfault.graph import (
    RemovedVertexError,
    bfs,
    edge_graph,
    path_colors,
    vertex_graph,
)
from colorfault.generators import gen_grid, gen_path, gen_random, gen_tree, gen_wheel
from colorfault.oracle import brute_force_partition
from colorfault.single_fault import (
    build_ruling_set,
    label_bits,
    label_single_fault,
    packing_certificate,
    pair_connected,
    proper_ball,
    query_single_fault,
)

PATH_ABA = edge_graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])


# -- ruling set ---------------------------------------------------------------


def test_ruling_set_path9():
    rs = build_ruling_set(gen_path(9))
    assert rs.A0 == (0,)
    assert rs.A == (1, 3, 6)
    assert rs.k == 4


def test_ruling_set_single_vertex():
    rs = build_ruling_set(edge_graph(1, [], C=1))
    assert rs.A0 == (0,) and rs.A == () and rs.k == 1


def test_ruling_set_path4():
    rs = build_ruling_set(gen_path(4))
    assert rs.A0 == (0,) and rs.A == (1, 3) and rs.k == 3


def dist_from(g, s):
    """Distance from ``s`` of each vertex it reaches, read off ``bfs`` from s."""
    return {x: d for x, _p, _eid, d in bfs(g.adjacency, (s,))}


def test_ruling_set_invariants_random():
    for seed in range(8):
        g = gen_random(24, 40, 5, seed=seed)
        rs = build_ruling_set(g)
        # distance of a_i from the prefix is exactly i
        chosen = list(rs.A0)
        for i, a in enumerate(rs.A, start=1):
            assert min(dist_from(g, s).get(a, math.inf) for s in chosen) == i
            chosen.append(a)
        # everything is within distance < k of A0 u A
        for v in range(g.n):
            assert min(dist_from(g, s).get(v, math.inf) for s in chosen) < rs.k


def reference_ruling_and_paths(g):
    """The ruling set and anchor forest by a fresh BFS per round.

    Round i runs a multi-source BFS from A0 u {a_1..a_{i-1}} and picks the
    minimum-id vertex at distance exactly i; a level-synchronized BFS from
    every anchor, each level scanned in increasing id, then gives
    (depth, parent, parent_edge, anchor).
    """
    n = g.n
    A0 = sorted(set(brute_force_partition(g)))
    A = []
    i = 1
    while True:
        depth = [-1] * n
        queue = sorted(set(A0 + A))
        for s in queue:
            depth[s] = 0
        for x in queue:
            for w, _eid in g.adjacency(x):
                if depth[w] < 0:
                    depth[w] = depth[x] + 1
                    queue.append(w)
        candidate = next((v for v in range(n) if depth[v] == i), None)
        if candidate is None:
            break
        A.append(candidate)
        i += 1
    parent = [None] * n
    parent_edge = [None] * n
    anchor = [None] * n
    level = sorted(set(A0 + A))
    for s in level:
        anchor[s] = s
    while level:
        nxt = []
        for x in level:
            for w, eid in g.adjacency(x):
                if anchor[w] is None:
                    parent[w] = x
                    parent_edge[w] = eid
                    anchor[w] = anchor[x]
                    nxt.append(w)
        level = sorted(set(nxt))
    return (tuple(A0), tuple(A), i), depth, (parent, parent_edge, anchor)


@given(
    st.integers(1, 30),
    st.integers(0, 45),
    st.integers(1, 5),
    st.integers(0, 2**30),
    st.sampled_from(["edge", "vertex"]),
    st.booleans(),
    st.sets(st.integers(0, 4), max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_ruling_set_and_anchor_paths_match_reference(n, m, C, seed, mode, simple, faults):
    m = min(m, n * (n - 1) // 2) if simple else m
    g = gen_random(n, m, C, seed=seed, mode=mode, simple=simple)
    # the input is g minus the faulted classes: in vertex mode a faulted
    # vertex stays, isolated
    classes = g.color_classes()
    dead = {eid for c in faults if c < C for eid in classes[c]}
    g = g.keep_edges(eid for eid in range(g.m) if eid not in dead)
    (A0, A, k), depth, paths = reference_ruling_and_paths(g)
    rs = build_ruling_set(g)
    assert (rs.A0, rs.A, rs.k) == (A0, A, k)
    assert list(rs.depth) == depth
    assert (list(rs.parent), list(rs.parent_edge), list(rs.anchor)) == paths
    for v in range(n):
        if not g.adjacency(v):
            assert rs.depth[v] == 0 and rs.anchor[v] == v


# Recorded before the ruling set and the anchor forest shared one distance
# array: sha256 of (A0, A, k) and of every vertex and color label.
PINNED_LABELS = {
    "random-edge": (4, "dfa7fe51bf749c4e6e996a1b581ef6e52bee5a40a6cf19309490ae67276c796b"),
    "random-vertex": (4, "4dedac14d7150a25b49d8350c8b8c583520146b6fa5c42d522ae1136ce3ba65a"),
    "multigraph": (3, "ca247088146ab647eca8939cdaa062f0a08e883d312025a7c55b61064da4fb4b"),
}
PINNED_LABEL_GRAPHS = {
    "random-edge": lambda: gen_random(40, 70, 8, seed=9),
    "random-vertex": lambda: gen_random(40, 70, 8, seed=9, mode="vertex"),
    # components with parallel edges and self-loops, and an isolated vertex 8
    "multigraph": lambda: edge_graph(14, [
        (0, 1, 0), (0, 1, 1), (1, 2, 2), (2, 2, 0), (2, 3, 1), (3, 4, 2), (4, 5, 0),
        (5, 6, 1), (6, 7, 2), (3, 7, 0), (7, 7, 1), (9, 10, 1), (10, 11, 0),
        (10, 11, 2), (11, 12, 1), (12, 13, 0), (9, 13, 2),
    ], C=3),
}


def pinned_label_outputs(g):
    ls = label_single_fault(g)
    h = hashlib.sha256()
    h.update(repr((ls.meta["A0"], ls.meta["A"], ls.meta["k"])).encode())
    for lbl in ls.vertex_labels:
        h.update(repr((lbl.vertex, lbl.anchor, sorted(lbl.cid_by_color.items()),
                       lbl.own_color, lbl.bits)).encode())
    for lbl in ls.color_labels:
        h.update(repr((lbl.color, sorted(lbl.cid_by_anchor.items()), lbl.bits)).encode())
    return ls.meta["k"], h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_LABELS))
def test_outputs_pinned(name):
    assert pinned_label_outputs(PINNED_LABEL_GRAPHS[name]()) == PINNED_LABELS[name]


# -- labels ------------------------------------------------------------------


def test_label_contents_path_aba():
    ls = label_single_fault(PATH_ABA)
    l2 = ls.vertex_labels[2]
    assert l2.anchor == 1
    assert l2.cid_by_color == {1: 2}


def test_isolated_vertex_label():
    g = edge_graph(3, [(0, 1, 0)], C=1)
    lbl = label_single_fault(g).vertex_labels[2]
    assert lbl.anchor == 2 and lbl.cid_by_color == {}


def test_map_sizes_below_k():
    for seed in range(6):
        g = gen_random(30, 50, 6, seed=seed)
        ls = label_single_fault(g)
        k = ls.meta["k"]
        assert all(len(l.cid_by_color) < k for l in ls.vertex_labels)
        assert all(len(l.cid_by_anchor) == len(ls.meta["A"]) for l in ls.color_labels)


# -- queries -------------------------------------------------------------------


def test_query_examples_path_aba():
    ls = label_single_fault(PATH_ABA)
    assert query_single_fault(ls.vertex_labels[2], ls.color_labels[1]) == 2
    assert query_single_fault(ls.vertex_labels[2], ls.color_labels[0]) == 1
    # pair (0, 3) avoiding color b: 0 vs 2 -> disconnected
    assert query_single_fault(ls.vertex_labels[0], ls.color_labels[1]) == 0
    assert query_single_fault(ls.vertex_labels[3], ls.color_labels[1]) == 2
    assert not pair_connected(ls.vertex_labels[0], ls.vertex_labels[3], ls.color_labels[1])


def _check_exact(g):
    ls = label_single_fault(g)
    for c in range(g.C):
        truth = brute_force_partition(g, {c})
        for v in range(g.n):
            if truth[v] is None:
                with pytest.raises(RemovedVertexError):
                    query_single_fault(ls.vertex_labels[v], ls.color_labels[c])
            else:
                got = query_single_fault(ls.vertex_labels[v], ls.color_labels[c])
                assert got == truth[v], (v, c)


@given(st.integers(0, 2**30), st.sampled_from(["edge", "vertex"]))
@settings(max_examples=30, deadline=None)
def test_exactness_random(seed, mode):
    g = gen_random(18, 30, 5, seed=seed, mode=mode)
    _check_exact(g)


def test_exactness_structured():
    _check_exact(gen_path(17, coloring="uniform", C=3, seed=1))
    _check_exact(gen_wheel(12, coloring="uniform", C=4, seed=2))
    _check_exact(gen_tree(20, seed=3, C=4))
    _check_exact(gen_random(20, 34, 6, seed=4, simple=False))  # multigraph


def test_exactness_disconnected():
    g = edge_graph(6, [(0, 1, 0), (1, 2, 1), (3, 4, 0)], C=2)
    _check_exact(g)


def _outcome(call):
    try:
        return call()
    except RemovedVertexError as e:
        return type(e), str(e)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_pair_query_matches_per_vertex_read_offs(mode):
    # every ordered pair, removed endpoints and u == v included: the one-frame
    # pair query answers and raises as its two per-vertex read-offs in turn
    graphs = [gen_random(14, 22, 4, seed=seed, mode=mode) for seed in range(4)]
    graphs += [gen_random(24, 20, 5, seed=9, mode=mode, simple=False),  # disconnected multigraph
               gen_path(12, coloring="uniform", C=2, seed=1, mode=mode)]
    for g in graphs:
        ls = label_single_fault(g)
        for lc in ls.color_labels:
            for lu in ls.vertex_labels:
                for lv in ls.vertex_labels:
                    def want():
                        return query_single_fault(lu, lc) == query_single_fault(lv, lc)
                    got = _outcome(lambda: pair_connected(lu, lv, lc))
                    assert got == _outcome(want), (lu.vertex, lv.vertex, lc.color)


def test_vertex_mode_anchor_color_in_map():
    # anchor's color on P(v) populates the vertex map
    g = vertex_graph([0, 1, 2], [(0, 1), (1, 2)])
    ls = label_single_fault(g)
    l2 = ls.vertex_labels[2]
    assert l2.anchor in (0, 1)
    anchor_color = g.vertex_color(l2.anchor)
    assert anchor_color in l2.cid_by_color
    assert query_single_fault(l2, ls.color_labels[anchor_color]) == 2


# -- ball packing ---------------------------------------------------------------


def find_disjoint_proper_balls(g, r):
    """Centers of r pairwise disjoint proper r-balls, or None (exhaustive reference).

    Candidate centers are the vertices whose ``proper_ball`` exists; balls
    are bitmasks so disjointness is a single AND.
    """
    if r == 0:
        return []
    balls = {}
    for v in range(g.n):
        dist = proper_ball(g, v, r)
        if dist is not None:
            balls[v] = sum(1 << u for u in dist)
    candidates = list(balls)
    chosen = []

    def search(start, used):
        if len(chosen) == r:
            return True
        for idx in range(start, len(candidates)):
            if len(chosen) + len(candidates) - idx < r:
                return False
            v = candidates[idx]
            if balls[v] & used:
                continue
            chosen.append(v)
            if search(idx + 1, used | balls[v]):
                return True
            chosen.pop()
        return False

    return chosen if search(0, 0) else None


def ball_packing_exact(g):
    """bp(G): the maximum r admitting r vertex-disjoint proper r-balls (exponential)."""
    # a proper r-ball holds >= r+1 vertices, so r*(r+1) <= n; a radius past
    # every eccentricity has no proper ball, so its search fails at once
    fits = (r for r in range(g.n, 0, -1) if r * (r + 1) <= g.n)
    return next((r for r in fits if find_disjoint_proper_balls(g, r) is not None), 0)


def assert_disjoint_proper_balls(g, centers, r):
    seen = set()
    for v in centers:
        depth = dist_from(g, v)
        assert r in depth.values(), (v, r)
        ball = {u for u, d in depth.items() if d <= r}
        assert not (ball & seen), (v, r)
        seen |= ball


def check_packing_certificate(g):
    """r = floor(k/4) centers whose r-balls are proper and pairwise disjoint; returns r."""
    ruling = build_ruling_set(g)
    r, centers = packing_certificate(ruling.k, ruling.A)
    assert r == ruling.k // 4 and len(centers) == r
    assert_disjoint_proper_balls(g, centers, r)
    return r


def test_greedy_equals_k():
    assert build_ruling_set(gen_path(9)).k == 4
    assert build_ruling_set(edge_graph(1, [], C=1)).k == 1


def test_greedy_sqrt_bound():
    for seed in range(10):
        g = gen_random(30, 45, 5, seed=seed)
        assert build_ruling_set(g).k <= 4 * (math.isqrt(g.n) + 1)
    assert build_ruling_set(gen_path(30)).k <= 4 * (math.isqrt(30) + 1)


def test_exact_small_cases():
    assert ball_packing_exact(gen_path(2)) == 1
    assert ball_packing_exact(edge_graph(1, [], C=1)) == 0
    assert ball_packing_exact(gen_path(9)) == 2
    assert ball_packing_exact(gen_path(32)) == 4


def test_exact_respects_sqrt_n():
    for seed in range(6):
        g = gen_random(14, 20, 3, seed=seed)
        assert ball_packing_exact(g) <= math.sqrt(g.n)


def test_witness_balls_are_proper_and_disjoint():
    g = gen_path(9)
    centers = find_disjoint_proper_balls(g, 2)
    assert centers is not None and len(centers) == 2
    assert_disjoint_proper_balls(g, centers, 2)
    assert proper_ball(g, 0, 0) == {0: 0}
    with pytest.raises(ValueError):  # no ball of negative radius, not even an empty one
        proper_ball(g, 0, -1)


def test_greedy_quarter_bounds_exact():
    for seed in range(12):
        g = gen_random(12, 16, 4, seed=seed)
        assert build_ruling_set(g).k // 4 <= ball_packing_exact(g)
    for n in range(2, 15):
        g = gen_path(n)
        assert build_ruling_set(g).k // 4 <= ball_packing_exact(g)


def test_packing_certificate_small_cases():
    def certificate(g):
        ruling = build_ruling_set(g)
        return packing_certificate(ruling.k, ruling.A)

    assert certificate(gen_path(9)) == (1, (6,))  # A = (1, 3, 6)
    assert certificate(gen_path(4)) == (0, ())
    assert certificate(edge_graph(0, [], C=0)) == (0, ())


def test_packing_certificate_needs_k_minus_one_anchors():
    # A holds a_1 ... a_{k-1}; any other length is not a ruling set's
    for k, A in ((-5, ()), (0, ()), (12, (1, 2)), (2, (1, 2))):
        with pytest.raises(ValueError):
            packing_certificate(k, A)
    assert packing_certificate(1, ()) == (0, ())


@pytest.mark.parametrize("n", [2 ** i for i in range(1, 13)])
def test_packing_certificate_on_paths_and_grids(n):
    # 2, 4, ..., 4096 vertices: a path, and a side x side grid with side*side <= n
    check_packing_certificate(gen_path(n))
    side = math.isqrt(n)
    check_packing_certificate(gen_grid(side, side))


def test_packing_certificate_counts():
    assert check_packing_certificate(gen_path(2560)) == 18
    assert check_packing_certificate(gen_path(4096)) == 22
    assert check_packing_certificate(gen_grid(32, 32)) == 4


# -- sizes ----------------------------------------------------------------------


def test_label_bits_bound():
    for seed in range(8):
        for mode in ("edge", "vertex"):
            g = gen_random(26, 40, 7, seed=seed, mode=mode)
            ls = label_single_fault(g)
            k = ls.meta["k"]
            w = max(1, width_for(max(g.n, g.C)))
            assert ls.max_label_bits() <= 3 * k * w


SIZE_GRAPHS = {
    **PINNED_LABEL_GRAPHS,
    "random-edge-dense": lambda: gen_random(20, 90, 4, seed=2),
    "random-vertex-sparse": lambda: gen_random(30, 32, 9, seed=4, mode="vertex"),
    "empty": lambda: edge_graph(0, [], C=0),
    "one-vertex": lambda: edge_graph(1, [], C=1),
    "one-vertex-vertex-mode": lambda: vertex_graph([0], []),
    "two-isolated-no-colors": lambda: edge_graph(2, [], C=0),
    "one-edge": lambda: edge_graph(2, [(0, 1, 0)]),
    "one-edge-vertex-mode": lambda: vertex_graph([0, 1], [(0, 1)]),
}


@pytest.mark.parametrize("name", sorted(SIZE_GRAPHS))
def test_label_bits_match_built_labels(name):
    # the recursion's size probe reads label_bits without building the labels
    g = SIZE_GRAPHS[name]()
    rs = build_ruling_set(g)
    vertex_bits, color_bits = label_bits(g, rs, path_colors(g, rs.parent, rs.parent_edge))
    ls = label_single_fault(g, rs)
    assert vertex_bits == ls.vertex_bits()
    assert color_bits == ls.color_bits()
    assert max(vertex_bits + color_bits, default=0) == ls.max_label_bits()
