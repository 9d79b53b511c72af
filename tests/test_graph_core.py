import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorfault import graph as graph_module
from colorfault.graph import (
    ColoredGraph,
    GraphError,
    InvalidFaultSetError,
    ParseError,
    RemovedVertexError,
    UnionFind,
    bfs,
    bfs_tree,
    cids_after_faults,
    edge_classes,
    edge_graph,
    orient_forest,
    parse_graph,
    path_colors,
    preorder,
    serialize_graph,
    spanning_forest,
    vertex_graph,
)
from colorfault.generators import gen_path, gen_random
from colorfault.oracle import brute_force_connected, brute_force_partition

RED, BLUE = 0, 1

TRIANGLE = edge_graph(3, [(0, 1, RED), (0, 2, BLUE), (1, 2, RED)])
# path 0-1-2-3 with edge colors a, b, a
PATH_ABA = edge_graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])


def random_graphs(seed_base=0, count=10, n=20, m=35, C=5, mode="edge"):
    return [gen_random(n, m, C, seed=seed_base + i, mode=mode) for i in range(count)]


# -- what a fault removes --------------------------------------------------------


def edge_present(g, F, eid):
    """The per-edge survival rule: the edge's color, or both end colors, survive F."""
    if g.mode == "edge":
        return g.edge_color(eid) not in F
    u, v = g.edges[eid]
    return g.vertex_color(u) not in F and g.vertex_color(v) not in F


def bfs_cids(g, F):
    """cid per vertex under F by ``bfs`` over the per-edge rule; None for a removed vertex.

    A walk independent of the union-find in ``brute_force_partition``.
    """
    def adjacency(x):
        return [(w, eid) for w, eid in g.adjacency(x) if edge_present(g, F, eid)]

    live = [v for v in range(g.n) if g.mode == "edge" or g.vertex_color(v) not in F]
    cid = [None] * g.n
    for x, p, _eid, _d in bfs(adjacency, live):
        cid[x] = x if p is None else cid[p]
    return cid


def test_remove_colors_triangle():
    assert TRIANGLE.color_classes() == [[0, 2], [1]]
    assert brute_force_partition(TRIANGLE, {RED}) == [0, 1, 0]
    assert brute_force_partition(TRIANGLE, ()) == [0, 0, 0]


def test_remove_colors_bad_color():
    with pytest.raises(InvalidFaultSetError):
        brute_force_partition(TRIANGLE, {7})


def test_remove_colors_matches_union_find_partition():
    # the union-find partition against the independent BFS cids
    for mode in ("edge", "vertex"):
        g = gen_random(20, 35, 5, seed=7, mode=mode)
        for F in [(), (3,), (0, 2), (1, 3, 4)]:
            part = brute_force_partition(g, F)
            assert part == bfs_cids(g, F)
            for v in range(g.n):
                if part[v] is None:
                    with pytest.raises(RemovedVertexError):
                        brute_force_connected(g, v, v, F)


def test_vertex_mode_removal_isolates():
    g = vertex_graph([0, 1, 0], [(0, 1), (1, 2), (0, 2)])
    assert g.color_classes() == [[0, 1, 2], [0, 1]]
    assert brute_force_partition(g, {1}) == [0, None, 0]


@st.composite
def multigraphs_with_faults(draw, min_n=1, max_n=7, max_edges=16):
    """A small multigraph in either mode (self-loops and parallel edges likely) and a fault set."""
    mode = draw(st.sampled_from(["edge", "vertex"]))
    n, C = draw(st.integers(min_n, max_n)), draw(st.integers(1, 4))
    color = st.integers(0, C - 1)
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges if n else 0))
    if mode == "edge":
        colors = draw(st.lists(color, min_size=len(edges), max_size=len(edges)))
        g = edge_graph(n, [(u, v, c) for (u, v), c in zip(edges, colors)], C=C)
    else:
        g = vertex_graph(draw(st.lists(color, min_size=n, max_size=n)), edges, C=C)
    return g, draw(st.frozensets(color))


@given(multigraphs_with_faults())
@settings(max_examples=200, deadline=None)
def test_view_matches_the_per_edge_rule(case):
    # the classes of F are exactly the edges the per-edge rule removes, and
    # the union-find partition agrees with the BFS over that rule
    g, F = case
    classes = g.color_classes()
    assert {eid for c in F for eid in classes[c]} == {
        eid for eid in range(g.m) if not edge_present(g, F, eid)
    }
    assert all(cls == sorted(set(cls)) for cls in classes)
    assert brute_force_partition(g, F) == bfs_cids(g, F)


# -- union-find ------------------------------------------------------------------


@given(st.integers(1, 10), st.lists(st.one_of(
    st.tuples(st.just("union"), st.integers(0, 9), st.integers(0, 9)),
    st.just(("checkpoint",)),
    st.just(("rollback",)),
), max_size=60))
@settings(max_examples=150, deadline=None)
def test_union_find_rolls_back_to_each_checkpoint(n, ops):
    uf = UnionFind(n)
    block = list(range(n))  # naive partition: a block id per vertex
    snapshots = []  # nested checkpoints, innermost last
    for op in ops + [("rollback",)] * len(ops):
        if op[0] == "union":
            a, b = op[1] % n, op[2] % n
            assert uf.union(a, b) == (block[a] != block[b])
            old, new = block[b], block[a]
            block = [new if x == old else x for x in block]
        elif op[0] == "checkpoint":
            snapshots.append((uf.checkpoint(), uf.parent[:], uf.size[:], uf.min_id[:], block[:]))
        elif snapshots:
            mark, parent, size, min_id, block = snapshots.pop()
            uf.rollback(mark)
            assert (uf.parent, uf.size, uf.min_id) == (parent, size, min_id)
        for x in range(n):
            assert uf.component_min(x) == block.index(block[x])
            assert all(uf.connected(x, y) == (block[x] == block[y]) for y in range(n))


# -- cid (the brute-force reference) ------------------------------------------


def test_cid_triangle_examples():
    assert brute_force_partition(TRIANGLE, {RED})[2] == 0
    assert brute_force_partition(TRIANGLE, {RED})[1] == 1


def test_cid_path_aba():
    assert brute_force_partition(PATH_ABA, {1})[2] == 2


def test_cid_errors():
    with pytest.raises(GraphError):
        brute_force_connected(TRIANGLE, 9, 0)
    g = vertex_graph([0, 1], [(0, 1)])
    with pytest.raises(RemovedVertexError):
        brute_force_connected(g, 0, 0, {0})
    assert brute_force_partition(g, {0})[0] is None


def test_cid_no_fault_matches_union_find():
    # the union-find cid against the independent BFS forest's roots
    for g in random_graphs():
        part = brute_force_partition(g)
        assert part == list(bfs_tree(g).root) == bfs_cids(g, ())
        assert all(part[v] <= v for v in range(g.n))


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_cid_and_connected_contracts(mode):
    g = gen_random(16, 22, 4, seed=3, mode=mode, simple=False)
    for bad in (-1, g.n):
        for call in (lambda: brute_force_connected(g, bad, 0),
                     lambda: brute_force_connected(g, 0, bad)):
            with pytest.raises(GraphError):
                call()
    rng = random.Random(8)
    for _ in range(300):
        F = frozenset(rng.sample(range(g.C), rng.randrange(g.C + 1)))
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if mode == "vertex" and g.vertex_color(u) in F:
            for call in (lambda: brute_force_connected(g, u, u, F),
                         lambda: brute_force_connected(g, v, u, F)):
                with pytest.raises(RemovedVertexError):
                    call()
            continue
        assert brute_force_connected(g, u, u, F)
        root = bfs_cids(g, F)  # an independent BFS cid
        assert brute_force_partition(g, F)[u] == root[u]
        if mode == "edge" or g.vertex_color(v) not in F:
            assert brute_force_connected(g, u, v, F) == (root[u] == root[v])


# -- spanning forest -----------------------------------------------------------


def test_spanning_forest_triangle():
    assert spanning_forest(TRIANGLE) == (0, 1)


def test_spanning_forest_empty_and_tree():
    empty = edge_graph(3, [], C=1)
    assert spanning_forest(empty) == ()
    tree = edge_graph(4, [(0, 1, 0), (1, 2, 0), (1, 3, 0)])
    assert spanning_forest(tree) == (0, 1, 2)


def test_spanning_forest_is_maximal_and_acyclic():
    for g in random_graphs(seed_base=50):
        forest = spanning_forest(g)
        sub = edge_graph(
            g.n, [(g.edges[e][0], g.edges[e][1], 0) for e in forest], C=1
        )
        assert brute_force_partition(sub) == brute_force_partition(g)
        assert len(forest) == g.n - len(set(brute_force_partition(g)))


def test_edge_ids_outside_range_are_graph_errors():
    # a negative id would index from the end, and keep the last edge
    for bad in ([-1, 0], [0, 3], [3]):
        with pytest.raises(GraphError):
            spanning_forest(TRIANGLE, bad)
        with pytest.raises(GraphError):
            TRIANGLE.keep_edges(bad)
    assert spanning_forest(TRIANGLE, [2, 2, 0, 1, 0]) == (2, 0)  # repeats stay accepted
    assert TRIANGLE.keep_edges([2]).edges == ((1, 2),)


# -- bfs -----------------------------------------------------------------------


def bfs_depths(g, s):
    """Distance from ``s`` of each vertex it reaches, read off ``bfs`` from s."""
    return {x: d for x, _p, _eid, d in bfs(g.adjacency, (s,))}


def test_bfs_depths_path_and_star():
    path = gen_path(4)
    assert bfs_depths(path, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
    star = edge_graph(5, [(0, i, 0) for i in range(1, 5)])
    assert bfs_depths(star, 0) == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1}


def test_bfs_roots_start_trees_in_order_only_when_unreached():
    # components {0, 2} and {1, 3, 4}; the roots come in increasing id
    g = edge_graph(5, [(0, 2, 0), (1, 3, 0), (3, 4, 0)])
    walk = list(bfs(g.adjacency, range(g.n)))
    assert walk == [(0, None, None, 0), (2, 0, 0, 1),
                    (1, None, None, 0), (3, 1, 1, 1), (4, 3, 2, 2)]
    # a repeated or already reached root starts nothing; an isolated root is a tree alone
    assert list(bfs(g.adjacency, (3, 4, 3, 1))) == [(3, None, None, 0), (1, 3, 1, 1),
                                                    (4, 3, 2, 1)]
    assert list(bfs(edge_graph(2, [], C=1).adjacency, (1, 0))) == [(1, None, None, 0),
                                                                 (0, None, None, 0)]


def test_bfs_scans_neighbors_in_adjacency_order_and_first_discovery_wins():
    # an adjacency that is not sorted, with parallel edges 11 and 13 between 0 and 1
    adj = {0: [(3, 10), (1, 11), (2, 12), (1, 13)], 1: [(0, 11), (0, 13), (2, 14)],
           2: [(0, 12), (1, 14)], 3: [(0, 10)]}
    assert list(bfs(adj.__getitem__, (0,))) == [
        (0, None, None, 0), (3, 0, 10, 1), (1, 0, 11, 1), (2, 0, 12, 1)]
    assert list(bfs(adj.__getitem__, (1,))) == [
        (1, None, None, 0), (0, 1, 11, 1), (2, 1, 14, 1), (3, 0, 10, 2)]


def test_bfs_reader_that_stops_sees_a_prefix():
    g = gen_random(25, 45, 4, seed=3)
    full = list(bfs(g.adjacency, range(g.n)))
    assert sorted(x for x, *_ in full) == list(range(g.n))
    for k in range(len(full) + 1):
        scanned = []

        def adjacency(x):
            scanned.append(x)
            return g.adjacency(x)

        assert list(itertools.islice(bfs(adjacency, range(g.n)), k)) == full[:k]
        # only vertices already handed out had their neighbors scanned
        assert set(scanned) <= {x for x, *_ in full[:k]}


def test_bfs_matches_all_pairs_shortest_paths():
    g = gen_random(25, 45, 4, seed=3)
    # Floyd-Warshall oracle
    INF = 10**9
    dist = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges:
        if u != v:
            dist[u][v] = dist[v][u] = 1
    for w in range(g.n):
        dw = dist[w]
        for u in range(g.n):
            du = dist[u]
            duw = du[w]
            if duw == INF:
                continue
            for v in range(g.n):
                if duw + dw[v] < du[v]:
                    du[v] = duw + dw[v]
    depth = bfs_depths(g, 0)
    for v in range(g.n):
        assert depth.get(v, -1) == (dist[0][v] if dist[0][v] < INF else -1)


@given(st.one_of(multigraphs_with_faults(), multigraphs_with_faults(0, 14, 8)))
@settings(max_examples=200, deadline=None)
def test_bfs_forest_matches_a_tree_per_component_minimum(case):
    # on g minus the edges F removes, so the faults still shape the forest
    g, F = case
    g = g.keep_edges(eid for eid in range(g.m) if edge_present(g, F, eid))
    forest = bfs_tree(g)
    comp = brute_force_partition(g)
    assert list(forest.root) == comp
    for s in sorted(set(comp)):
        tree = {x: (p, eid, d) for x, p, eid, d in bfs(g.adjacency, (s,))}
        assert sorted(tree) == [v for v in range(g.n) if comp[v] == s]
        for v, got in tree.items():
            assert got == (forest.parent[v], forest.parent_edge[v], forest.depth[v])


# -- text format -----------------------------------------------------------------


def test_parse_header_example():
    text = "ccg 1 edge 3 3 2\n0 1 0\n0 2 1\n1 2 0\n"
    assert parse_graph(text) == TRIANGLE


def test_serialize_parse_identity():
    assert parse_graph(serialize_graph(TRIANGLE)) == TRIANGLE
    canonical = serialize_graph(TRIANGLE)
    assert serialize_graph(parse_graph(canonical)) == canonical


def test_parse_comments_and_blank_lines():
    text = "# a triangle\nccg 1 edge 3 3 2\n0 1 0 # first\n\n0 2 1\n1 2 0\n"
    assert parse_graph(text) == TRIANGLE


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_graph("ccg 1 edge 3 3 2\n0 1 0\n0 9 1\n1 2 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_graph("ccg 1 edge 3 3 2\n0 1 0\n")
    assert "2 data lines" in str(e.value) or "expected 3" in str(e.value)
    with pytest.raises(ParseError):
        parse_graph("ccg 2 edge 1 0 1\n")


def test_round_trip_preserves_edge_multiset():
    g = gen_random(15, 40, 6, seed=9, simple=False)
    h = parse_graph(serialize_graph(g))
    assert sorted(zip(h.edges, h.edge_colors)) == sorted(zip(g.edges, g.edge_colors))


def test_vertex_mode_round_trip():
    g = gen_random(10, 14, 3, seed=2, mode="vertex")
    assert parse_graph(serialize_graph(g)) == g


# -- invariants ---------------------------------------------------------------


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_monotone_removal(seed):
    g = gen_random(14, 24, 5, seed=seed)
    small = brute_force_partition(g, {0})
    big = brute_force_partition(g, {0, 1})
    # every component under the larger fault set refines the smaller one
    rep: dict[int, int] = {}
    for v in range(g.n):
        b = big[v]
        if b not in rep:
            rep[b] = small[v]
        assert rep[b] == small[v]


@given(st.integers(0, 2**30), st.sampled_from(["edge", "vertex"]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_cids_after_faults_matches_brute_force(seed, mode, simple):
    rng = random.Random(seed)
    # 12 vertices and 14 edges: often disconnected, with parallel edges and
    # self-loops when not simple
    g = gen_random(12, 14, 5, seed=seed, mode=mode, simple=simple)
    every = [frozenset(F) for size in range(4) for F in itertools.combinations(range(g.C), size)]
    family = rng.sample(every, rng.randrange(len(every) + 1))
    wanted = {F: rng.sample(range(g.n), rng.randrange(g.n + 1)) for F in family}
    got = cids_after_faults(g, wanted)
    assert set(got) == set(family)
    for F, vertices in wanted.items():
        truth = brute_force_partition(g, F)
        assert got[F] == {v: truth[v] for v in vertices}, sorted(F)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
@pytest.mark.parametrize("C", [3, 6])
@pytest.mark.parametrize("family", ["singletons", "pairs", "mixed"])
def test_cids_after_faults_on_large_classes(family, C, mode):
    # dozens of edges per class: long kill lists that stay pending deep in the sweep
    g = gen_random(60, 240, C, seed=C, mode=mode)
    rng = random.Random(C)
    if family == "singletons":  # the one-fault oracle's family
        sets = [frozenset((c,)) for c in range(C)]
    elif family == "pairs":  # an f = 2 node's family: each {h, c}, and {h}
        sets = [frozenset((h, c)) for h in range(C) for c in range(h, C)]
    else:
        every = [frozenset(F) for size in range(4)
                 for F in itertools.combinations(range(C), size)]
        sets = rng.sample(every, len(every) // 2)
    wanted = {F: rng.sample(range(g.n), rng.randrange(g.n // 2, g.n + 1)) for F in sets}
    got = cids_after_faults(g, wanted)
    assert set(got) == set(sets)
    for F, vertices in wanted.items():
        truth = brute_force_partition(g, F)
        assert got[F] == {v: truth[v] for v in vertices}, sorted(F)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_edge_classes_key_edges_by_what_removes_them(mode):
    g = gen_random(30, 80, 5, seed=9, mode=mode, simple=False)
    classes = edge_classes(g)
    assert sorted(e for cls in classes.values() for e in cls) == list(range(g.m))
    assert all(cls == sorted(cls) for cls in classes.values())
    assert [cls[0] for cls in classes.values()] == sorted(cls[0] for cls in classes.values())
    for key, cls in classes.items():
        for eid in cls:
            u, v = g.edges[eid]
            if mode == "edge":
                assert key == (g.edge_color(eid), g.edge_color(eid))
            else:
                assert key == tuple(sorted((g.vertex_color(u), g.vertex_color(v))))


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_cids_after_faults_tests_each_kill_list_once_per_side(mode, monkeypatch):
    # the pairs family of an f = 2 node over long classes: each internal node of
    # the sweep tests each distinct kill list at most once per side
    C = 3
    g = gen_random(60, 240, C, seed=C, mode=mode)
    family = [frozenset((h, c)) for h in range(C) for c in range(h, C)]
    kill_lists = set()  # an edge's kill list is the sets it fails in
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            if mode == "edge":
                removers = {g.edge_color(eid)}
            else:
                removers = {g.vertex_color(u), g.vertex_color(v)}
            kill = frozenset(F for F in family if F & removers)
            if kill:
                kill_lists.add(kill)
    calls = 0

    def counted(a, x):
        nonlocal calls
        calls += 1
        return bisect.bisect_left(a, x)

    monkeypatch.setattr(graph_module, "bisect_left", counted)
    got = cids_after_faults(g, {F: range(g.n) for F in family})
    assert 0 < calls <= 2 * (len(family) - 1) * len(kill_lists)
    for F in family:
        assert list(got[F].values()) == brute_force_partition(g, F)


@given(st.integers(0, 2**30), st.sampled_from(["edge", "vertex"]),
       st.integers(0, 30), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_preorder_and_path_colors_match_parent_chain_walks(seed, mode, n, m):
    # few edges leave the graph disconnected, so the forest has several roots
    g = gen_random(n, min(m, n * (n - 1) // 2), 4, seed=seed, mode=mode)
    parent, parent_edge = orient_forest(g, spanning_forest(g))
    chains = []
    for v in range(n):
        chain = [v]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chains.append(chain)

    order, pre, end = preorder(parent)
    assert sorted(order) == list(range(n))
    assert all(order[pre[v]] == v for v in range(n))
    for v in range(n):
        below = {x for x in range(n) if v in chains[x]}
        assert set(order[pre[v]:end[v]]) == below
    for a in range(n):  # roots, and the children of one parent, in id order
        for b in range(a + 1, n):
            if parent[a] == parent[b]:
                assert pre[a] < pre[b]

    got = path_colors(g, parent, parent_edge)
    for v, chain in enumerate(chains):
        if mode == "edge":
            want = {g.edge_color(parent_edge[x]) for x in chain[:-1]}
        else:
            want = {g.vertex_color(x) for x in chain} - {g.vertex_color(v)}
        assert got[v] == want, (v, chain)


def test_cids_after_faults_rejects_bad_color():
    with pytest.raises(InvalidFaultSetError):
        cids_after_faults(TRIANGLE, {frozenset((0,)): [0], frozenset((2,)): [0]})
    path = gen_path(3)
    for bad in (-1, path.n):  # -1 must not wrap around to the last vertex
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            cids_after_faults(path, {frozenset((0,)): [bad]})


def test_dual_oracles_agree_on_random_queries():
    rng = random.Random(123)
    g = gen_random(30, 60, 6, seed=42)
    roots = [bfs_cids(g, {c}) for c in range(g.C)]  # the BFS side
    for _ in range(1000):
        u, v, c = rng.randrange(g.n), rng.randrange(g.n), rng.randrange(g.C)
        assert brute_force_connected(g, u, v, {c}) == (roots[c][u] == roots[c][v])


def test_self_loops_do_not_affect_connectivity():
    g = edge_graph(3, [(0, 0, 0), (1, 2, 1)])
    assert brute_force_partition(g) == [0, 1, 1]
    assert spanning_forest(g) == (1,)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
@pytest.mark.parametrize("coloring", ["uniform", "blocks"])
def test_generators_reject_empty_palette(coloring, mode):
    with pytest.raises(GraphError, match="palette size must be positive"):
        gen_path(5, coloring=coloring, C=0, mode=mode)


def test_construction_validation():
    with pytest.raises(GraphError):
        ColoredGraph(n=2, mode="edge", edges=((0, 5),), C=1, edge_colors=(0,))
    with pytest.raises(GraphError):
        edge_graph(2, [(0, 1, 3)], C=2)
    with pytest.raises(GraphError):
        vertex_graph([0, 1], [(0, 1)], C=1)
