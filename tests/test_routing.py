import dataclasses
import gc
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorfault.generators import gen_grid, gen_path, gen_random, gen_wheel
from colorfault.graph import GraphError, bfs, edge_graph
from colorfault.oracle import brute_force_connected, brute_force_partition
from colorfault.routing import (
    ColorStructure,
    FirstRecEdgeBlock,
    Hop,
    PortedNetwork,
    RoutingBugError,
    RoutingScheme,
    UnreachableError,
    _build_color_structure,
    _toward,
    build_routing_scheme,
    build_tree_routing,
    header_bit_sizes,
    make_header,
    route,
)

FOUR_CYCLE = edge_graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 3)])


def scheme_anchors(scheme: RoutingScheme) -> tuple[int, ...]:
    """A0 u A, read off the one-fault labels' ``meta``."""
    meta = scheme.connectivity.meta
    return tuple(sorted(set(meta["A0"]) | set(meta["A"])))


def color_structures(scheme: RoutingScheme) -> dict[int, ColorStructure]:
    """Color on T -> its ``ColorStructure``, rebuilt as the build makes and drops it."""
    steps, anchors = scheme.tree_routing.steps, scheme_anchors(scheme)
    on_tree = sorted({up.color for _pre, _end, up, _ch in steps if up is not None})
    return {c: _build_color_structure(scheme.graph, scheme.net, c, scheme.tree_routing,
                                      anchors)[0] for c in on_tree}


def fragment_bfs(frag_adj, source_frag: int) -> dict[int, tuple[int, int | None, int | None]]:
    """The reference walk out of one fragment: frag -> (dist, peer, edge id).

    ``peer`` is the neighbor fragment one hop closer to the source (None at
    the source); the edge id is the recovery edge between them.  The fragment
    graph is a forest, so each fragment has one such peer whatever the order.
    """
    return {fr: (dist, peer, eid) for fr, peer, eid, dist in bfs(frag_adj.get, (source_frag,))}


def block_for(scheme, cs, from_frag, reach) -> FirstRecEdgeBlock | None:
    """The reference FirstRecEdge on the fragment path from_frag -> target, ``reach``
    the target's ``fragment_bfs``; None from the target or outside its component."""
    dist, _peer, eid = reach.get(from_frag, (0, None, None))
    if dist == 0:
        return None
    u, v = scheme.graph.edges[eid]
    x = u if cs.fragment_of[u] == from_frag else v
    return FirstRecEdgeBlock(scheme.net.port_of(x, eid), scheme.tree_routing.steps[x][0],
                             dist == 1)


def expected_first_recovery_block(
    scheme: RoutingScheme, cs: ColorStructure, v: int, a_star: int
) -> FirstRecEdgeBlock | None:
    """The e_i block invariant (I) demands while sitting in v's fragment, ``cs``
    the structure of the avoided color."""
    reach = fragment_bfs(cs.frag_adj, cs.fragment_of[a_star])
    return block_for(scheme, cs, cs.fragment_of[v], reach)


# -- ported network ------------------------------------------------------------


def test_ports_are_bijective():
    g = gen_random(12, 24, 3, seed=1, simple=False)
    net = PortedNetwork.build(g)
    for v in range(g.n):
        seen = set()
        for p in range(len(net.ports[v])):
            hop = net.ports[v][p]
            eid, nbr = hop.edge, hop.dst
            assert net.port_of(v, eid) == p
            assert hop == Hop(v, p, nbr, eid, g.edge_color(eid))
            seen.add((eid, nbr))
        assert len(seen) == len(net.ports[v])


# -- tree routing -----------------------------------------------------------------


def test_tree_routing_walks_tree_paths():
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randrange(2, 40)
        g = edge_graph(n, [(rng.randrange(v), v, 0) for v in range(1, n)], C=1)
        net = PortedNetwork.build(g)
        tr = build_tree_routing(net, range(n - 1))
        parent = {v: u for (u, v) in g.edges} | {v: u for (v, u) in g.edges}
        for u in range(n):
            for v in range(n):
                # walk from u toward v; must arrive within n hops on tree edges
                cur = u
                for _ in range(n + 1):
                    if cur == v:
                        break
                    cur = _toward(tr.steps[cur], tr.steps[v][0]).dst
                assert cur == v


def test_tree_route_arrival_is_none():
    g = gen_path(3, coloring="uniform", C=1)
    net = PortedNetwork.build(g)
    tr = build_tree_routing(net, [0, 1])
    assert _toward(tr.steps[1], tr.steps[1][0]) is None
    assert _toward(tr.steps[1], tr.steps[2][0]) is not None


def test_tree_routing_rejects_edge_ids_outside_range():
    # -1 would index from the end and orient the last edge; 999 indexes past it
    g = gen_grid(3, 4)
    net = PortedNetwork.build(g)
    for bad in (999, -1):
        with pytest.raises(GraphError, match=f"edge id {bad} outside 0..{g.m - 1}"):
            build_tree_routing(net, [0, 1, bad])


# -- scheme construction ------------------------------------------------------------


def test_build_rejects_disconnected_or_vertex_mode():
    with pytest.raises(GraphError):
        build_routing_scheme(edge_graph(4, [(0, 1, 0)], C=1))
    from colorfault.graph import vertex_graph

    with pytest.raises(GraphError):
        build_routing_scheme(vertex_graph([0, 1], [(0, 1)]))


def test_color_absent_from_tree_has_single_fragment():
    # parallel edge colored 1 can never join the spanning tree
    g = edge_graph(3, [(0, 1, 0), (1, 2, 0), (0, 1, 1)])
    scheme = build_routing_scheme(g)
    assert 1 not in color_structures(scheme)
    lbl = scheme.color_labels[1]
    assert all(b is None for b in lbl.blocks.values())
    result = route(scheme, 0, 2, 1)
    assert result.trace[-1].dst == 2 and all(h.color != 1 for h in result.trace)


def test_scheme_keeps_only_what_route_reads():
    # each color's fragment forest is dropped once its part of the tables and
    # labels is written: no ColorStructure outlives the build
    scheme = build_routing_scheme(PINNED_GRAPHS["random"]())
    assert [f.name for f in dataclasses.fields(scheme)] == [
        "graph", "net", "tree_routing", "tables", "vertex_labels", "color_labels",
        "connectivity",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        scheme.tables = ()
    seen, todo = set(), [scheme]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, ColorStructure)
        todo.extend(gc.get_referents(obj))
    assert len(seen) > scheme.graph.n


def test_block_counts_bounded():
    g = gen_random(24, 50, 5, seed=7, connected=True)
    scheme = build_routing_scheme(g)
    A = len(scheme_anchors(scheme))
    for table in scheme.tables:
        assert len(table.blocks) in (0, A)
    for lbl in scheme.vertex_labels:
        assert len(lbl.per_color) <= max(scheme.connectivity.meta["k"] - 1, 0)


def _sweep(g, seeded_pairs=None):
    scheme = build_routing_scheme(g)
    structures = color_structures(scheme)
    comp_by_color = {c: brute_force_partition(g, {c}) for c in range(g.C)}
    checked = 0
    for c in range(g.C):
        comp = comp_by_color[c]
        if len({x for x in comp}) != 1:
            continue  # scheme guarantees hold when the survivor graph is connected
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue

                def check(v, h):
                    if h.up is False and h.next_block is not None:
                        cs = structures.get(c)
                        if cs is None:
                            return
                        if cs.fragment_of[v] != cs.fragment_of[h.a_star]:
                            assert h.next_block == expected_first_recovery_block(
                                scheme, cs, v, h.a_star
                            )

                result = route(scheme, s, t, c, on_state=check)
                assert result.trace[-1].dst == t
                assert all(h.color != c for h in result.trace)
                assert result.hops <= g.n * g.n
                checked += 1
    return scheme, checked


def test_four_cycle_avoid_each_color():
    scheme, checked = _sweep(FOUR_CYCLE)
    assert checked == 4 * 3 * 4  # every color leaves the cycle connected


def test_route_examples():
    scheme = build_routing_scheme(FOUR_CYCLE)
    result = route(scheme, 0, 3, 1)
    assert result.trace[-1].dst == 3
    assert all(h.color != 1 for h in result.trace)


def test_unreachable_raises():
    g = gen_path(4, coloring="uniform", C=2, seed=5)
    scheme = build_routing_scheme(g)
    found = False
    for c in range(g.C):
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                if not brute_force_connected(g, s, t, {c}):
                    with pytest.raises(UnreachableError):
                        route(scheme, s, t, c)
                    found = True
    assert found


def test_exhaustive_random_sweeps():
    total = 0
    for seed in range(8):
        n = 8 + 3 * seed
        g = gen_random(n, int(n * 1.8), 4, seed=seed, connected=True)
        _scheme, checked = _sweep(g)
        total += checked
    assert total > 500


def test_multigraph_sweeps():
    # parallel edges get distinct ports and may carry distinct colors
    total = 0
    for seed in range(4):
        n = 8 + 2 * seed
        g = gen_random(n, int(n * 2.2), 3, seed=100 + seed, simple=False,
                       connected=True)
        _scheme, checked = _sweep(g)
        total += checked
    assert total > 200


def test_wheel_and_path_sweeps():
    _sweep(gen_wheel(9, coloring="uniform", C=3, seed=2))
    _sweep(gen_path(9, coloring="uniform", C=3, seed=3))


def test_doubled_path_maximal_fragmentation():
    # two parallel monochrome paths: faulting either color shatters T into a
    # fragment per vertex, the worst case for the recovery machinery
    n = 18
    triples = [(i, i + 1, 0) for i in range(n - 1)]
    triples += [(i, i + 1, 1) for i in range(n - 1)]
    scheme, checked = _sweep(edge_graph(n, triples))
    assert checked == 2 * n * (n - 1)
    assert max(len(set(cs.fragment_of)) for cs in color_structures(scheme).values()) == n


# -- the final approach over the fragment forest ------------------------------------


@st.composite
def connected_edge_multigraphs(draw, max_n=12, max_extra=16):
    """A connected edge-colored multigraph: a random tree plus extra edges (loops, parallels)."""
    n, C = draw(st.integers(1, max_n)), draw(st.integers(1, 5))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges = draw(st.permutations(tree + draw(st.lists(st.tuples(vertex, vertex),
                                                        max_size=max_extra))))
    colors = draw(st.lists(st.integers(0, C - 1), min_size=len(edges), max_size=len(edges)))
    return edge_graph(n, [(u, v, c) for (u, v), c in zip(edges, colors)], C=C)


def tc_routing(scheme, c, cs):
    """The reference: interval routing over T_c, the tree (T - c) plus c's recovery
    edges, ``cs`` the structure of c."""
    tree_edges = [up.edge for _pre, _end, up, _ch in scheme.tree_routing.steps
                  if up is not None and up.color != c]
    recovery = {eid for adj in cs.frag_adj.values() for _other, eid in adj}
    return build_tree_routing(scheme.net, tree_edges + sorted(recovery))


def tc_path(scheme, tc, s, t):
    """The hops of the T_c path from s to t, walked with the reference steps ``tc``."""
    cur, walk = s, []
    while cur != t:
        hop = _toward(tc.steps[cur], tc.steps[t][0])
        walk.append(hop)
        cur = hop.dst
    return tuple(walk)


def in_final_approach(h):
    return h.up is None and h.next_block is None and h.target_on_path and (
        h.target_block is not None or h.a_star < 0)


def check_final_approach_is_tc_path(scheme):
    """Every route is delivered exactly when G - c connects s and t, and from where
    its final approach starts it walks the T_c path, at vertices that carry tables."""
    g = scheme.graph
    structures = color_structures(scheme)
    for c in range(g.C):
        comp = brute_force_partition(g, {c})
        tc = tc_routing(scheme, c, structures[c]) if c in structures else None
        for s, t in itertools.permutations(range(g.n), 2):
            if comp[s] != comp[t]:
                with pytest.raises(UnreachableError):
                    route(scheme, s, t, c)
                continue
            start = []

            def watch(v, h, seen=start):
                if seen or in_final_approach(h):
                    assert c in scheme.tables[v].fragment_tables
                    seen.append(v)

            trace = route(scheme, s, t, c, on_state=watch).trace
            assert trace[-1].dst == t and all(hop.color != c for hop in trace)
            if start:
                assert trace[len(trace) + 1 - len(start):] == tc_path(scheme, tc, start[0], t)


@given(connected_edge_multigraphs())
@example(gen_path(40))
@example(gen_grid(5, 7))
@settings(max_examples=150, deadline=None)
def test_final_approach_walks_tc_path(g):
    check_final_approach_is_tc_path(build_routing_scheme(g))


@given(connected_edge_multigraphs())
@example(gen_path(40))
@example(gen_grid(5, 7))
@settings(max_examples=150, deadline=None)
def test_fragment_forest_invariants(g):
    scheme = build_routing_scheme(g)
    for c, cs in color_structures(scheme).items():
        lead = {}
        for a in scheme_anchors(scheme):
            lead.setdefault(cs.fragment_of[a], a)
        members = {}
        for v, fr in enumerate(cs.fragment_of):
            members.setdefault(fr, []).append(v)
        for fr, vertices in members.items():
            # every fragment but an anchor fragment is one a final approach passes
            # through: each of its vertices has c on P(v) and stores the fragment's
            # table; no final approach enters an anchor fragment, so none stores one
            for v in vertices:
                if fr in lead:
                    assert c not in scheme.tables[v].fragment_tables
                else:
                    assert c in scheme.connectivity.vertex_labels[v].cid_by_color
                    assert scheme.tables[v].fragment_tables[c] == cs.fragment_tables[fr]
            # a(v, c) is the minimum anchor of the nearest anchor fragment by
            # (distance, root) in a BFS out of v's fragment, or -1 when none is reached
            reach = fragment_bfs(cs.frag_adj, fr)
            near = min(((reach[a_fr][0], a_fr) for a_fr in lead if a_fr in reach),
                       default=None)
            a_vc, block, number = cs.fragment_labels[fr]
            assert number == cs.fragment_tables[fr][0]
            if near is None:
                assert (a_vc, block) == (-1, None)
            else:
                assert a_vc == lead[near[1]]
                assert block == block_for(scheme, cs, near[1], reach)


@given(connected_edge_multigraphs())
# G - 2 has a component without an anchor, whose fragments get no block
@example(gen_random(24, 44, 4, seed=5, connected=True))
@settings(max_examples=150, deadline=None)
def test_blocks_match_per_anchor_fragment_bfs(g):
    # every fragment root's table and every color label (from T's root 0) hold,
    # for each anchor, the first recovery edge on the fragment path toward it,
    # as one BFS out of that anchor's fragment finds it
    scheme = build_routing_scheme(g)
    anchors = scheme_anchors(scheme)
    for c, cs in color_structures(scheme).items():
        for v, fr in enumerate(cs.fragment_of):
            if fr != v:
                continue
            stored = scheme.color_labels[c].blocks if v == 0 else scheme.tables[v].blocks
            assert list(stored) == list(anchors)
            for a in anchors:
                assert stored[a] == expected_first_recovery_block(scheme, cs, v, a)


def test_refusals_match_brute_force_on_random_sweep():
    # a route is refused exactly when G - c separates s and t, also when t's
    # component of G - c holds no anchor
    delivered = 0
    for seed in range(300):
        n = 6 + seed % 20
        g = gen_random(n, int(n * 1.7), 3 + seed % 4, seed=seed, connected=True)
        scheme = build_routing_scheme(g)
        for c in range(g.C):
            comp = brute_force_partition(g, {c})
            for s, t in itertools.permutations(range(g.n), 2):
                if comp[s] != comp[t]:
                    with pytest.raises(UnreachableError):
                        route(scheme, s, t, c)
                else:
                    assert route(scheme, s, t, c).trace[-1].dst == t
                    delivered += 1
    assert delivered > 100000


# -- simulator contract --------------------------------------------------------------


def _check_hop_contract(hop):
    fields = (hop.src, hop.port, hop.dst, hop.edge, hop.color)
    assert repr(hop) == "Hop(src={}, port={}, dst={}, edge={}, color={})".format(*fields)
    for name in ("src", "port", "dst", "edge", "color"):
        with pytest.raises(AttributeError):
            setattr(hop, name, 0)
    twin = Hop(*fields)
    assert twin == hop and hash(twin) == hash(hop)


def test_hop_contract_on_literal_hop():
    hop = Hop(1, 0, 2, 5, 3)
    assert repr(hop) == "Hop(src=1, port=0, dst=2, edge=5, color=3)"
    assert (hop.src, hop.port, hop.dst, hop.edge, hop.color) == (1, 0, 2, 5, 3)
    _check_hop_contract(hop)
    assert Hop(1, 0, 2, 5, 4) != hop


def test_hop_contract_on_routed_hops():
    g = gen_random(12, 22, 3, seed=4, connected=True)
    scheme = build_routing_scheme(g)
    result = route(scheme, 0, g.n - 1, 1)
    at = 0
    for hop in result.trace:
        _check_hop_contract(hop)
        assert hop.src == at
        assert scheme.net.ports[hop.src][hop.port] is hop
        assert set(g.edges[hop.edge]) == {hop.src, hop.dst}
        assert hop.color == g.edge_color(hop.edge) != 1
        at = hop.dst
    assert at == g.n - 1


def check_on_state(scheme, triples):
    """``on_state`` fires at the source and after every hop, and changes no route."""
    for s, t, c in triples:
        try:
            plain = route(scheme, s, t, c)
        except UnreachableError:
            with pytest.raises(UnreachableError):
                route(scheme, s, t, c, on_state=lambda v, h: None)
            continue
        calls = []
        result = route(scheme, s, t, c, on_state=lambda v, h: calls.append((v, h)))
        assert (result.trace, result.header) == (plain.trace, plain.header)
        assert len(calls) == result.hops + 1
        assert [v for v, _h in calls] == [s] + [hop.dst for hop in result.trace]
        assert all(h is result.header for _v, h in calls)


def test_on_state_fires_at_source_and_after_every_hop():
    g = gen_grid(3, 4)  # unique colors: no fault disconnects
    scheme = build_routing_scheme(g)
    assert route(scheme, 3, 8, 2).hops > 1
    check_on_state(scheme, route_triples(g))


def test_unknown_ids_are_graph_errors():
    scheme = build_routing_scheme(FOUR_CYCLE)
    for t, c in ((-1, 0), (4, 0), (0, -1), (0, 4)):
        with pytest.raises(GraphError):
            make_header(scheme, t, c)
    for s, t, c in ((-1, 2, 0), (4, 2, 0), (0, -1, 0), (0, 4, 0), (0, 2, -1), (0, 2, 4),
                    (1, 1, 0)):
        with pytest.raises(GraphError):
            route(scheme, s, t, c)


def set_step(scheme, v, step):
    """A copy of the scheme whose T step at v is ``step``, as a corrupted build would
    leave it."""
    steps = list(scheme.tree_routing.steps)
    steps[v] = step
    return dataclasses.replace(
        scheme, tree_routing=dataclasses.replace(scheme.tree_routing, steps=tuple(steps)))


def test_hop_over_forbidden_edge_is_a_bug():
    # the only way out of 0 avoiding color 0 is edge 3; swap it with edge 0 in 0's step
    scheme = build_routing_scheme(FOUR_CYCLE)
    assert route(scheme, 0, 2, 0).trace[0].edge == 3
    swapped = dict(zip(scheme.net.ports[0], scheme.net.ports[0][::-1]))
    pre, end, _up, children = scheme.tree_routing.steps[0]  # 0 is T's root
    bad = set_step(scheme, 0, (pre, end, None, tuple((hi, swapped[hop]) for hi, hop in children)))
    with pytest.raises(RoutingBugError, match="routed over a forbidden edge"):
        route(bad, 0, 2, 0)


def test_two_vertex_bounce_exhausts_hop_budget():
    # color 2 is off the tree, so 0 -> 2 walks T; point 1's child step back at 0
    g = edge_graph(3, [(0, 1, 0), (1, 2, 1)], C=3)
    scheme = build_routing_scheme(g)
    assert [hop.dst for hop in route(scheme, 0, 2, 2).trace] == [1, 2]
    intact = scheme.tree_routing.steps
    pre, end, up, ((hi, _down),) = intact[1]
    bad = set_step(scheme, 1, (pre, end, up, ((hi, up),)))
    visited = []
    with pytest.raises(RoutingBugError, match="hop budget exceeded"):
        route(bad, 0, 2, 2, on_state=lambda v, _h: visited.append(v))
    assert len(visited) == 1 + g.n * g.n
    assert visited == [0, 1] * 5
    # 1 -> 2 climbs to the root 0 before it walks down; give the root a
    # parent step back to 1 and the climb bounces instead
    assert [hop.dst for hop in route(scheme, 1, 2, 2).trace] == [0, 1, 2]
    pre, end, _up, children = intact[0]
    bad = set_step(scheme, 0, (pre, end, scheme.net.ports[0][0], children))
    visited.clear()
    with pytest.raises(RoutingBugError, match="hop budget exceeded"):
        route(bad, 1, 2, 2, on_state=lambda v, _h: visited.append(v))
    assert visited == [1, 0] * 5


def test_hop_budget_counts_across_phases():
    # a fragment root v whose block crosses into its own T child w, in v's
    # fragment: the message climbs back to v, crosses again, and so on
    g = gen_random(12, 22, 3, seed=4, connected=True)
    scheme = build_routing_scheme(g)
    steps = scheme.tree_routing.steps
    for v, (pre, _end, up, children) in enumerate(steps):
        c = None if up is None else up.color
        w_hop = next((hop for _hi, hop in children if hop.color != c), None)
        if c is None or w_hop is None:
            continue
        comp = brute_force_partition(g, {c})
        t = next((t for t in range(g.n) if t not in (v, w_hop.dst) and comp[t] == comp[v]
                  and make_header(scheme, t, c).a_star >= 0), None)
        if t is not None:
            break
    else:
        pytest.fail("no fragment root with a child in its fragment")
    a_star = make_header(scheme, t, c).a_star
    table = scheme.tables[v]
    loop = FirstRecEdgeBlock(w_hop.port, pre, False)
    tables = list(scheme.tables)
    tables[v] = dataclasses.replace(table, blocks={**table.blocks, a_star: loop})
    bad = dataclasses.replace(scheme, tables=tuple(tables))
    # n * n hops alternate the two phases, so the climb (from w) and the
    # crossing (from v) each meet the end of the budget from one source
    for s, other in ((v, w_hop.dst), (w_hop.dst, v)):
        visited = []
        with pytest.raises(RoutingBugError, match="hop budget exceeded"):
            route(bad, s, t, c, on_state=lambda x, _h: visited.append(x))
        assert visited == [(s, other)[i % 2] for i in range(1 + g.n * g.n)]


def final_approach_start(scheme, descends=False):
    """(s, t, c, v) of the first route whose final approach reads a table at v != t;
    with ``descends``, one whose table there steps down to a child of v's fragment."""
    for s, t, c in route_triples(scheme.graph):
        starts = []

        def watch(v, h, t=t):
            if v != t and not starts and in_final_approach(h):
                starts.append((v, h.target_fragment_label))

        try:
            route(scheme, s, t, c, on_state=watch)
        except UnreachableError:
            continue
        if starts:
            v, x = starts[0]
            pre, end, _up, _children = scheme.tables[v].fragment_tables[c]
            if not descends or pre < x < end:
                return s, t, c, v
    pytest.fail("no route with a final approach")


def test_missing_fragment_table_on_final_approach_is_a_bug():
    scheme = build_routing_scheme(PINNED_GRAPHS["random"]())
    s, t, c, v = final_approach_start(scheme)
    scheme.tables[v].fragment_tables.pop(c)
    with pytest.raises(RoutingBugError, match="fragment table missing on the final approach"):
        route(scheme, s, t, c)


def test_fragment_step_contract_errors():
    # _toward's two contract errors, on a fragment-forest step the final approach reads
    scheme = build_routing_scheme(PINNED_GRAPHS["random"]())
    s, t, c, v = final_approach_start(scheme, descends=True)
    stored = scheme.tables[v].fragment_tables
    pre, end, up, children = intact = stored[c]
    stored[c] = (pre, end, up, ())
    with pytest.raises(RoutingBugError, match="interval tables inconsistent"):
        route(scheme, s, t, c)
    stored[c] = intact
    assert route(scheme, s, t, c).trace[-1].dst == t
    stored[c] = (pre, pre + 1, None, children)
    with pytest.raises(RoutingBugError, match="target outside this routing tree"):
        route(scheme, s, t, c)


def test_tree_step_contract_errors():
    # color 2 is off the tree, so 0 -> 2 walks T down through 1
    g = edge_graph(3, [(0, 1, 0), (1, 2, 1)], C=3)
    scheme = build_routing_scheme(g)
    assert [hop.dst for hop in route(scheme, 0, 2, 2).trace] == [1, 2]
    intact = scheme.tree_routing.steps
    pre, end, up, _children = intact[1]
    with pytest.raises(RoutingBugError, match="interval tables inconsistent"):
        route(set_step(scheme, 1, (pre, end, up, ())), 0, 2, 2)
    pre, _end, up, children = intact[0]
    with pytest.raises(RoutingBugError, match="target outside this routing tree"):
        route(set_step(scheme, 0, (pre, pre + 1, up, children)), 0, 2, 2)


def test_ladder_with_alternating_colors():
    rungs = [(i, i + 10, i % 3) for i in range(10)]
    rails = [(i, i + 1, 3 + (i % 2)) for i in range(9)]
    rails += [(10 + i, 11 + i, 3 + ((i + 1) % 2)) for i in range(9)]
    _scheme, checked = _sweep(edge_graph(20, rungs + rails))
    assert checked >= 1900


# declared constants for the canonical encoding, in ceil(log2 n)-bit words;
# every stored item is a handful of fields, so these are small multiples of
# the k (ruling set) and 1 (header) word counts
KAPPA_TABLE = 7
KAPPA_VERTEX_LABEL = 5
KAPPA_COLOR_LABEL = 4
KAPPA_PERMANENT_HEADER = 10
KAPPA_MUTABLE = 4


def test_header_and_table_sizes():
    from colorfault.bits import id_width

    for seed in (5, 11, 23):
        g = gen_random(24, 44, 4, seed=seed, connected=True)
        scheme = build_routing_scheme(g)
        wid = id_width(g.n)
        k = scheme.connectivity.meta["k"]
        for table in scheme.tables:
            assert table.bits <= KAPPA_TABLE * k * wid
        for lbl in scheme.vertex_labels:
            assert lbl.bits <= KAPPA_VERTEX_LABEL * k * wid
        for lbl in scheme.color_labels:
            assert lbl.bits <= KAPPA_COLOR_LABEL * k * wid
        hdr = route(scheme, 0, g.n - 1, 0).header
        perm, mut = header_bit_sizes(scheme, hdr)
        assert perm <= KAPPA_PERMANENT_HEADER * wid
        assert mut <= KAPPA_MUTABLE * wid


def pinned_routing_outputs(g):
    """(delivered routes, sha256) of the whole scheme and of every route.

    Hashes the tables, the vertex and color labels, T's steps and pre-order,
    each color's fragments with their forest steps and labels (dicts as
    sorted items), and the trace and header of route(s, t, c) for every
    s != t and color c, or the type name of its refusal.
    """
    scheme = build_routing_scheme(g)
    h = hashlib.sha256()

    def put(item):
        h.update(repr(item).encode())
        h.update(b"\n")

    for t in scheme.tables:
        put((t.vertex, sorted(t.blocks.items()), sorted(t.fragment_tables.items()), t.bits))
    for lbl in scheme.vertex_labels:
        put((lbl.vertex, lbl.tree_label, lbl.anchor, sorted(lbl.per_color.items()), lbl.bits))
    for lbl in scheme.color_labels:
        put((lbl.color, sorted(lbl.blocks.items()), lbl.bits))
    put(scheme.tree_routing.steps)
    put(scheme.tree_routing.order)
    for c, cs in sorted(color_structures(scheme).items()):
        put((c, cs.fragment_of, sorted(cs.frag_adj.items()),
             sorted(cs.fragment_tables.items()), sorted(cs.fragment_labels.items())))
    delivered = 0
    for c in range(g.C):
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                try:
                    result = route(scheme, s, t, c)
                except (UnreachableError, RoutingBugError) as exc:
                    put(type(exc).__name__)
                else:
                    put((result.trace, result.header))
                    delivered += 1
    return delivered, h.hexdigest()


# Recorded once every routing tree kept one step tuple per node: the earlier
# pins' tables, rewritten as steps and hashed this way, give these digests, so
# every table, label, route and header is unchanged; test_route_traces_pinned
# holds the routes' hops.
PINNED = {
    "random": (2032, "05afa75bc2fa6ffc7875a5b72754cf90a89ebb07579001c49b6ecdae56d9b3b7"),
    "grid": (51584, "be5eb29966669861fba80788add6dab87471434e247c6a5ccb59bfa72226a63d"),
}
PINNED_GRAPHS = {
    "random": lambda: gen_random(24, 44, 4, seed=5, connected=True),
    "grid": lambda: gen_grid(4, 8),  # unique colors
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_pinned(name):
    assert pinned_routing_outputs(PINNED_GRAPHS[name]()) == PINNED[name]


def route_triples(g, sample=None):
    """Every (s, t, c) with s != t in a fixed order, or ``sample`` seeded draws of them."""
    if sample is None:
        return [(s, t, c) for c in range(g.C) for s in range(g.n) for t in range(g.n) if s != t]
    rng = random.Random(0)
    out = []
    while len(out) < sample:
        s, t, c = rng.randrange(g.n), rng.randrange(g.n), rng.randrange(g.C)
        if s != t:
            out.append((s, t, c))
    return out


def trace_digest(scheme, triples):
    """(delivered, sha256) over the hops of every route, or the type name of its refusal."""
    h = hashlib.sha256()
    delivered = 0
    for s, t, c in triples:
        try:
            item = route(scheme, s, t, c).trace
        except (UnreachableError, RoutingBugError) as exc:
            item = type(exc).__name__
        else:
            delivered += 1
        h.update(repr(item).encode())
        h.update(b"\n")
    return delivered, h.hexdigest()


# Traces alone, so the pin holds across changes to table and header encodings.
TRACE_GRAPHS = {**PINNED_GRAPHS, "grid-4x64": lambda: gen_grid(4, 64)}
TRACE_SAMPLE = {"grid-4x64": 10000}  # 29M triples in all; a seeded sample of them
# (s, t, c) once refused with UnreachableError although G - c connects s and t:
# t's component of G - c held no anchor.  The trace pin leaves them out.
ANCHORLESS_REFUSALS = {"random": [(16, 23, 2), (23, 16, 2)]}
TRACE_PINNED = {  # recorded while the final approach still walked a per-color tree T_c
    "random": (2030, "056e64e4f8d25d813df8aec0e4cab174c36cdd548019d832a27e3fbd8279764d"),
    "grid": (51584, "47db133fc351f0fbef3512604ef17886241bb1b82a4df116fd21fdcd74b3b845"),
    "grid-4x64": (10000, "cdd41d8525140de9a163948ea111c2881aa9f382b6de81e658cdfbb5f20b4f59"),
}


@pytest.mark.parametrize("name", sorted(ANCHORLESS_REFUSALS))
def test_anchorless_refusals_are_delivered(name):
    # a* = -1: the whole route is the final approach, so it is the T_c path from s
    g = TRACE_GRAPHS[name]()
    scheme = build_routing_scheme(g)
    for s, t, c in ANCHORLESS_REFUSALS[name]:
        assert brute_force_connected(g, s, t, {c})
        assert scheme.vertex_labels[t].per_color[c][0] == -1
        tc = tc_routing(scheme, c, color_structures(scheme)[c])
        assert route(scheme, s, t, c).trace == tc_path(scheme, tc, s, t)


@pytest.mark.parametrize("name", sorted(TRACE_PINNED))
def test_route_traces_pinned(name):
    g = TRACE_GRAPHS[name]()
    skip = ANCHORLESS_REFUSALS.get(name, ())
    triples = [x for x in route_triples(g, TRACE_SAMPLE.get(name)) if x not in skip]
    assert trace_digest(build_routing_scheme(g), triples) == TRACE_PINNED[name]


# -- the per-vertex T steps, and on_state, on the pinned and random graphs -------


def check_step_tiling(steps, pre_of, way_type):
    """Each step is an exact tuple (pre, end, up, ((hi, way), ...)) whose child
    intervals tile (pre, end): the first hi above a label then finds its child.

    ``pre_of(way)`` is the number of the child a way leads to.
    """
    for step in steps:
        assert type(step) is tuple and len(step) == 4
        pre, end, up, children = step
        assert up is None or type(up) is way_type
        assert type(children) is tuple
        lo = pre + 1
        for child in children:
            assert type(child) is tuple and len(child) == 2
            hi, way = child
            assert type(way) is way_type and pre_of(way) == lo < hi
            lo = hi
        assert lo == end


def check_steps(scheme):
    """T's steps and every color's fragment-forest steps tile their intervals; T's
    ways are the ports' shared ``Hop``s, and its pre-order lists each vertex at its label."""
    tr, ports = scheme.tree_routing, scheme.net.ports
    assert len(tr.steps) == scheme.graph.n == len(tr.order)
    check_step_tiling(tr.steps, lambda hop: tr.steps[hop.dst][0], Hop)
    for v, (pre, _end, up, children) in enumerate(tr.steps):
        assert tr.order[pre] == v
        for hop in ([] if up is None else [up]) + [hop for _hi, hop in children]:
            assert hop.src == v and ports[v][hop.port] is hop
        for hi, hop in children:  # a child's parent way is the same edge back
            assert tr.steps[hop.dst][1] == hi and tr.steps[hop.dst][2].edge == hop.edge
    for cs in color_structures(scheme).values():

        def entered(block, cs=cs):  # the number of the fragment a block's recovery edge enters
            x = tr.order[block.x_tree_label]
            return cs.fragment_tables[cs.fragment_of[ports[x][block.port].dst]][0]

        check_step_tiling(cs.fragment_tables.values(), entered, FirstRecEdgeBlock)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_steps_and_on_state_on_pinned_graphs(name):
    g = PINNED_GRAPHS[name]()
    scheme = build_routing_scheme(g)
    check_steps(scheme)
    check_on_state(scheme, route_triples(g))


@given(connected_edge_multigraphs(max_n=10))
@settings(max_examples=100, deadline=None)
def test_steps_and_on_state_on_random_graphs(g):
    scheme = build_routing_scheme(g)
    check_steps(scheme)
    check_on_state(scheme, route_triples(g))
