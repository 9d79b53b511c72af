import math
import random

import pytest

from colorfault import two_fault
from colorfault.bits import id_width, width_for
from colorfault.generators import gen_grid, gen_path, gen_random
from colorfault.graph import GraphError, RemovedVertexError, edge_graph
from colorfault.labels import LabelSet
from colorfault.oracle import brute_force_partition
from colorfault.two_fault import (
    _derive_cid,
    greedy_hitting_set,
    label_two_fault,
    query_two_fault_ids,
    truncated_bfs,
)

PATH_ABA = edge_graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])


def derived_cid(ls: LabelSet, v: int, c: int, d: int) -> int:
    """cid(v, G-{c,d}) as the query procedure computes it (for verification)."""
    return _derive_cid(ls.vertex_labels[v], ls.color_labels[c], ls.color_labels[d])


# -- hitting set -----------------------------------------------------------------


def test_greedy_example():
    sets = [{1, 2}, {2, 3}, {3, 4}]
    assert greedy_hitting_set(sets, 5) == (2, 3)


def test_greedy_single_set():
    assert greedy_hitting_set([{5}], 6) == (5,)


def test_greedy_rejects_empty_set():
    with pytest.raises(ValueError):
        greedy_hitting_set([{1}, set()], 3)


def test_greedy_size_bound():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(10, 60)
        delta = rng.randrange(2, 8)
        k = rng.randrange(1, 30)
        sets = []
        for _i in range(k):
            size = rng.randrange(delta, min(n, delta + 6) + 1)
            sets.append(set(rng.sample(range(n), size)))
        U = greedy_hitting_set(sets, n)
        assert all(s & set(U) for s in sets)
        assert len(U) <= (n / delta) * (math.log(k) + 1)


def reference_greedy(sets, n):
    """The eager greedy loop: rescan every vertex per pick, minimum id on ties."""
    covers = {}
    for i, s in enumerate(sets):
        for v in s:
            covers.setdefault(v, set()).add(i)
    unhit = set(range(len(sets)))
    chosen = []
    while unhit:
        best_v = -1
        best_gain = 0
        for v in sorted(covers):
            gain = len(covers[v] & unhit)
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        unhit -= covers[best_v]
    return tuple(sorted(chosen))


def test_lazy_greedy_matches_the_eager_loop_on_ties():
    rng = random.Random(38)
    for trial in range(2000):
        # a small universe and equal-size sets, so many vertices tie on gain
        # at every pick, and vertices are often listed out of id order
        n = rng.randrange(2, 16)
        size = rng.randrange(1, min(n, 4) + 1)
        sets = [rng.sample(range(n), size) for _ in range(rng.randrange(1, 30))]
        if trial % 2:
            sets = [set(s) for s in sets]
        assert greedy_hitting_set(sets, n) == reference_greedy(sets, n), sets


# -- truncated trees ----------------------------------------------------------------


def test_truncated_tree_small_spans_component():
    g = gen_path(6, coloring="uniform", C=2, seed=0)
    removed = frozenset(g.color_classes()[1])
    t = truncated_bfs(g, removed, 0, cap=3)
    assert len(t.vertices) <= 3
    big = truncated_bfs(g, removed, 0, cap=100)
    comp = brute_force_partition(g, {1})
    want = {v for v in range(g.n) if comp[v] == comp[0]}
    assert set(big.vertices) == want and not big.full


def test_truncated_tree_cap_exact():
    g = gen_random(25, 60, 4, seed=2, connected=True)
    t = truncated_bfs(g, frozenset(g.color_classes()[0]), 3, cap=5)
    assert t.full and len(t.vertices) == 5


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_uncapped_walk_spans_the_component_of_g_minus_c(mode):
    # in vertex mode an edge of c's class reaches a c-colored vertex, which
    # the walk from a live vertex must not enter
    cases = 0
    for s in range(10):
        g = gen_random(18, 30, 4, seed=s, mode=mode, simple=False)
        classes = g.color_classes()
        for c in range(g.C):
            part = brute_force_partition(g, {c})
            for v in range(g.n):
                if part[v] is None:
                    continue
                t = truncated_bfs(g, frozenset(classes[c]), v, cap=g.n + 1)
                assert sorted(t.vertices) == [x for x in range(g.n) if part[x] == part[v]]
                assert not t.full
                cases += 1
    assert cases > 500


@pytest.mark.parametrize("origin", [-1, 12])
def test_truncated_bfs_rejects_origin_out_of_range(origin):
    # from -1 the walk read vertex 11's neighbours and listed -1 as a tree vertex
    g = gen_random(12, 24, 4, seed=1, connected=True)
    with pytest.raises(GraphError, match=f"origin {origin} out of range"):
        truncated_bfs(g, frozenset(), origin, 3)


# -- labels ----------------------------------------------------------------------


def test_label_contents_path_aba():
    ls = label_two_fault(PATH_ABA)
    l2 = ls.vertex_labels[2]
    assert set(l2.entries) == {0, 1}
    # G-a has components {0}, {1,2}, {3}; G-b has {0,1}, {2,3}
    assert l2.entries[0].cid_minus_c == 1
    assert l2.entries[1].cid_minus_c == 2
    assert l2.root_id == 0


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_one_sweep_requests_exactly_the_stored_pairs(mode, monkeypatch):
    # every (fault set, vertex) the sweep answers is stored in some label, and
    # every stored cid is the sweep's answer: {c} for cid(v, G-c), {c, d} else
    calls = []
    sweep = two_fault.cids_after_faults
    monkeypatch.setattr(two_fault, "cids_after_faults",
                        lambda g, wanted: calls.append((wanted, sweep(g, wanted))) or calls[-1][1])
    ls = label_two_fault(gen_random(40, 70, 8, seed=9, mode=mode))
    stored = []  # (fault set, vertex, stored cid)
    for lbl in ls.vertex_labels:
        for c, e in lbl.entries.items():
            stored.append((frozenset((c,)), lbl.vertex, e.cid_minus_c))
            stored += [(frozenset((c, d)), lbl.vertex, cid) for d, cid in e.pair_cids.items()]
    for lbl in ls.color_labels:
        stored += [(frozenset((lbl.color, d)), u, cid) for (u, d), cid in lbl.pairs.items()]
    assert len(calls) == 1
    wanted, answers = calls[0]
    assert any(lbl.pairs for lbl in ls.color_labels)
    assert {(F, x) for F, xs in wanted.items() for x in xs} == {(F, x) for F, x, _ in stored}
    assert all(answers[F][x] == cid for F, x, cid in stored)


def test_all_distinct_star_has_no_hitting_set():
    # shallow tree with all-distinct colors: every truncated tree stays below
    # the cap, so the full-tree family is empty and U with it
    g = edge_graph(12, [(0, i, i - 1) for i in range(1, 12)])
    ls = label_two_fault(g)
    assert ls.meta["hitting_set"] == ()
    assert ls.meta["full_trees"] == 0


def _exhaustive_check(g):
    ls = label_two_fault(g)
    colors = range(g.C)
    for c in colors:
        for d in range(c, g.C):
            part = brute_force_partition(g, {c, d})
            for v in range(g.n):
                if part[v] is None:
                    with pytest.raises(RemovedVertexError):
                        derived_cid(ls, v, c, d)
                else:
                    assert derived_cid(ls, v, c, d) == part[v], (v, c, d)
    return ls


def test_exhaustive_small_random_edge_mode():
    for seed in range(10):
        g = gen_random(16, 30, 6, seed=seed, connected=True)
        _exhaustive_check(g)


def test_exhaustive_vertex_mode():
    for seed in range(6):
        g = gen_random(14, 24, 5, seed=seed, mode="vertex")
        _exhaustive_check(g)


def test_exhaustive_disconnected_and_structured():
    _exhaustive_check(edge_graph(7, [(0, 1, 0), (1, 2, 1), (4, 5, 0), (5, 6, 2)], C=3))
    _exhaustive_check(gen_path(15, coloring="uniform", C=4, seed=3))
    _exhaustive_check(gen_random(14, 40, 5, seed=4, simple=False))


def test_pair_query_examples():
    ls = label_two_fault(PATH_ABA)
    assert query_two_fault_ids(ls, 1, 1, 0, 1)
    assert not query_two_fault_ids(ls, 0, 3, 0, 1)
    assert not query_two_fault_ids(ls, 0, 3, 1, 1)
    assert query_two_fault_ids(ls, 2, 3, 1, 1)


def derive_case(ls: LabelSet, v: int, c: int, d: int) -> int:
    """Which of ``_derive_cid``'s five cases answers for v, or 0 if v is removed."""
    lv = ls.vertex_labels[v]
    if lv.own_color is not None and lv.own_color in (c, d):
        return 0
    if c not in lv.entries and d not in lv.entries:
        return 1  # neither color on T[s,v]: the root
    if c not in lv.entries:
        c, d = d, c
    entry = lv.entries[c]
    if d in entry.pair_cids:
        return 2  # the truncated tree's pair cid
    if not entry.full:
        return 3  # the small tree's cid(v, G-c)
    if (entry.rep, c) in ls.color_labels[d].pairs or (entry.rep, d) in ls.color_labels[c].pairs:
        return 4  # the representative's pair cid from a color label
    return 5  # neither color on T[s,rep]: the root


def outcome(fn, *args):
    """The answer, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: see the callers
        return type(exc), str(exc)


def two_read_offs(ls: LabelSet, u: int, v: int, c: int, d: int) -> bool:
    """The pair answer from ``_derive_cid`` on both sides, u checked before v."""
    cu = derived_cid(ls, u, c, d)
    if u == v:
        return True
    return cu == derived_cid(ls, v, c, d)


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_pair_entry_matches_two_read_offs(mode):
    # every ordered pair, u == v and c == d included, on a graph where each of
    # _derive_cid's five cases fires (and, in vertex mode, removed vertices)
    g = gen_random(18, 30, 6, seed=0, mode=mode, connected=True)
    ls = label_two_fault(g)
    fired = set()
    for c in range(g.C):
        for d in range(g.C):
            fired.update(derive_case(ls, v, c, d) for v in range(g.n))
            for u in range(g.n):
                for v in range(g.n):
                    want = outcome(two_read_offs, ls, u, v, c, d)
                    assert outcome(query_two_fault_ids, ls, u, v, c, d) == want, (u, v, c, d)
    assert fired >= {1, 2, 3, 4, 5}
    assert (0 in fired) == (mode == "vertex")


def test_pair_entry_skips_derive_cid_when_neither_side_holds_a_color(monkeypatch):
    # the entry answers _derive_cid's first case itself; the query's latency
    # rests on that, and no answer would change if the shortcut went
    ls = label_two_fault(gen_random(18, 30, 6, seed=0, connected=True))
    calls = []

    def counted(*args):
        calls.append(args)
        return _derive_cid(*args)

    monkeypatch.setattr(two_fault, "_derive_cid", counted)
    held = [set(lbl.entries) for lbl in ls.vertex_labels]
    shortcut = [(u, v, c, d) for u in range(ls.n) for v in range(ls.n) if u != v
                for c in range(ls.C) for d in range(ls.C) if not {c, d} & (held[u] | held[v])]
    held_by_u = [(u, v, c, d) for u in range(ls.n) for v in range(ls.n) if u != v
                 for c in range(ls.C) for d in range(ls.C)
                 if c in held[u] and not {c, d} & held[v]]
    assert shortcut and held_by_u
    for u, v, c, d in shortcut:
        query_two_fault_ids(ls, u, v, c, d)
    assert calls == []
    for u, v, c, d in held_by_u[:50]:
        query_two_fault_ids(ls, u, v, c, d)
    assert len(calls) == 50
    assert all(args[0] is ls.vertex_labels[u] for args, (u, *_) in zip(calls, held_by_u))


def test_small_tree_case_soundness():
    # when the truncated tree is small and d is outside it, the single-fault cid
    # is reused; check that against brute force explicitly
    for seed in range(6):
        g = gen_random(18, 34, 6, seed=seed + 60, connected=True)
        ls = label_two_fault(g)
        for v in range(g.n):
            for c, entry in ls.vertex_labels[v].entries.items():
                if entry.full:
                    continue
                for d in range(g.C):
                    if d in entry.pair_cids or d == c:
                        continue
                    part = brute_force_partition(g, {c, d})
                    assert part[v] == entry.cid_minus_c


def test_label_size_bound():
    for seed in range(8):
        g = gen_random(30, 60, 8, seed=seed, connected=True)
        ls = label_two_fault(g)
        D = max(ls.meta["depth"], 1)
        bound = 3 * D * (math.sqrt(g.n) + D) * id_width(g.n) * width_for(max(g.C, 2))
        assert ls.max_label_bits() <= bound


def test_entry_counts_respect_structure():
    for mode in ("edge", "vertex"):
        g = gen_random(40, 80, 8, seed=11, mode=mode, connected=True)
        ls = label_two_fault(g)
        cap = ls.meta["cap"]
        D = max(ls.meta["depth"], 1)
        U = ls.meta["hitting_set"]
        full = 0
        for lbl in ls.vertex_labels:
            assert len(lbl.entries) <= D
            for c, e in lbl.entries.items():
                assert len(e.pair_cids) <= cap
                if not e.full:
                    continue
                # the query reads rep's pair cids from c's color label
                full += 1
                rep = ls.vertex_labels[e.rep]
                assert e.rep in U and rep.own_color != c
                assert all((e.rep, d) in ls.color_labels[c].pairs for d in rep.entries)
        assert full, mode
        for lbl in ls.color_labels:
            assert len(lbl.pairs) <= len(U) * D


def test_label_size_d_sqrt_n():
    # the paper's O~(diam * sqrt n) bits: at most D * sqrt(n) ids and colors
    graphs = [gen_path(n) for n in (32, 64, 128)] + [gen_grid(a, a) for a in (8, 12)]
    graphs += [gen_random(30, 60, 8, seed=seed, connected=True) for seed in range(8)]
    graphs.append(gen_random(30, 60, 8, seed=0, mode="vertex", connected=True))
    for g in graphs:
        ls = label_two_fault(g)
        D = max(ls.meta["depth"], 1)
        bound = D * math.sqrt(g.n) * id_width(g.n) * width_for(max(g.C, 2))
        assert ls.max_label_bits() <= bound, (g.n, g.m, g.mode)


# (max, total) label bits and the hitting set of label_two_fault on
# gen_random(40, 70, 8, seed=9).  The hitting sets date from before the pair
# cids came from one fault-set sweep; the sizes were re-recorded when vertex
# labels stopped copying the representative's pair cids from the color label.
PINNED = {
    "edge": ((236, 6239), (2, 4, 5, 8, 12, 17)),
    "vertex": ((216, 5594), (3, 4, 8, 12, 17)),
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_outputs_pinned(mode):
    ls = label_two_fault(gen_random(40, 70, 8, seed=9, mode=mode))
    sizes = ls.vertex_bits() + ls.color_bits()
    assert ((max(sizes), sum(sizes)), ls.meta["hitting_set"]) == PINNED[mode]
