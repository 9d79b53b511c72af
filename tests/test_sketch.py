import dataclasses
import hashlib
import random
from operator import xor

import pytest

from colorfault import multi_fault
from colorfault.generators import gen_path, gen_random
from colorfault.graph import (
    UnionFind,
    edge_graph,
    orient_forest,
    preorder,
    spanning_forest,
)
from colorfault.oracle import brute_force_partition
from colorfault.sketch import (
    _CHECKSUM_SALT,
    _LEVEL_SALT,
    CHECKSUM_BITS,
    EdgeSketchLabel,
    EdgeFaultLabels,
    SchemeMismatchError,
    SketchParams,
    TreeParts,
    VertexSketchLabel,
    _hash_fields,
    build_edge_fault_labels,
    decode_cut_edge,
    query_edge_fault,
)


def cell_at(params, packed, level):
    return (packed >> (params.cell_bits * level)) & ((1 << params.cell_bits) - 1)


def vertex_of_pre(labels):
    """Vertex id of each pre-order number, read through the vertex labels."""
    out = [0] * labels.n
    for x, lbl in enumerate(labels.vertex_labels):
        out[lbl.pre] = x
    return out


def cut_sketch(labels, g, S):
    """The sketch of vertex set S, from scratch: XOR of its cut edges' contributions."""
    acc = [0] * labels.params.repetitions
    for eid, (a, b) in enumerate(g.edges):
        if (a in S) != (b in S):
            acc = list(map(xor, acc, labels.edge_labels[eid].contrib))
    return acc


def tree_edges(labels):
    return [lbl for lbl in labels.edge_labels.values() if lbl.lower is not None]


def assert_certified(g, labels, u, v, faults, witness):
    """Witness edges are real and non-faulty, and with T - F they join u and v."""
    vertex_of = vertex_of_pre(labels)
    uf = UnionFind(g.n)
    for eid, a, b in witness:
        assert eid not in faults
        assert sorted(g.edges[eid]) == sorted((vertex_of[a], vertex_of[b]))
        uf.union(*g.edges[eid])
    for lbl in tree_edges(labels):
        if lbl.eid not in faults:
            uf.union(*g.edges[lbl.eid])
    assert uf.connected(u, v)


def test_single_edge_level0_cells_match():
    g = edge_graph(2, [(0, 1, 0)])
    labels = build_edge_fault_labels(g, seed=1)
    p = labels.params
    tree_edge = labels.edge_labels[0]
    assert [lbl.pre for lbl in labels.vertex_labels] == [0, 1]
    assert tree_edge.lower == (1, 1)  # vertex 1's subtree sketch is the edge's contribution
    for r in range(p.repetitions):
        assert cell_at(p, tree_edge.subtree[r], 0) == tree_edge.name


def test_level0_xor_of_all_vertices_is_zero():
    # cutting every tree edge leaves one part per vertex; a whole tree's sketch is zero
    g = gen_random(12, 30, 3, seed=5)
    labels = build_edge_fault_labels(g, seed=2)
    for tree in {lbl.tree for lbl in labels.vertex_labels}:
        cuts = [e for e in tree_edges(labels) if tree[0] <= e.lower[0] < tree[1]]
        parts = TreeParts(tree, cuts, labels.params.repetitions)
        assert len(parts.keys) == tree[1] - tree[0]
        total = [0] * labels.params.repetitions
        for i in range(len(parts.keys)):
            total = list(map(xor, total, parts.folds(i)))
        assert all(x == 0 for x in total)


def test_decoded_cut_edges_are_genuine():
    rng = random.Random(7)
    g = gen_random(14, 30, 3, seed=9)
    labels = build_edge_fault_labels(g, seed=3)
    vertex_of = vertex_of_pre(labels)
    for _ in range(50):
        S = {v for v in range(g.n) if rng.random() < 0.5}
        if not S or len(S) == g.n:
            continue
        hit = decode_cut_edge(labels.params, cut_sketch(labels, g, S), frozenset())
        cut = {
            eid
            for eid, (u, v) in enumerate(g.edges)
            if (u in S) != (v in S)
        }
        if hit is not None:
            a, b, eid = hit
            assert eid in cut
            assert sorted(g.edges[eid]) == sorted((vertex_of[a], vertex_of[b]))
        else:
            assert not cut  # only edgeless cuts may fail to decode


def test_part_sketches_fold_their_members():
    # each part is a component of T minus the cut edges, and its sketch is its
    # members' sketch computed from scratch
    rng = random.Random(11)
    for trial in range(6):
        g = gen_random(20, 40, 3, seed=50 + trial)
        labels = build_edge_fault_labels(g, seed=trial)
        tedges = tree_edges(labels)
        for _ in range(10):
            cut = rng.sample(tedges, rng.randrange(0, len(tedges) + 1))
            cut_ids = {lbl.eid for lbl in cut}
            rest = UnionFind(g.n)
            for lbl in tedges:
                if lbl.eid not in cut_ids:
                    rest.union(*g.edges[lbl.eid])
            for tree in {lbl.tree for lbl in labels.vertex_labels}:
                parts = TreeParts(tree, [e for e in cut if tree[0] <= e.lower[0] < tree[1]],
                                  labels.params.repetitions)
                members = [set() for _ in parts.keys]
                for x, lbl in enumerate(labels.vertex_labels):
                    if lbl.tree == tree:
                        members[parts.part_of(lbl.pre)].add(x)
                for part, S in enumerate(members):
                    assert len({rest.find(x) for x in S}) == 1
                    assert list(parts.folds(part)) == cut_sketch(labels, g, S)
                assert len({rest.find(x) for S in members for x in S}) == len(members)


def test_path_middle_fault_disconnects():
    g = gen_path(3, coloring="uniform", C=1)
    labels = build_edge_fault_labels(g, seed=5)
    lu, lv = labels.vertex_labels[0], labels.vertex_labels[2]
    assert not query_edge_fault(labels, lu, lv, [labels.edge_labels[1]])
    assert query_edge_fault(labels, lu, lv, [])


def test_no_fault_matches_plain_connectivity():
    g = gen_random(16, 22, 3, seed=13)
    labels = build_edge_fault_labels(g, seed=6)
    truth = brute_force_partition(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            got = query_edge_fault(
                labels, labels.vertex_labels[u], labels.vertex_labels[v], []
            )
            assert got == (truth[u] == truth[v])


def test_random_fault_sets_against_brute_force():
    rng = random.Random(99)
    agree = 0
    total = 0
    witnessed = 0  # connected answers that needed merge edges
    for trial in range(40):
        g = gen_random(12, 22, 3, seed=100 + trial)
        labels = build_edge_fault_labels(g, seed=trial)
        for _ in range(25):
            faults = rng.sample(range(g.m), rng.randrange(0, g.m // 2 + 1))
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            got, witness = query_edge_fault(
                labels,
                labels.vertex_labels[u],
                labels.vertex_labels[v],
                [labels.edge_labels[e] for e in faults],
                want_witness=True,
            )
            # structural certification of every "connected" answer
            if got:
                assert_certified(g, labels, u, v, faults, witness)
                witnessed += bool(witness)
            else:
                assert witness == []
            # agreement statistics
            alive = [
                (e, a, b)
                for e, (a, b) in enumerate(g.edges)
                if e not in faults and a != b
            ]
            ufp = {x: x for x in range(g.n)}

            def findp(x):
                while ufp[x] != x:
                    x = ufp[x]
                return x

            for _e, a, b in alive:
                ufp[findp(a)] = findp(b)
            total += 1
            agree += got == (findp(u) == findp(v))
    assert agree / total >= 0.99
    assert witnessed > total // 4  # the certification above is not vacuous


def test_seed_mismatch_rejected():
    g = gen_path(4, coloring="uniform", C=1)
    l1 = build_edge_fault_labels(g, seed=1)
    l2 = build_edge_fault_labels(g, seed=2)
    with pytest.raises(SchemeMismatchError):
        query_edge_fault(l1, l2.vertex_labels[0], l1.vertex_labels[1], [])
    with pytest.raises(SchemeMismatchError):
        query_edge_fault(l1, l1.vertex_labels[0], l1.vertex_labels[1], [l2.edge_labels[0]])


def test_self_loops_are_inert():
    g = edge_graph(3, [(0, 0, 0), (0, 1, 0), (1, 2, 0)])
    labels = build_edge_fault_labels(g, seed=8)
    assert all(c == 0 for c in labels.edge_labels[0].contrib)
    assert query_edge_fault(
        labels, labels.vertex_labels[0], labels.vertex_labels[2], []
    )


def test_label_bit_accounting():
    g = gen_random(16, 30, 3, seed=21)
    labels = build_edge_fault_labels(g, seed=9)
    p = labels.params
    cells = p.repetitions * p.levels * p.cell_bits
    assert p.sketch_bits == p.id_bits + 64 + cells
    for lbl in labels.vertex_labels:
        assert lbl.bits == 3 * p.id_bits + 64
    for lbl in labels.edge_labels.values():
        tree_part = 0 if lbl.lower is None else 2 * p.id_bits + cells
        assert lbl.bits == p.cell_bits + p.repetitions * p.levels + tree_part
    assert len(tree_edges(labels)) == g.n - 1  # gen_random is connected here


# -- the per-cell reference build -------------------------------------------------


def edge_level(params, rep, eid):
    """Deepest sampling level of the edge: trailing zeros of its three-round hash, capped."""
    h = _hash_fields(params.seed ^ _LEVEL_SALT, rep, eid) | (1 << 63)
    return min((h & -h).bit_length() - 1, params.levels - 1)


def _edge_contributions(params, name, level_per_rep):
    w = params.cell_bits
    out = []
    for level in level_per_rep:
        acc = 0
        for i in range(level + 1):
            acc |= name << (w * i)
        out.append(acc)
    return tuple(out)


def reference_build(g, seed, repetitions=24, order=None):
    """``build_edge_fault_labels`` one hash per cell and one contribution per repetition."""
    n = g.n
    eids = list(range(g.m)) if order is None else list(order)
    params = SketchParams.create(n, max(eids, default=-1) + 1, seed, repetitions)
    t, L, w = params.repetitions, params.levels, params.cell_bits
    parent, parent_edge = orient_forest(g, spanning_forest(g, eids))
    order, pre, end = preorder(parent)
    tree = [(0, 0)] * n
    for x in order:
        p = parent[x]
        tree[x] = (pre[x], end[x]) if p is None else tree[p]
    ebits = params.cell_bits + t * L
    tree_bits = 2 * params.id_bits + t * L * w
    acc = [[0] * t for _ in range(n)]
    edge_labels = {}
    for eid in eids:
        u, v = g.edges[eid]
        name = params.edge_name(pre[u], pre[v], eid)
        levels = tuple(edge_level(params, r, eid) for r in range(t))
        contrib = _edge_contributions(params, name, levels) if u != v else (0,) * t
        edge_labels[eid] = EdgeSketchLabel(
            eid=eid, scheme_id=params.scheme_id, name=name, level_per_rep=levels,
            endpoints=tuple(sorted((pre[u], pre[v]))), contrib=contrib, bits=ebits,
        )
        if u != v:
            acc[u] = list(map(xor, acc[u], contrib))
            acc[v] = list(map(xor, acc[v], contrib))
    for x in reversed(order):
        p = parent[x]
        if p is not None:
            acc[p] = list(map(xor, acc[p], acc[x]))
            eid = parent_edge[x]
            edge_labels[eid] = dataclasses.replace(
                edge_labels[eid], lower=(pre[x], end[x] - pre[x]),
                subtree=tuple(acc[x]), bits=ebits + tree_bits)
    vbits = 3 * params.id_bits + 64
    vertex_labels = tuple(VertexSketchLabel(pre[x], tree[x], params, vbits) for x in range(n))
    return EdgeFaultLabels("edge-fault-sketch", params, vertex_labels, edge_labels)


def zipf_graph(n, m, C, seed, mode="edge"):
    """``gen_random``'s edges under a Zipf(1.3) palette, as the skewed benchmark draws it."""
    g = gen_random(n, m, C, seed=seed, mode=mode)
    rng = random.Random(seed)
    weights = [1 / (k + 1) ** 1.3 for k in range(C)]
    colors = tuple(rng.choices(range(C), weights, k=g.m if mode == "edge" else n))
    if mode == "edge":
        return dataclasses.replace(g, edge_colors=colors)
    return dataclasses.replace(g, vertex_colors=colors)


REFERENCE_GRAPHS = {
    "zipf": lambda s: (zipf_graph(60, 150, 12, seed=s), None),
    "vertex": lambda s: (zipf_graph(50, 110, 6, seed=s, mode="vertex"), None),
    "loops-parallel": lambda s: (
        edge_graph(6, [(0, 1, 0), (0, 1, 1), (1, 1, 2), (1, 2, 0), (2, 2, 1), (2, 3, 2),
                       (3, 4, 0), (3, 4, 0), (4, 5, 1), (5, 0, 2), (5, 5, 0)]), None),
    "disconnected": lambda s: (gen_random(40, 30, 4, seed=s), None),
    "path": lambda s: (gen_path(70, coloring="uniform", C=5, seed=s), None),
    "order": lambda s: (gen_random(30, 70, 5, seed=s),
                        random.Random(s).sample(range(70), 70)),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", sorted(REFERENCE_GRAPHS))
def test_build_matches_per_cell_reference(kind, seed):
    source, order = REFERENCE_GRAPHS[kind](seed)
    for sketch_seed, reps in ((seed, 24), (seed + 40, 5)):
        got = build_edge_fault_labels(source, seed=sketch_seed, repetitions=reps, order=order)
        want = reference_build(source, seed=sketch_seed, repetitions=reps, order=order)
        assert list(got.edge_labels) == list(want.edge_labels)
        for eid, lbl in got.edge_labels.items():
            ref = want.edge_labels[eid]
            assert lbl.level_per_rep == ref.level_per_rep
            assert (lbl.contrib, lbl.endpoints, lbl.bits) == (ref.contrib, ref.endpoints, ref.bits)
            assert (lbl.lower, lbl.subtree) == (ref.lower, ref.subtree)
            # one int object per distinct level of the edge
            by_level = {}
            for level, cell in zip(lbl.level_per_rep, lbl.contrib):
                assert by_level.setdefault(level, cell) is cell
        assert [l.bits for l in got.vertex_labels] == [l.bits for l in want.vertex_labels]
        assert got == want
        same_repr = repr(got) == repr(want)  # a bool: a diff of two such reprs takes minutes
        assert same_repr


def test_membership_reproducible_from_seed():
    g = gen_random(10, 18, 3, seed=33)
    labels = build_edge_fault_labels(g, seed=10)
    p = labels.params
    for eid, lbl in labels.edge_labels.items():
        assert lbl.level_per_rep == tuple(
            edge_level(p, r, eid) for r in range(p.repetitions)
        )


def test_parse_name_rejects_self_loop_names():
    # a checksum-valid cell naming a self-loop can only be a false positive
    p = build_edge_fault_labels(gen_path(5), seed=14).params
    assert p.parse_name(p.edge_name(1, 2, 1)) == (1, 2, 1)
    assert p.parse_name(p.edge_name(3, 3, 1)) is None


@pytest.mark.parametrize("repetitions, checksum_bits", [(0, 32), (-1, 32)])
def test_params_reject_empty_sketches_and_checksums(repetitions, checksum_bits):
    # repetitions=-1 gave a negative label size; the checksum width is fixed,
    # since with none any in-range cell decodes and a query may answer "connected"
    assert CHECKSUM_BITS == checksum_bits
    with pytest.raises(ValueError):
        SketchParams.create(10, 20, 1, repetitions=repetitions)
    with pytest.raises(ValueError):
        build_edge_fault_labels(gen_path(5), seed=1, repetitions=repetitions)


@pytest.mark.parametrize("n, m, seed, t", [(0, 0, 0, 1), (2, 1, 0, 1), (60, 150, 14, 5),
                                         (384, 768, 5, 24), (1000, 4096, -5, 24)])
def test_params_pin_the_fixed_checksum(n, m, seed, t):
    p = SketchParams.create(n, m, seed, t)
    assert p.checksum_bits == CHECKSUM_BITS == 32
    assert p.cell_bits == 2 * p.id_bits + p.eid_bits + 32
    assert p.scheme_id == _hash_fields(seed, n, m, t, 32)


def test_scheme_ids_are_pinned():
    # a change to the checksum width or to the id hash moves these
    assert SketchParams.create(384, 768, 5, 24).scheme_id == 0x7A27818B78DDAF8A
    assert SketchParams.create(2, 1, 0, 1).scheme_id == 0x5BFD0A2F0C7C16AE


def test_checksum_matches_hash_fields():
    # the checksum continues from the seed-only first hash round computed once
    rng = random.Random(3)
    for seed in (0, 14, -5, 2**64 + 9):
        p = build_edge_fault_labels(gen_path(5), seed=seed).params
        mask = (1 << p.checksum_bits) - 1
        for _ in range(200):
            a, b, eid = rng.randrange(2**20), rng.randrange(2**20), rng.randrange(2**20)
            assert p.checksum(a, b, eid) == _hash_fields(seed ^ _CHECKSUM_SALT, a, b, eid) & mask


def test_faulting_tree_edges_matches_brute_force():
    # every tree edge faulted in turn, with two more random faults
    g = gen_random(30, 70, 4, seed=43)
    labels = build_edge_fault_labels(g, seed=13)
    rng = random.Random(5)
    for tree_edge in tree_edges(labels):
        faults = {tree_edge.eid} | set(rng.sample(range(g.m), 2))
        truth = brute_force_partition(edge_graph(g.n, [
            (a, b, 0) for e, (a, b) in enumerate(g.edges) if e not in faults]))
        for u in range(g.n):
            got, witness = query_edge_fault(
                labels, labels.vertex_labels[u], labels.vertex_labels[0],
                [labels.edge_labels[e] for e in faults], want_witness=True)
            assert got == (truth[u] == truth[0])
            if got:
                assert_certified(g, labels, u, 0, faults, witness)


def test_query_reads_only_the_given_labels():
    g = gen_random(30, 60, 4, seed=45)
    labels = build_edge_fault_labels(g, seed=15)
    bare = dataclasses.replace(labels, vertex_labels=(), edge_labels={})
    rng = random.Random(8)
    for _ in range(200):
        faults = [labels.edge_labels[e] for e in rng.sample(range(g.m), rng.randrange(0, 12))]
        lu, lv = (labels.vertex_labels[x] for x in rng.sample(range(g.n), 2))
        assert query_edge_fault(bare, lu, lv, faults, want_witness=True) == query_edge_fault(
            labels, lu, lv, faults, want_witness=True)


def eager_query_edge_fault(labels, lu, lv, faulty, want_witness=False):
    """The query with every part's full sketch folded before the first decode.

    The reference for the lazy parts of ``query_edge_fault``: each part's
    t-list is its top's subtree sketch XOR its cut children's, every crossing
    faulty edge's ``contrib`` is XORed into both its parts, and each Borůvka
    round decodes every part before it applies any merge.
    """
    params = labels.params
    faults = {fl.eid: fl for fl in faulty}
    if lu.tree != lv.tree:
        return (False, []) if want_witness else False
    lo, hi = lu.tree
    cuts = sorted((fl for fl in faults.values() if fl.lower is not None and lo <= fl.lower[0] < hi),
                  key=lambda lbl: lbl.lower)
    parts = TreeParts(lu.tree, cuts, params.repetitions)  # the part structure only
    part_of = parts.part_of
    sketches = [[0] * params.repetitions] + [list(lbl.subtree) for lbl in cuts]
    for i, lbl in enumerate(cuts, 1):
        sketches[parts.up[i]] = list(map(xor, sketches[parts.up[i]], lbl.subtree))
    for fl in faults.values():
        a, b = fl.endpoints
        if lo <= a < hi:
            pa, pb = part_of(a), part_of(b)
            if pa != pb:
                sketches[pa] = list(map(xor, sketches[pa], fl.contrib))
                sketches[pb] = list(map(xor, sketches[pb], fl.contrib))
    pu, pv = part_of(lu.pre), part_of(lv.pre)
    uf = UnionFind(len(sketches))
    witness = []
    roots = range(len(sketches))
    while uf.find(pu) != uf.find(pv):
        merges = []
        for root in roots:
            hit = decode_cut_edge(params, sketches[root], frozenset(faults))
            if hit is None:
                continue
            a, b, eid = hit
            if lo <= a < hi and lo <= b < hi:
                pa, pb = part_of(a), part_of(b)
                if uf.find(pa) != uf.find(pb):
                    merges.append((eid, a, b, pa, pb))
        if not merges:
            return (False, []) if want_witness else False
        for eid, a, b, pa, pb in merges:
            ra, rb = uf.find(pa), uf.find(pb)
            if ra == rb:
                continue
            witness.append((eid, a, b))
            merged = list(map(xor, sketches[ra], sketches[rb]))
            uf.union(ra, rb)
            sketches[uf.find(ra)] = merged
            if uf.find(pu) == uf.find(pv):
                break
        roots = [root for root in roots if uf.find(root) == root]
    return (True, witness) if want_witness else True


@pytest.mark.parametrize("repetitions", [2, 24])
def test_lazy_parts_match_the_eager_fold(repetitions):
    # two repetitions leave many parts undecodable, so "disconnected" answers are exercised too
    rng = random.Random(31)
    answers = set()
    for trial in range(12):
        g = gen_random(24, 48, 3, seed=300 + trial)
        labels = build_edge_fault_labels(g, seed=trial, repetitions=repetitions)
        tedges = [lbl.eid for lbl in tree_edges(labels)]
        for _ in range(40):
            faults = set(rng.sample(range(g.m), rng.randrange(0, g.m // 2 + 1)))
            faults |= set(rng.sample(tedges, rng.randrange(0, 4)))
            fault_labels = [labels.edge_labels[e] for e in faults]
            lu, lv = (labels.vertex_labels[x] for x in rng.sample(range(g.n), 2))
            got = query_edge_fault(labels, lu, lv, fault_labels, want_witness=True)
            assert got == eager_query_edge_fault(labels, lu, lv, fault_labels, want_witness=True)
            answers.add(got[0])
    assert answers == {True, False}


def test_large_f_matches_the_eager_fold(monkeypatch):
    # 3-color faults on a Zipf(1.3) palette, every sketch query also asked of the reference
    calls = []

    def both(labels, lu, lv, faulty, want_witness=False):
        faulty = list(faulty)
        got = query_edge_fault(labels, lu, lv, faulty, want_witness=True)
        assert got == eager_query_edge_fault(labels, lu, lv, faulty, want_witness=True)
        calls.append(got[0])
        return got[0]

    monkeypatch.setattr(multi_fault, "query_edge_fault", both)
    rng = random.Random(37)
    C = 12
    weights = [(k + 1) ** -1.3 for k in range(C)]
    for trial in range(4):
        base = gen_random(40, 100, 1, seed=400 + trial, connected=True)
        colors = rng.choices(range(C), weights, k=base.m)
        g = edge_graph(base.n, [(a, b, c) for (a, b), c in zip(base.edges, colors)], C)
        ls = multi_fault.label_large_f(g, seed=trial)
        for _ in range(50):
            u, v = rng.sample(range(g.n), 2)
            multi_fault.query_large_f_ids(ls, u, v, rng.sample(range(C), 3))
    assert len(calls) == 200 and set(calls) == {True, False}


class Unread(tuple):
    """A sketch row that fails the test when anything reads it."""

    def __getitem__(self, i):
        raise AssertionError("a sketch row was read")

    def __iter__(self):
        raise AssertionError("a sketch row was read")


UNREAD = Unread()


def test_same_part_returns_before_reading_any_row():
    # every edge off u's T-path to v fails, so u and v share a part and the
    # answer needs no sketch: fault labels whose rows raise on any read still
    # answer (with rows of (), an eager fold would pass too, as map stops early)
    g = gen_random(30, 60, 4, seed=47, connected=True)
    labels = build_edge_fault_labels(g, seed=16)
    lu, lv = labels.vertex_labels[0], labels.vertex_labels[1]

    def on_path(lbl):  # a tree edge whose subtree holds exactly one of u and v
        top, size = lbl.lower
        return (top <= lu.pre < top + size) != (top <= lv.pre < top + size)

    faults = [lbl for lbl in labels.edge_labels.values() if lbl.lower is None or not on_path(lbl)]
    parts = TreeParts(lu.tree, [lbl for lbl in faults if lbl.lower is not None],
                      labels.params.repetitions)
    assert len(parts.keys) > 1 and parts.part_of(lu.pre) == parts.part_of(lv.pre)
    bare = [dataclasses.replace(lbl, subtree=UNREAD, contrib=UNREAD) for lbl in faults]
    assert query_edge_fault(labels, lu, lv, bare, want_witness=True) == (True, [])


def pinned_edge_fault_answers(repetitions: int) -> tuple[int, str]:
    """(True count, sha256) of 300 seeded queries on gen_random(40, 90, 5, seed=17)."""
    g = gen_random(40, 90, 5, seed=17)
    labels = build_edge_fault_labels(g, seed=4, repetitions=repetitions)
    rng = random.Random(23)
    answers = []
    for _ in range(300):
        faults = rng.sample(range(g.m), rng.randrange(0, 40))
        u, v = rng.sample(range(g.n), 2)
        answers.append(query_edge_fault(labels, labels.vertex_labels[u], labels.vertex_labels[v],
                                        [labels.edge_labels[e] for e in faults]))
    return sum(answers), hashlib.sha256(bytes(answers)).hexdigest()


# Two repetitions make some connected pairs read "disconnected", so that pin
# depends on the decoder; it was re-recorded when queries moved to tree parts
# (159 True answers before).  With 24 repetitions every answer is brute force's.
PINNED = {
    2: (246, "56c59a37edbfb6b58280c736d5527301656c1a5b39a50175d9410b7b0d3b90aa"),
    24: (271, "40ceeea172ddaff88abf1588b70eac40a982ee798461589d62f8c6c77d8f2bcb"),
}


@pytest.mark.parametrize("repetitions", sorted(PINNED))
def test_answers_pinned(repetitions):
    assert pinned_edge_fault_answers(repetitions) == PINNED[repetitions]
