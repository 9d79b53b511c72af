import dataclasses
import hashlib
import random

import pytest

from colorfault.generators import gen_path, gen_random
from colorfault.graph import edge_graph
from colorfault.oracle import brute_force_partition
from colorfault.sketch import (
    SchemeMismatchError,
    build_edge_fault_labels,
    decode_cut_edge,
    fold_sketch,
    query_edge_fault,
)


def cell_at(params, packed, level):
    return (packed >> (params.cell_bits * level)) & ((1 << params.cell_bits) - 1)


def test_single_edge_level0_cells_match():
    g = edge_graph(2, [(0, 1, 0)])
    labels = build_edge_fault_labels(g, seed=1)
    p = labels.params
    for r in range(p.repetitions):
        c0 = cell_at(p, labels.vertex_labels[0].reps[r], 0)
        c1 = cell_at(p, labels.vertex_labels[1].reps[r], 0)
        assert c0 == c1 == labels.edge_labels[0].name


def test_level0_xor_of_all_vertices_is_zero():
    g = gen_random(12, 30, 3, seed=5)
    labels = build_edge_fault_labels(g, seed=2)
    folded = fold_sketch(labels, range(g.n))
    assert all(x == 0 for x in folded)


def test_decoded_cut_edges_are_genuine():
    rng = random.Random(7)
    g = gen_random(14, 30, 3, seed=9)
    labels = build_edge_fault_labels(g, seed=3)
    for _ in range(50):
        S = {v for v in range(g.n) if rng.random() < 0.5}
        if not S or len(S) == g.n:
            continue
        hit = decode_cut_edge(labels.params, fold_sketch(labels, S), frozenset())
        cut = {
            eid
            for eid, (u, v) in enumerate(g.edges)
            if (u in S) != (v in S)
        }
        if hit is not None:
            u, v, eid = hit
            assert eid in cut
            assert tuple(sorted(g.edges[eid])) == (u, v)
        else:
            assert not cut  # only edgeless cuts may fail to decode


def test_linearity_fold_equals_scratch_on_cut():
    # folding sketches of S equals sketching the contracted vertex: same cells
    g = gen_random(8, 14, 2, seed=11)
    labels = build_edge_fault_labels(g, seed=4)
    p = labels.params
    for bits in range(1, 2**g.n - 1):
        S = {v for v in range(g.n) if bits >> v & 1}
        folded = fold_sketch(labels, S)
        expect = [0] * p.repetitions
        for eid, (u, v) in enumerate(g.edges):
            if (u in S) != (v in S):
                for r in range(p.repetitions):
                    expect[r] ^= labels.edge_labels[eid].contrib[r]
        assert list(folded) == expect


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
                uf = {x: x for x in range(g.n)}

                def find(x):
                    while uf[x] != x:
                        x = uf[x]
                    return x

                for eid, a, b in witness:
                    assert eid not in faults
                    assert tuple(sorted(g.edges[eid])) == (a, b)
                    uf[find(a)] = find(b)
                assert find(u) == find(v)
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
    for lbl in labels.vertex_labels:
        assert lbl.bits == p.id_bits + 64 + p.repetitions * p.levels * p.cell_bits
    for lbl in labels.edge_labels.values():
        assert lbl.bits == p.cell_bits + p.repetitions * p.levels


def test_membership_reproducible_from_seed():
    g = gen_random(10, 18, 3, seed=33)
    labels = build_edge_fault_labels(g, seed=10)
    p = labels.params
    for eid, lbl in labels.edge_labels.items():
        assert lbl.level_per_rep == tuple(
            p.edge_level(r, eid) for r in range(p.repetitions)
        )


def test_parse_name_rejects_self_loop_names():
    # a checksum-valid cell naming a self-loop can only be a false positive
    p = build_edge_fault_labels(gen_path(5), seed=14).params
    assert p.parse_name(p.edge_name(1, 2, 1)) == (1, 2, 1)
    assert p.parse_name(p.edge_name(3, 3, 1)) is None


def test_first_hit_is_the_fault_free_decode():
    g = gen_random(30, 70, 4, seed=41)
    labels = build_edge_fault_labels(g, seed=12)
    for lbl in labels.vertex_labels:
        assert lbl.first_hit == decode_cut_edge(labels.params, lbl.reps, frozenset())


def test_faulting_a_first_hit_edge_redecodes():
    # A genuine first_hit edge is incident to its vertex, so faulting it makes
    # the vertex a patched fault endpoint that decodes its patched sketch.
    g = gen_random(30, 70, 4, seed=43)
    labels = build_edge_fault_labels(g, seed=13)
    rng = random.Random(5)
    hits = sorted({lbl.first_hit[2] for lbl in labels.vertex_labels if lbl.first_hit})
    assert hits
    for eid in hits:
        faults = {eid} | set(rng.sample(range(g.m), 2))
        truth = brute_force_partition(edge_graph(g.n, [
            (a, b, 0) for e, (a, b) in enumerate(g.edges) if e not in faults]))
        for u in range(g.n):
            got = query_edge_fault(labels, labels.vertex_labels[u], labels.vertex_labels[0],
                                   [labels.edge_labels[e] for e in faults])
            assert got == (truth[u] == truth[0])
    # A memo naming a faulty edge away from its vertex (only a checksum false
    # positive could) must be decoded again, never followed.
    x = 0
    eid = next(e for e, (a, b) in enumerate(g.edges) if x not in (a, b))
    fake = dataclasses.replace(labels.vertex_labels[x], first_hit=(*g.edges[eid], eid))
    forged = dataclasses.replace(labels, vertex_labels=(fake, *labels.vertex_labels[1:]))
    faults = [labels.edge_labels[eid]]
    for v in range(1, g.n):
        got, witness = query_edge_fault(forged, fake, forged.vertex_labels[v], faults,
                                        want_witness=True)
        assert all(e != eid for e, _a, _b in witness)
        assert got == query_edge_fault(labels, labels.vertex_labels[x], labels.vertex_labels[v],
                                       faults)


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


# Recorded before singleton decodes were memoized and only fault endpoints
# patched; two repetitions make some connected pairs read "disconnected".
PINNED = {
    2: (159, "42f653dc8c0ee68c5ab65cb8433c9258051e413574b2b11c35bd98abe557870b"),
    24: (271, "40ceeea172ddaff88abf1588b70eac40a982ee798461589d62f8c6c77d8f2bcb"),
}


@pytest.mark.parametrize("repetitions", sorted(PINNED))
def test_answers_pinned(repetitions):
    assert pinned_edge_fault_answers(repetitions) == PINNED[repetitions]
