import itertools
import random

import pytest

from colorfault.encoders import (
    WitnessError,
    colex_subsets,
    encode_balls,
    encode_spider,
    parse_bits,
    spider_capacity,
)
from colorfault.generators import gen_grid, gen_path, gen_tree, gen_wheel
from colorfault.multi_fault import label_recursive, query_recursive_ids
from colorfault.single_fault import build_ruling_set, label_single_fault, query_single_fault
from test_single_fault import ball_packing_exact, find_disjoint_proper_balls


def single_fault_answer(graph):
    ls = label_single_fault(graph)

    def answer(u, v, F):
        (c,) = F
        return query_single_fault(ls.vertex_labels[u], ls.color_labels[c]) == (
            query_single_fault(ls.vertex_labels[v], ls.color_labels[c])
        )

    return answer


# -- balls ---------------------------------------------------------------------


def test_balls_path9_round_trip():
    g = gen_path(9)
    inst = encode_balls(g, [1, 0, 1, 0], centers=[1, 7])
    assert inst.capacity == 4
    assert inst.decode_with_oracle() == [1, 0, 1, 0]


def test_balls_all_zero_is_all_never_failing():
    g = gen_path(9)
    inst = encode_balls(g, [0, 0, 0, 0], centers=[1, 7])
    never = inst.graph.C - 1
    assert all(c == never for c in inst.graph.edge_colors)
    assert inst.decode_with_oracle() == [0, 0, 0, 0]


def test_balls_every_bit_pattern_path9():
    g = gen_path(9)
    for bits in itertools.product((0, 1), repeat=4):
        inst = encode_balls(g, list(bits), centers=[1, 7])
        assert inst.decode_with_oracle() == list(bits)


def test_balls_default_centers_from_certificate():
    # k = 4 on the 9-path: one certified ball, 1 bit; explicit centers [1, 7] carry 4
    g = gen_path(9)
    for bit in (0, 1):
        inst = encode_balls(g, [bit])
        assert inst.capacity == (build_ruling_set(g).k // 4) ** 2 == 1
        assert inst.decode_with_oracle() == [bit]
        assert inst.decode(single_fault_answer(inst.graph)) == [bit]
    with pytest.raises(ValueError, match="need exactly 1 bits"):
        encode_balls(g, [1, 1, 0, 1])


def test_balls_certificate_round_trip_on_grid32():
    # 16 bits (r = 4) on the certificate's default balls, decoded through single labels
    rng = random.Random(32)
    bits = [rng.randrange(2) for _ in range(16)]
    inst = encode_balls(gen_grid(32, 32), bits)
    assert inst.capacity == 16
    assert inst.decode(single_fault_answer(inst.graph)) == bits


def test_balls_scheme_decode_matches():
    rng = random.Random(5)
    for seed in range(10):
        g = gen_tree(rng.randrange(4, 14), seed=seed)
        r = ball_packing_exact(g)
        bits = [rng.randrange(2) for _ in range(r * r)]
        inst = encode_balls(g, bits, centers=find_disjoint_proper_balls(g, r))
        assert inst.capacity == r * r
        assert inst.decode_with_oracle() == bits
        assert inst.decode(single_fault_answer(inst.graph)) == bits


def test_balls_witness_validation():
    g = gen_path(9)
    with pytest.raises(WitnessError):
        encode_balls(g, [1, 0, 1, 0], centers=[1, 2])  # overlapping balls
    with pytest.raises(ValueError):
        encode_balls(g, [1, 0], centers=[1, 7])  # wrong length
    with pytest.raises(ValueError, match="bit string must be 0s and 1s, got 2"):
        encode_balls(g, [2, 2, 2, 2], centers=[1, 7])  # decoded as 1s had it been accepted


# -- spiders ---------------------------------------------------------------------


def test_colex_subsets_order():
    assert colex_subsets(4, 2) == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    ]


def test_spider_capacities():
    assert spider_capacity(1, 2, 2) == 4
    assert spider_capacity(2, 4, 3) == 18
    assert spider_capacity(3, 4, 2) == 8
    with pytest.raises(ValueError, match="need exactly 18 bits, got 17"):
        encode_spider(2, 4, 3, [0] * 17)


def test_spider_f1_round_trip():
    inst = encode_spider(1, 2, 2, [1, 0, 0, 1])
    assert inst.decode_with_oracle() == [1, 0, 0, 1]
    assert inst.decode(single_fault_answer(inst.graph)) == [1, 0, 0, 1]
    with pytest.raises(ValueError, match="bit string must be 0s and 1s, got 2"):
        encode_spider(1, 2, 1, [2, 0])


def test_spider_survivor_property():
    rng = random.Random(2)
    f, q, arms = 2, 4, 3
    M = spider_capacity(f, q, arms) // arms
    bits = [rng.randrange(2) for _ in range(arms * M)]
    inst = encode_spider(f, q, arms, bits)
    subsets = colex_subsets(q, f)
    g = inst.graph
    # group parallel edges by step
    for k in range(arms):
        for l in range(M):
            F = set(subsets[l])
            for l2 in range(M):
                if l2 == l:
                    continue
                a = 0 if l2 == 0 else 1 + k * M + l2 - 1
                b = 1 + k * M + l2
                survivors = [
                    eid
                    for eid, (x, y) in enumerate(g.edges)
                    if {x, y} == {a, b} and g.edge_color(eid) not in F
                ]
                assert survivors, (k, l, l2)


def test_spider_round_trips_all_shapes():
    rng = random.Random(7)
    for f, q, arms in [(1, 2, 2), (2, 4, 3), (3, 4, 2)]:
        cap = spider_capacity(f, q, arms)
        bits = [rng.randrange(2) for _ in range(cap)]
        inst = encode_spider(f, q, arms, bits)
        assert inst.decode_with_oracle() == bits


def test_spider_scheme_decode_f2():
    rng = random.Random(11)
    cap = spider_capacity(2, 4, 3)
    bits = [rng.randrange(2) for _ in range(cap)]
    inst = encode_spider(2, 4, 3, bits)
    ls = label_recursive(inst.graph, f=2, seed=3)
    got = inst.decode(lambda u, v, F: query_recursive_ids(ls, u, v, F))
    agree = sum(a == b for a, b in zip(got, bits))
    assert agree / cap >= 0.99


def test_vertex_subdivided_spider_decodes_through_the_recursive_scheme():
    # the recursive scheme runs on the vertex-colored graph as given
    rng = random.Random(5)
    cap = spider_capacity(2, 8, 16)
    bits = [rng.randrange(2) for _ in range(cap)]
    inst = encode_spider(2, 8, 16, bits, subdivide="vertex")
    ls = label_recursive(inst.graph, f=2, seed=3)
    assert ls.meta["manifest"]["n"] == len(ls.vertex_labels) == inst.graph.n
    assert inst.decode(lambda u, v, F: query_recursive_ids(ls, u, v, F)) == bits


def test_spider_subdivisions_round_trip():
    rng = random.Random(13)
    cap = spider_capacity(2, 4, 2)
    bits = [rng.randrange(2) for _ in range(cap)]
    plain = encode_spider(2, 4, 2, bits)
    for mode in ("edge", "vertex"):
        inst = encode_spider(2, 4, 2, bits, subdivide=mode)
        assert inst.graph.mode == mode
        assert inst.decode_with_oracle() == bits
        # simple planar form: no parallel edges in the edge subdivision
        if mode == "edge":
            seen = set()
            for u, v in inst.graph.edges:
                e = (min(u, v), max(u, v))
                assert e not in seen
                seen.add(e)
    assert plain.decode_with_oracle() == bits


def test_parse_bits():
    assert parse_bits("0101") == [0, 1, 0, 1]
    with pytest.raises(ValueError, match="bit string must be 0s and 1s, got '2'"):
        parse_bits("012")


def test_wheel_generator_matches_stated_shape():
    g = gen_wheel(5)
    from colorfault.graph import bfs

    ecc = max(max(d for _x, _p, _eid, d in bfs(g.adjacency, (v,))) for v in range(g.n))
    assert ecc == 2  # hub keeps the diameter at two
    assert g.m == 8
