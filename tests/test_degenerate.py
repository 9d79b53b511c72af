"""Degenerate inputs: empty graphs, singletons, loop-only graphs, bad ids."""

import pytest

from colorfault.generators import gen_path, gen_random
from colorfault.graph import (
    ColoredGraph,
    GraphError,
    InvalidFaultSetError,
    cids_after_faults,
    parse_graph,
    serialize_graph,
)
from colorfault.multi_fault import (
    build_certificate,
    label_large_f,
    label_recursive,
    query_large_f_ids,
    query_recursive_ids,
)
from colorfault.nca import build_one_fault_oracle
from colorfault.oracle import brute_force_connected, brute_force_partition
from colorfault.reduction import ExactSingleSource, build_all_pairs, query_all_pairs_ids
from colorfault.schemes import SCHEMES, query
from colorfault.single_fault import build_ruling_set, label_single_fault
from colorfault.two_fault import label_two_fault, query_two_fault_ids


EMPTY = ColoredGraph(n=0, mode="edge", edges=(), C=0, edge_colors=())
SINGLETON = ColoredGraph(n=1, mode="edge", edges=(), C=1, edge_colors=())
LOOPY = ColoredGraph(n=2, mode="edge", edges=((0, 0), (1, 1)), C=1,
                     edge_colors=(0, 0))


def test_empty_graph_round_trip():
    assert parse_graph(serialize_graph(EMPTY)) == EMPTY
    assert brute_force_partition(EMPTY) == []
    assert build_ruling_set(EMPTY).k == 1
    ls = label_single_fault(EMPTY)
    assert ls.vertex_labels == () and ls.color_labels == ()


def test_singleton_labels():
    ls = label_single_fault(SINGLETON)
    assert ls.vertex_labels[0].anchor == 0
    assert label_two_fault(SINGLETON).vertex_labels[0].entries == {}
    oracle = build_one_fault_oracle(SINGLETON)
    assert oracle.query(0, 0, 0)


def test_loop_only_graph():
    ls = label_single_fault(LOOPY)
    from colorfault.single_fault import query_single_fault

    assert query_single_fault(ls.vertex_labels[1], ls.color_labels[0]) == 1
    cert = build_certificate(LOOPY)
    assert cert.edge_ids == ()
    rec = label_recursive(LOOPY, f=2, seed=0)
    from colorfault.multi_fault import query_recursive_ids

    assert not query_recursive_ids(rec, 0, 1, {0})
    assert not query_recursive_ids(rec, 0, 1, set())


def test_vertex_mode_singleton():
    g = ColoredGraph(n=1, mode="vertex", edges=(), C=1, vertex_colors=(0,))
    ls = label_single_fault(g)
    from colorfault.graph import RemovedVertexError
    from colorfault.single_fault import query_single_fault

    with pytest.raises(RemovedVertexError):
        query_single_fault(ls.vertex_labels[0], ls.color_labels[0])


PATH9 = gen_path(9)  # unique colors 0..7
ID_QUERIES = {
    "two-fault": (lambda: label_two_fault(PATH9),
                  lambda ls, u, v, F: query_two_fault_ids(ls, u, v, *F)),
    "recursive": (lambda: label_recursive(PATH9, 2, 0), query_recursive_ids),
    "large-f": (lambda: label_large_f(PATH9, 0), query_large_f_ids),
    "all-pairs": (lambda: build_all_pairs(PATH9, 2, ExactSingleSource(2, PATH9.C), 1.0, 0),
                  query_all_pairs_ids),
}


@pytest.mark.parametrize("u, v, F", [
    (-1, 8, (3, 3)), (0, -1, (3, 4)), (0, 9, (3, 4)),
    (0, 8, (-1, 3)), (0, 8, (3, 8)),
])
@pytest.mark.parametrize("name", sorted(ID_QUERIES))
def test_id_queries_reject_out_of_range_ids(name, u, v, F):
    build, ask = ID_QUERIES[name]
    ls = build()
    assert not ask(ls, 0, 8, (3, 4))  # a valid question still answers
    with pytest.raises(GraphError):
        ask(ls, u, v, F)


# the message of a fault set over budget, per scheme with one
OVER_BUDGET = {
    "single": "needs 1..1 faulted colors, got 2",
    "nca": "needs 1..1 faulted colors, got 2",
    "two-diam": "needs 1..2 faulted colors, got 3",
    "multi": "larger than the scheme's budget",
    "all-pairs": "larger than the scheme's budget",
}


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_bad_fault_sets_raise_one_error(name, f):
    # a color outside the palette, too many colors or none at f = 1: one GraphError subclass
    scheme = SCHEMES[name]
    g = gen_random(12, 24, 4, seed=4, connected=True)
    ls = scheme.build(g, f=f, seed=1, repetitions=24)
    with pytest.raises(InvalidFaultSetError, match="color 4 outside palette of size 4"):
        query(ls, 0, 5, [0, 4])
    if name in OVER_BUDGET:  # large-f labels let every color fail
        with pytest.raises(InvalidFaultSetError, match=OVER_BUDGET[name]):
            query(ls, 0, 5, range(scheme.budget(f) + 1))
    if scheme.max_faults is not None or (name, f) == ("multi", 1):
        with pytest.raises(InvalidFaultSetError, match="got 0|needs a faulted color"):
            query(ls, 0, 5, [])
    else:
        assert query(ls, 0, 5, []) == brute_force_connected(g, 0, 5)


def test_id_queries_and_sweeps_raise_one_fault_set_error():
    assert issubclass(InvalidFaultSetError, GraphError)
    over = (1, 2, 3)
    with pytest.raises(InvalidFaultSetError, match="larger than the scheme's budget"):
        query_recursive_ids(label_recursive(PATH9, 2, 0), 0, 8, over)
    with pytest.raises(InvalidFaultSetError, match="larger than the scheme's budget"):
        query_all_pairs_ids(ID_QUERIES["all-pairs"][0](), 0, 8, over)
    for bad in (-1, 8):
        message = f"color {bad} outside palette of size 8"
        with pytest.raises(InvalidFaultSetError, match=message):
            cids_after_faults(PATH9, {frozenset((bad,)): [0]})
        with pytest.raises(InvalidFaultSetError, match=message):
            brute_force_connected(PATH9, 0, 8, [bad])
