"""Connectivity labels, oracles and routing under color faults.

Edges (or vertices) of a multigraph carry colors; a fault knocks out a whole
color class at once.  This package builds labeling schemes answering
connectivity queries from the labels of the two endpoints and the failed
colors alone, a centralized oracle, a forbidden-color routing scheme, a
single-source-to-all-pairs reduction, and round-trip encoders over the
topologies behind the matching lower bounds.  Everything is verifiable against
a brute-force oracle; see the tests and the ``cfl`` command line.
"""

from .encoders import EncodedInstance, encode_balls, encode_spider
from .graph import (
    EDGE,
    VERTEX,
    ColoredGraph,
    GraphError,
    InvalidFaultSetError,
    ParseError,
    RemovedVertexError,
    bfs_tree,
    edge_graph,
    parse_graph,
    serialize_graph,
    spanning_forest,
    vertex_graph,
)
from .labels import LabelSet, measure_labels
from .multi_fault import (
    build_certificate,
    label_large_f,
    label_recursive,
    query_large_f_ids,
    query_recursive_ids,
)
from .nca import (
    build_nca,
    build_one_fault_oracle,
    label_nca_connectivity,
)
from .oracle import brute_force_connected, brute_force_partition
from .reduction import ExactSingleSource, build_all_pairs, query_all_pairs_ids
from .routing import build_routing_scheme, route
from .single_fault import (
    build_ruling_set,
    label_single_fault,
    packing_certificate,
    pair_connected,
    query_single_fault,
)
from .sketch import build_edge_fault_labels, query_edge_fault
from .two_fault import greedy_hitting_set, label_two_fault, query_two_fault_ids

__all__ = [
    "EDGE",
    "VERTEX",
    "ColoredGraph",
    "EncodedInstance",
    "ExactSingleSource",
    "GraphError",
    "InvalidFaultSetError",
    "LabelSet",
    "ParseError",
    "RemovedVertexError",
    "bfs_tree",
    "brute_force_connected",
    "brute_force_partition",
    "build_all_pairs",
    "build_certificate",
    "build_edge_fault_labels",
    "build_nca",
    "build_one_fault_oracle",
    "build_routing_scheme",
    "build_ruling_set",
    "edge_graph",
    "encode_balls",
    "encode_spider",
    "greedy_hitting_set",
    "label_large_f",
    "label_nca_connectivity",
    "label_recursive",
    "label_single_fault",
    "label_two_fault",
    "measure_labels",
    "packing_certificate",
    "pair_connected",
    "parse_graph",
    "query_all_pairs_ids",
    "query_edge_fault",
    "query_large_f_ids",
    "query_recursive_ids",
    "query_single_fault",
    "query_two_fault_ids",
    "route",
    "serialize_graph",
    "spanning_forest",
    "vertex_graph",
]
