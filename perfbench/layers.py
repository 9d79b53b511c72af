"""The one adapter table between the benchmark and the package, plus tracing.

Every call the benchmark makes into ``colorfault`` goes through a row of
``adapter_table``; a row is named ``<module>.<operation>`` after the package
module (the layer) it enters.  Query rows share one shape,
``(built, u, v, faults) -> bool``, so a change to a scheme's public API is one
edited row here.  ``bind`` returns the table unchanged for untraced runs, or
with every row wrapped in a span recorder for the traced run.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

# Set-ups, phases and spans are timed in CPU time of the one benchmark thread.
# The program is single-threaded, compute-bound and does no I/O, so on an idle
# machine this is its wall time; on a shared virtual machine it leaves out the
# time the thread waits descheduled, which made wall-clock timings of identical
# work differ by up to 40% between runs.  (The untraced query loop times each
# single operation with ``perf_counter_ns`` instead: reading this clock is a
# system call of about 0.37 us on a shared 2-core x86 VM, a tenth of a 3 us
# query.)
CLOCK = time.thread_time_ns

LAYERS = ("graph", "single_fault", "nca", "sketch", "multi_fault", "two_fault",
          "routing", "reduction", "encoders", "oracle")


def adapter_table() -> dict:
    """Rows ``"<layer>.<op>" -> callable``; imports the package when called."""
    from colorfault import (encoders, graph, multi_fault, nca, oracle, reduction,
                            routing, single_fault, sketch, two_fault)

    def one_fault(ls, u, v, faults):
        (c,) = faults
        return single_fault.pair_connected(ls.vertex_labels[u], ls.vertex_labels[v],
                                           ls.color_labels[c])

    def nca_labels(ls, u, v, faults):
        (c,) = faults
        return nca.pair_connected_nca(ls.vertex_labels[u], ls.vertex_labels[v],
                                      ls.color_labels[c])

    def oracle_query(o, u, v, faults):
        (c,) = faults
        return o.query(u, v, c)

    def two_faults(ls, u, v, faults):
        c, d = faults
        return two_fault.query_two_fault_ids(ls, u, v, c, d)

    def route(scheme, s, t, faults):
        (c,) = faults
        try:
            return routing.route(scheme, s, t, c)
        except routing.UnreachableError:
            return None  # refused: the one-fault labels say s and t are separated

    def edge_faults(labels, u, v, eids):
        return sketch.query_edge_fault(labels, labels.vertex_labels[u], labels.vertex_labels[v],
                                       [labels.edge_labels[e] for e in eids])

    return {
        "graph.parse_graph": graph.parse_graph,
        "single_fault.build_ruling_set": single_fault.build_ruling_set,
        "single_fault.label_single_fault": single_fault.label_single_fault,
        "single_fault.query": one_fault,
        "nca.build_one_fault_oracle": nca.build_one_fault_oracle,
        "nca.dump_oracle": nca.dump_oracle,
        "nca.load_oracle": nca.load_oracle,
        "nca.oracle_query": oracle_query,
        "nca.label_nca_connectivity": nca.label_nca_connectivity,
        "nca.label_query": nca_labels,
        "sketch.build_edge_fault_labels": sketch.build_edge_fault_labels,
        "sketch.query": edge_faults,
        "multi_fault.label_recursive": multi_fault.label_recursive,
        "multi_fault.query": multi_fault.query_recursive_ids,
        "multi_fault.label_large_f": multi_fault.label_large_f,
        "multi_fault.large_query": multi_fault.query_large_f_ids,
        "two_fault.label_two_fault": two_fault.label_two_fault,
        "two_fault.query": two_faults,
        "routing.build_routing_scheme": routing.build_routing_scheme,
        "routing.route": route,
        "reduction.exact_inner": reduction.ExactSingleSource,
        "reduction.build_all_pairs": reduction.build_all_pairs,
        "reduction.query": reduction.query_all_pairs_ids,
        "encoders.encode_balls": encoders.encode_balls,
        "encoders.encode_spider": encoders.encode_spider,
        "encoders.decode": encoders.EncodedInstance.decode,
        "routing.header_bit_sizes": routing.header_bit_sizes,
        "oracle.brute_force_connected": oracle.brute_force_connected,
    }


class Tracer:
    """In-memory spans ``(name, start_ns, end_ns, parent index, op id)``.

    One caller and no threads, so a single stack gives every span its parent.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; its op id is the question asked at entry."""
        spans, stack, op = self.spans, self._stack, self.op
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = CLOCK()
        try:
            yield
        finally:
            spans[idx] = (name, start, CLOCK(), parent, op)
            stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[tuple[str, str, int, int]]:
        """Per span: (name, enclosing phase, duration ns, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        phase: list[str] = []
        out = []
        for idx, (name, start, end, parent, _op) in enumerate(self.spans):
            if name.startswith("phase."):
                phase.append(name[len("phase."):])
            else:
                phase.append(phase[parent] if parent >= 0 else "")
            out.append((name, phase[idx], end - start, end - start - child_ns[idx]))
        return out

    def write(self, path) -> None:
        """Spans as gzip-compressed tab-separated lines (a long run holds a million)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{'' if op is None else op}\n")


def bind(tracer: Tracer | None) -> dict:
    table = adapter_table()
    if tracer is None:
        return table
    return {name: tracer.wrap(name, fn) for name, fn in table.items()}
