#!/usr/bin/env python3
"""Empirical success rate and latency of the edge-fault sketch queries.

For each size, builds labels with the default 24 repetitions and fires random
queries with fault sets of up to half the edges, comparing against union-find
ground truth.  The target regime is success >= 1 - 1/n; errors are one-sided
(connected pairs reported as disconnected when no cell isolates a cut edge).
Each row also gives, in microseconds, the p50 latency of the sketch query and
of a brute-force union-find over the surviving edges, on as many further
queries with LATENCY_FAULTS faulty edges each (the benchmark's sketch
questions fail three), so one run shows whether the query stays flat in n and
below brute force.  A query's cost grows with its fault count, not with n, so
a last column gives the sketch query's p50 with m/4 faulty edges, where
folding part sketches that no decode reads would show.
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from colorfault.generators import gen_random
from colorfault.graph import UnionFind
from colorfault.sketch import build_edge_fault_labels, query_edge_fault


LATENCY_FAULTS = 3


def run(n, queries, seed, repetitions):
    """(success rate, query p50 us, brute-force p50 us, m/4-fault query p50 us) for one
    random graph of n vertices."""
    rng = random.Random(seed)
    g = gen_random(n, 2 * n, 3, seed=seed, connected=True)
    labels = build_edge_fault_labels(g, seed=seed, repetitions=repetitions)

    def ask(fault_count):
        """(sketch answer, brute-force answer, sketch ns, brute-force ns) of one random query."""
        faults = set(rng.sample(range(g.m), fault_count))
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        lu, lv = labels.vertex_labels[u], labels.vertex_labels[v]
        fault_labels = [labels.edge_labels[e] for e in faults]
        start = time.perf_counter_ns()
        got = query_edge_fault(labels, lu, lv, fault_labels)
        mid = time.perf_counter_ns()
        uf = UnionFind(g.n)
        for eid, (a, b) in enumerate(g.edges):
            if eid not in faults and a != b:
                uf.union(a, b)
        truth = uf.connected(u, v)
        return got, truth, mid - start, time.perf_counter_ns() - mid

    good = sum(got == truth for got, truth, _, _ in
               (ask(rng.randrange(0, g.m // 2 + 1)) for _ in range(queries)))
    timed = [ask(LATENCY_FAULTS) for _ in range(queries)]
    query_us = statistics.median(q for _, _, q, _ in timed) / 1e3
    brute_us = statistics.median(b for _, _, _, b in timed) / 1e3
    many_us = statistics.median(ask(g.m // 4)[2] for _ in range(queries)) / 1e3
    return good / queries, query_us, brute_us, many_us


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="16,32,64,128,256")
    ap.add_argument("--queries", type=int, default=400)
    ap.add_argument("--repetitions", type=int, default=24)
    ap.add_argument("--seed", type=int, default=int(os.environ.get("CFL_SEED", "0")))
    args = ap.parse_args()
    print("n success_rate target(1-1/n) query_p50_us brute_force_p50_us query_m/4_p50_us")
    for n in (int(s) for s in args.sizes.split(",")):
        rate, query_us, brute_us, many_us = run(n, args.queries, args.seed, args.repetitions)
        print(f"{n} {rate:.4f} {1 - 1 / n:.4f} {query_us:.1f} {brute_us:.1f} {many_us:.1f}")


if __name__ == "__main__":
    main()
