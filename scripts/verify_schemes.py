#!/usr/bin/env python3
"""Cross-scheme verification sweep plus oracle query timing.

Runs every registered labeling scheme against the brute-force oracle on
seeded random instances and reports agreement, then times centralized oracle
queries across sizes.  The timing uses C = n/8 colors only, so every color
class is tiny; a query is two binary searches in stamp arrays built once, and
few, large classes are timed by the benchmark's ``few-colors-read`` workload.

    python3 scripts/verify_schemes.py [--trials 1000] [--oracle-sizes 64,256]
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from colorfault.generators import gen_random
from colorfault.graph import RemovedVertexError
from colorfault.nca import build_one_fault_oracle
from colorfault.oracle import brute_force_connected
from colorfault.schemes import SCHEMES, query

FAULT_BUDGET = 3  # f for the schemes whose labels are built for a chosen f


def sweep(scheme, trials, seed):
    rng = random.Random(seed)
    agree = total = 0
    fmax = scheme.budget(FAULT_BUDGET)
    for t in range(trials // 50):
        g = gen_random(12 + t % 21, 30 + t % 12, 4 + t % 4, seed=seed + t,
                       connected=True)
        ls = scheme.build(g, f=FAULT_BUDGET, seed=seed + t)
        for _ in range(50):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            F = rng.sample(range(g.C), rng.randrange(1, fmax + 1))
            try:
                want = brute_force_connected(g, u, v, F)
            except RemovedVertexError:
                continue
            total += 1
            agree += query(ls, u, v, F) == want
    return agree, total


def time_oracle(sizes, seed):
    print("n avg_query_us")
    rng = random.Random(seed)
    for n in sizes:
        g = gen_random(n, 2 * n, max(3, n // 8), seed=seed + n, connected=True)
        oracle = build_one_fault_oracle(g)
        queries = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(g.C))
            for _ in range(4000)
        ]
        t0 = time.perf_counter()
        for u, v, c in queries:
            oracle.query(u, v, c)
        dt = time.perf_counter() - t0
        print(f"{n} {dt / len(queries) * 1e6:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=int(os.environ.get("CFL_SEED", "0")))
    ap.add_argument("--oracle-sizes", default="64,256,1024,4096")
    args = ap.parse_args()
    for scheme in SCHEMES.values():
        agree, total = sweep(scheme, args.trials, args.seed)
        print(f"scheme={scheme.name} agreement={agree}/{total}")
    print()
    time_oracle([int(s) for s in args.oracle_sizes.split(",")], args.seed)


if __name__ == "__main__":
    main()
