#!/usr/bin/env python3
"""One sha256 line per built structure of a benchmark workload, for identity checks.

Builds a workload's set-up and one round of its questions through the
benchmark's own adapter table (``perfbench/layers.py``, untraced), then prints
a digest of every label's ``bits`` and one of every label's ``repr`` per group
of label sets (so label contents count, the reduction's masks included), one
of the recursion manifests of each group whose sets carry one
(``meta["manifest"]``: each node's delta, prevalent colors and size
estimates), the oracle file bytes, the routing tables' and labels' ``bits``
and contents (each table's blocks and fragment tables, each vertex label's
per-color entries, each color label's blocks), the encoder round trip, and
every answer of the round per answering scheme (an exception is recorded by
its type name).  Routes get two lines, their hops and their headers, so a
change to the header encoding does not hide routes that stayed equal.
``--workload`` takes one or more workload names (all of them by default) and
prints one block per workload under a ``# <workload> seed N`` header.  Two
checkouts whose outputs should not differ print the same lines:

    python3 scripts/fingerprint.py --workload few-colors-read long-unique-build --seed 1 > a.txt
    (in the other checkout, the same command) > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from layers import adapter_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def answer_of(fn, built, q):
    try:
        return fn(built, q.u, q.v, q.faults)
    except Exception as exc:  # a scheme's refusal is part of its answer
        return type(exc).__name__


def fingerprint(name: str, seed: int) -> list[str]:
    wl = WORKLOADS[name]
    api = adapter_table()
    inp = wl.inputs(seed)
    state = wl.setup(api, inp)
    lines = []

    def emit(label, items):
        lines.append(f"{digest(items)}  {label}  ({len(items)})")

    for key, sets in wl.label_sets(state).items():
        groups = [group for ls in sets for group in ls.label_groups().values()]
        emit(f"bits {key}", [[lbl.bits for lbl in group] for group in groups])
        emit(f"labels {key}", [lbl for group in groups for lbl in group])
        manifests = [ls.meta["manifest"] for ls in sets if "manifest" in getattr(ls, "meta", ())]
        if manifests:
            emit(f"manifest {key}", manifests)
    if "oracle_blob" in state:
        emit("oracle file", [state["oracle_blob"]])
    if "routing" in state:
        rs = state["routing"]
        emit("routing bits", [[t.bits for t in rs.tables],
                              [lbl.bits for lbl in rs.vertex_labels],
                              [lbl.bits for lbl in rs.color_labels]])
        emit("routing tables", [[(sorted(t.blocks.items()), sorted(t.fragment_tables.items()))
                                 for t in rs.tables],
                                [sorted(lbl.per_color.items()) for lbl in rs.vertex_labels],
                                [sorted(lbl.blocks.items()) for lbl in rs.color_labels]])
    if "decoded" in state:
        emit("decoded", [state["decoded"]])
    answers = defaultdict(list)
    for q in wl.questions(inp, seed):
        for op, key in q.ops:
            answers[op].append(answer_of(api[op], state[key], q))
    for op in sorted(answers):
        if op == "routing.route":  # a RouteResult, None for a refusal, or an exception name
            emit(f"routes {op}", [getattr(a, "trace", a) for a in answers[op]])
            emit(f"headers {op}", [getattr(a, "header", a) for a in answers[op]])
        else:
            emit(f"answers {op}", answers[op])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name in args.workload:
        print(f"# {name} seed {args.seed}")
        for line in fingerprint(name, args.seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
