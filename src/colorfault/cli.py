"""Command-line harness: generators, labeling, queries, verification, routing.

Reports are line-oriented ``key=value`` pairs on stdout; ``--summary FILE``
additionally writes the same report as JSON.  The CFL_SEED environment
variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import random
import sys
import time

from . import generators
from .bits import id_width
from .encoders import encode_balls, encode_spider, parse_bits
from .graph import (
    EDGE,
    ColoredGraph,
    GraphError,
    RemovedVertexError,
    parse_graph,
    serialize_graph,
)
from .labels import LabelSet, loglog_slope, measure_labels, report_lines
from .nca import (
    build_one_fault_oracle,
    dump_oracle,
    load_oracle,
    oracle_file_bits,
    oracle_index_words,
    oracle_table_colors,
    oracle_uncut_colors,
)
from .oracle import brute_force_connected
from .routing import UnreachableError, build_routing_scheme, route
from .schemes import SCHEMES, query
from .single_fault import packing_certificate
from .sketch import DEFAULT_REPETITIONS


def _read_graph(path: str) -> ColoredGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(report: dict, summary: str | None) -> None:
    for line in report_lines(report):
        print(line)
    if summary:
        with open(summary, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "random":
        g = generators.gen_random(
            args.n, args.m, args.C, seed=args.seed, mode=args.mode,
            coloring=args.coloring, simple=not args.multigraph,
            connected=args.connected,
        )
    elif kind == "path":
        g = generators.gen_path(args.n, coloring=args.coloring, C=args.C,
                                seed=args.seed, mode=args.mode)
    elif kind == "wheel":
        g = generators.gen_wheel(args.n, coloring=args.coloring, C=args.C,
                                 seed=args.seed, mode=args.mode)
    elif kind == "grid":
        g = generators.gen_grid(args.rows, args.cols, coloring=args.coloring,
                                C=args.C, seed=args.seed, mode=args.mode)
    elif kind == "tree":
        g = generators.gen_tree(args.n, seed=args.seed, coloring=args.coloring,
                                C=args.C, mode=args.mode)
    else:
        raise GraphError(f"unknown generator {kind!r}")
    text = serialize_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_label(args) -> int:
    g = _read_graph(args.graph)
    scheme = SCHEMES[args.scheme]
    scheme.budget(args.f)
    ls = scheme.build(g, f=args.f, seed=args.seed, repetitions=args.repetitions)
    report = measure_labels(ls)
    if args.scheme == "multi" and "manifest" in ls.meta:
        report["manifest"] = ls.meta["manifest"]
    _emit(report, args.summary)
    if args.output:
        with open(args.output, "wb") as fh:
            pickle.dump(ls, fh)
    return 0


def cmd_query(args) -> int:
    with open(args.labels, "rb") as fh:
        try:
            ls = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, ImportError, AttributeError) as exc:
            raise GraphError(f"{args.labels} is not a label file: {exc}") from exc
    if not isinstance(ls, LabelSet):
        raise GraphError(f"{args.labels} is not a label file: it holds a {type(ls).__name__}")
    try:
        ok = query(ls, args.u, args.v, args.colors)
    except RemovedVertexError as exc:
        print(f"error=removed-vertex detail={exc}")
        return 2
    print(f"connected={int(ok)}")
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_command == "build":
        g = _read_graph(args.graph)
        oracle = build_one_fault_oracle(g)
        data = dump_oracle(oracle)
        with open(args.output, "wb") as fh:
            fh.write(data)
        header, body = oracle_file_bits(oracle)
        print(f"bytes={len(data)}")
        print(f"header_bits={header}")
        print(f"body_bits={body}")
        print(f"index_words={oracle_index_words(oracle)}")
        print(f"table_colors={oracle_table_colors(oracle)}")
        print(f"uncut_colors={oracle_uncut_colors(oracle)}")
        return 0
    with open(args.oracle, "rb") as fh:
        oracle = load_oracle(fh.read())
    try:
        ok = oracle.query(args.u, args.v, args.c)
    except RemovedVertexError as exc:
        print(f"error=removed-vertex detail={exc}")
        return 2
    print(f"connected={int(ok)}")
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    g = _read_graph(args.graph)
    if g.n == 0:
        raise GraphError("the graph has no vertices to draw query pairs from")
    scheme = SCHEMES[args.scheme]
    if g.C == 0 and scheme.max_faults is not None:
        raise GraphError(f"the graph has no colors to fail; scheme {scheme.name} needs one in F")
    max_faults = scheme.budget(args.f)
    ls = scheme.build(g, f=args.f, seed=args.seed, repetitions=args.repetitions)
    rng = random.Random(args.seed)
    skipped = 0
    mismatches = []  # (u, v, F, wrong answer)
    for _ in range(args.trials):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        size = rng.randrange(min(1, max_faults), max_faults + 1)
        F = rng.sample(range(g.C), min(size, g.C))
        try:
            want = brute_force_connected(g, u, v, F)
        except RemovedVertexError:
            skipped += 1
            continue
        if query(ls, u, v, F) != want:
            mismatches.append((u, v, F, not want))
    effective = args.trials - skipped
    false_connected = sum(got for *_, got in mismatches)
    report = {
        "scheme": args.scheme,
        "trials": args.trials,
        "skipped_removed": skipped,
        "agreement": (effective - len(mismatches)) / max(effective, 1),
        "false_connected": false_connected,
        "false_disconnected": len(mismatches) - false_connected,
        "seed": args.seed,
        "mismatch": tuple(  # each replays as `cfl label --seed S -o` then `cfl query`
            f"u={u} v={v} F={','.join(map(str, F))} got={int(got)} want={int(not got)}"
            for u, v, F, got in mismatches
        ),
    }
    _emit(report, args.summary)
    return int(any(got != scheme.false_answer for *_, got in mismatches))  # a forbidden error


def cmd_bench(args) -> int:
    sizes = args.sizes
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes must all be at least 1, got {','.join(map(str, sizes))}")
    report: dict = {"scheme": args.scheme, "generator": args.generator}
    rows = []
    for n in sizes:
        if args.generator == "path":
            g = generators.gen_path(n, coloring=args.coloring, C=args.C, seed=args.seed)
        else:
            g = generators.gen_random(
                n, int(n * args.density), args.C or max(2, math.isqrt(n)),
                seed=args.seed, coloring=args.coloring, connected=True,
            )
        start = time.thread_time()
        ls = SCHEMES[args.scheme].build(g, f=args.f, seed=args.seed)
        build_s = time.thread_time() - start
        max_bits = ls.max_label_bits()
        words = max_bits / max(id_width(max(g.n, 2)), 1)
        rows.append((n, max_bits, words))
        report[f"n{n}.max_bits"] = max_bits
        report[f"n{n}.max_words"] = round(words, 2)
        report[f"n{n}.build_s"] = round(build_s, 4)  # thread CPU seconds of the build
        if args.scheme == "single":  # the ruling set's k and packing_certificate's r
            r = packing_certificate(ls.meta["k"], ls.meta["A"])[0]
            report[f"n{n}.k"] = ls.meta["k"]
            report[f"n{n}.r"] = r
            if r:
                report[f"n{n}.words_per_r"] = round(words / r, 2)
        elif args.scheme == "two-diam":  # the paper's O~(D * sqrt n) words
            D = ls.meta["depth"]
            report[f"n{n}.D"] = D
            if D:
                report[f"n{n}.words_per_D_sqrt_n"] = round(words / (D * math.sqrt(n)), 2)
    if len(rows) >= 2:
        report["slope_bits"] = round(
            loglog_slope([r[0] for r in rows], [r[1] for r in rows]), 4
        )
        report["slope_words"] = round(
            loglog_slope([r[0] for r in rows], [r[2] for r in rows]), 4
        )
    _emit(report, args.summary)
    return 0


def cmd_route(args) -> int:
    g = _read_graph(args.graph)
    scheme = build_routing_scheme(g)
    try:
        result = route(scheme, args.source, args.target, args.avoid)
    except UnreachableError as exc:
        print(f"error=unreachable detail={exc}")
        return 2
    print(f"delivered=1")
    print(f"hops={result.hops}")
    if args.trace:
        for i, hop in enumerate(result.trace):
            print(
                f"hop {i}: {hop.src} --port {hop.port}--> {hop.dst} "
                f"(edge color {hop.color})"
            )
    return 0


def cmd_encode(args) -> int:
    bits = parse_bits(args.bits)
    if args.encoder == "balls":
        g = _read_graph(args.graph)
        inst = encode_balls(g, bits, centers=args.centers or None)
    else:
        inst = encode_spider(args.f, args.q, args.arms, bits,
                             subdivide=args.subdivide)
    if args.decode_with == "oracle":
        decoded = inst.decode_with_oracle()
    else:
        faults = max((len(e.faults) for e in inst.decoder), default=1)
        scheme = SCHEMES["single" if faults <= 1 else "multi"]
        ls = scheme.build(inst.graph, f=faults, seed=args.seed)
        decoded = inst.decode(lambda u, v, F: query(ls, u, v, F))
    matches = sum(a == b for a, b in zip(decoded, bits))
    report = {
        "capacity": inst.capacity,
        "decoded": "".join(str(b) for b in decoded),
        "bit_accuracy": matches / max(len(bits), 1),
        "round_trip": int(decoded == list(bits)),
    }
    _emit(report, args.summary)
    return 0 if decoded == list(bits) else 1


# -- parser ----------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers; the empty string is the empty list."""
    try:
        return [int(item) for item in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_seed(p) -> None:
    # argparse converts a string default with ``type`` only when --seed is absent
    p.add_argument("--seed", type=int, default=os.environ.get("CFL_SEED", "0"),
                   help="default: the CFL_SEED environment variable, else 0")


def _add_common_gen(p, coloring: str = "uniform") -> None:
    p.add_argument("--coloring", choices=generators.COLORINGS, default=coloring)
    p.add_argument("--C", type=int, default=4)
    _add_seed(p)
    p.add_argument("--mode", choices=("edge", "vertex"), default=EDGE)
    p.add_argument("-o", "--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfl",
        description="Connectivity labels, oracles and routing under color faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    gsub = p.add_subparsers(dest="kind", required=True)
    pr = gsub.add_parser("random")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--m", type=int, required=True)
    pr.add_argument("--multigraph", action="store_true")
    pr.add_argument("--connected", action="store_true")
    _add_common_gen(pr)
    for kind in ("path", "wheel", "tree"):
        pk = gsub.add_parser(kind)
        pk.add_argument("--n", type=int, required=True)
        _add_common_gen(pk, "unique" if kind == "path" else "uniform")
    pg = gsub.add_parser("grid")
    pg.add_argument("--rows", type=int, required=True)
    pg.add_argument("--cols", type=int, required=True)
    _add_common_gen(pg)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="build labels for a graph")
    p.add_argument("graph")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--f", type=int, default=2)
    _add_seed(p)
    p.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS,
                   help="sketch repetitions for multi/large schemes")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("query", help="answer a query from a label file")
    p.add_argument("labels")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--colors", type=_int_list, default=[], help="comma-separated faulted colors")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("oracle", help="centralized one-fault oracle")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    ob = osub.add_parser("build")
    ob.add_argument("graph")
    ob.add_argument("-o", "--output", required=True)
    oq = osub.add_parser("query")
    oq.add_argument("oracle")
    oq.add_argument("u", type=int)
    oq.add_argument("v", type=int)
    oq.add_argument("c", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="compare a scheme against brute force")
    p.add_argument("graph")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--f", type=int, default=2)
    p.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS)
    p.add_argument("--trials", type=int, default=200)
    _add_seed(p)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="measure label sizes across sizes")
    p.add_argument("--scheme", choices=tuple(SCHEMES), default="single")
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated n values")
    p.add_argument("--generator", choices=("path", "random"), default="path")
    p.add_argument("--coloring", choices=generators.COLORINGS, default="unique")
    p.add_argument("--C", type=int, default=0)
    p.add_argument("--density", type=float, default=1.6)
    p.add_argument("--f", type=int, default=2)
    _add_seed(p)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("route", help="simulate forbidden-color routing")
    p.add_argument("graph")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--avoid", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("encode", help="lower-bound round-trip encodings")
    esub = p.add_subparsers(dest="encoder", required=True)
    eb = esub.add_parser("balls")
    eb.add_argument("graph")
    eb.add_argument("--bits", required=True)
    eb.add_argument("--centers", type=_int_list, default=None)
    eb.add_argument("--decode-with", choices=("oracle", "scheme"), default="oracle")
    _add_seed(eb)
    eb.add_argument("--summary", default=None)
    es = esub.add_parser("spider")
    es.add_argument("--f", type=int, required=True)
    es.add_argument("--q", type=int, required=True)
    es.add_argument("--arms", type=int, required=True)
    es.add_argument("--bits", required=True)
    es.add_argument("--subdivide", choices=("edge", "vertex"), default=None)
    es.add_argument("--decode-with", choices=("oracle", "scheme"), default="oracle")
    _add_seed(es)
    es.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:  # OSError: an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
