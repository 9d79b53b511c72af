"""The three seeded workloads: inputs, timed set-up, questions and sizes.

A workload never calls ``colorfault`` directly; every call goes through the
adapter rows in ``layers.adapter_table`` (passed in as ``api``).  Sizes are
trimmed so that five set-ups, a 10 s query phase and the checks take about
half a minute on two cores; the reasons for each shape are in ``NOTES.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import instances as gen

# How a scheme's answer is checked against the reference: exact, allowed to
# err only toward "disconnected" (under) or only toward "connected" (over).
EXACT, UNDER, OVER, ROUTE = "exact", "under", "over", "route"
MODE = {
    "nca.oracle_query": EXACT,
    "single_fault.query": EXACT,
    "nca.label_query": EXACT,
    "two_fault.query": EXACT,
    "multi_fault.query": UNDER,
    "multi_fault.large_query": UNDER,
    "sketch.query": UNDER,
    "reduction.query": OVER,
    "routing.route": ROUTE,
}
# End-to-end grouping of the query rows.
KIND = {op: "label" for op in MODE}
KIND["nca.oracle_query"] = "oracle"
KIND["routing.route"] = "route"


@dataclass(frozen=True)
class Question:
    inst: str  # instance the reference answers on
    u: int
    v: int
    faults: tuple  # color ids; edge ids for sketch.query
    ops: tuple  # (adapter row, state key) pairs that answer it


def distinct_pair(n: int, rng: random.Random) -> tuple[int, int]:
    u, v = rng.sample(range(n), 2)
    return u, v


def label_bits(label_set) -> tuple[int, int]:
    """(max, total) canonical bits over every label class of a label set."""
    sizes = [lbl.bits for group in label_set.label_groups().values() for lbl in group]
    return max(sizes, default=0), sum(sizes)


def one_fault_build(api, g) -> dict:
    """Oracle with its file round trip, ruling set + one-fault labels, NCA labels."""
    blob = api["nca.dump_oracle"](api["nca.build_one_fault_oracle"](g))
    oracle = api["nca.load_oracle"](blob)
    ruling = api["single_fault.build_ruling_set"](g)
    single = api["single_fault.label_single_fault"](g, ruling)
    return {"oracle": oracle, "oracle_blob": blob, "ruling": ruling, "single": single,
            "nca": api["nca.label_nca_connectivity"](g)}


ONE_FAULT_OPS = (("nca.oracle_query", "oracle"), ("single_fault.query", "single"),
                 ("nca.label_query", "nca"))


BURST = 200  # one-fault questions asked in a row about one failed color


def one_fault_questions(inst, count: int, rng: random.Random, ops=ONE_FAULT_OPS):
    """``count`` one-fault questions in bursts of ``BURST`` about one color each.

    After a color fails, many pairs are asked about that one failure, so the
    questions come in bursts.  Only a burst's first oracle query finds the
    color's array out of cache; with bursts of 200 those are half a percent of
    the queries, below the p99, which with bursts of 50 sat among them and
    moved with every change in the machine's memory speed.  Burst colors cycle
    through the palette in a shuffled order, so every color gets its share.
    """
    colors = [i % inst.C for i in range(count // BURST)]
    rng.shuffle(colors)
    out = []
    for c in colors:
        for _ in range(BURST):
            u, v = distinct_pair(inst.n, rng)
            out.append(Question(inst.name, u, v, (c,), ops))
    return out


class FewColorsRead:
    name = "few-colors-read"

    def inputs(self, seed: int) -> dict:
        return {"instances": [gen.random_graph("few", 4096, 8192, 4, seed)]}

    def setup(self, api, inp) -> dict:
        g = api["graph.parse_graph"](inp["instances"][0].text)
        return {"g": g, **one_fault_build(api, g)}

    def questions(self, inp, seed: int) -> list[Question]:
        """The questions of one round, in the order they are asked."""
        return one_fault_questions(inp["instances"][0], 4000, gen.derive(seed, "questions"))

    def label_sets(self, state) -> dict:
        """Label sets built, keyed by the per-layer metric of their largest label."""
        return {"single_fault.label_bits_max": [state["single"]],
                "nca.label_bits_max": [state["nca"]]}


class LongUniqueBuild:
    name = "long-unique-build"

    PATH_N = 2560  # holds 32 disjoint balls of radius 32
    GRID = (4, 64)
    BALL_RADIUS = 32

    def inputs(self, seed: int) -> dict:
        r = self.BALL_RADIUS
        return {
            "instances": [gen.path_graph("path", self.PATH_N, seed),
                          gen.grid_graph("grid", *self.GRID, seed)],
            "encoded_bits": gen.random_bits(r * r, gen.derive(seed, "ball bits")),
            # disjoint proper r-balls along the path: each spans 2r + 1 vertices
            "ball_centers": [r + k * (2 * r + 1) for k in range(r)],
            "large_seed": gen.derive(seed, "large seed").getrandbits(32),
        }

    def setup(self, api, inp) -> dict:
        path_inst, grid_inst = inp["instances"]
        gp = api["graph.parse_graph"](path_inst.text)
        gg = api["graph.parse_graph"](grid_inst.text)
        state = {"g": gp, **one_fault_build(api, gp)}
        balls = api["encoders.encode_balls"](gp, inp["encoded_bits"], inp["ball_centers"])
        decoder = api["single_fault.label_single_fault"](balls.graph)
        query = api["single_fault.query"]
        state["decoded"] = api["encoders.decode"](
            balls, lambda u, v, F: query(decoder, u, v, tuple(F)))
        state["ball_decoder"] = decoder
        state["routing"] = api["routing.build_routing_scheme"](gg)
        state["large"] = api["multi_fault.label_large_f"](gg, inp["large_seed"])
        return state

    def questions(self, inp, seed: int) -> list[Question]:
        path_inst, grid_inst = inp["instances"]
        rng = gen.derive(seed, "questions")
        path = one_fault_questions(path_inst, 8000, rng)
        out = []
        for _ in range(1000):
            s, t = distinct_pair(grid_inst.n, rng)
            out.append(Question("grid", s, t, (rng.randrange(grid_inst.C),),
                                (("routing.route", "routing"),)))
        for _ in range(10):
            u, v = distinct_pair(grid_inst.n, rng)
            out.append(Question("grid", u, v, tuple(rng.sample(range(grid_inst.C), 3)),
                                (("multi_fault.large_query", "large"),)))
        rng.shuffle(out)
        # one grid question after each burst of path questions
        bursts = [path[i:i + BURST] for i in range(0, len(path), BURST)]
        step = len(out) / len(bursts)
        return [q for k, burst in enumerate(bursts)
                for q in burst + out[round(k * step):round((k + 1) * step)]]

    def label_sets(self, state) -> dict:
        return {"single_fault.label_bits_max": [state["single"], state["ball_decoder"]],
                "nca.label_bits_max": [state["nca"]],
                "multi_fault.large_label_bits_max": [state["large"]]}


class ManyFaultsSkewed:
    name = "many-faults-skewed"

    MAIN = (384, 768, 64)  # n, m, C
    SMALL = (48, 96, 6)

    def inputs(self, seed: int) -> dict:
        salts = ("recursive", "large", "sketch", "reduction", "spider")
        return {
            "instances": [gen.random_graph("skew", *self.MAIN, seed, palette="zipf"),
                          gen.random_graph("small", *self.SMALL, seed)],
            "encoded_bits": gen.random_bits(16 * 28, gen.derive(seed, "spider bits")),
            "seeds": {s: gen.derive(seed, s).getrandbits(32) for s in salts},
        }

    def setup(self, api, inp) -> dict:
        main_inst, small_inst = inp["instances"]
        seeds = inp["seeds"]
        g = api["graph.parse_graph"](main_inst.text)
        blob = api["nca.dump_oracle"](api["nca.build_one_fault_oracle"](g))
        state = {
            "g": g,
            "oracle": api["nca.load_oracle"](blob),
            "oracle_blob": blob,
            "recursive": api["multi_fault.label_recursive"](g, 2, seeds["recursive"]),
            "two": api["two_fault.label_two_fault"](g),
            "large": api["multi_fault.label_large_f"](g, seeds["large"]),
            "edge": api["sketch.build_edge_fault_labels"](g, seeds["sketch"]),
        }
        gs = api["graph.parse_graph"](small_inst.text)
        inner = api["reduction.exact_inner"](2, small_inst.C)
        state["reduction"] = api["reduction.build_all_pairs"](gs, 2, inner, 1.0, seeds["reduction"])
        spider = api["encoders.encode_spider"](2, 8, 16, inp["encoded_bits"])
        decoder = api["multi_fault.label_recursive"](spider.graph, 2, seeds["spider"])
        query = api["multi_fault.query"]
        state["decoded"] = api["encoders.decode"](
            spider, lambda u, v, F: query(decoder, u, v, tuple(F)))
        state["spider_decoder"] = decoder
        return state

    def questions(self, inp, seed: int) -> list[Question]:
        main_inst, small_inst = inp["instances"]
        rng = gen.derive(seed, "questions")
        C = main_inst.C
        out = []

        # Class k of the Zipf palette is the k-th largest.  A fixed quarter of the
        # multi-fault questions fail only colors from the 16 smallest classes
        # (1-2 edges, below the prevalence threshold), so they take the sketch
        # branch; the rest fail a color from the 16 largest classes and descend.
        # Drawing colors uniformly instead lets the sketch-branch share, and with
        # it the run's throughput, swing by a fifth from seed to seed.
        common, rare = range(16), range(C - 16, C)

        def multi_faults(i):
            size = 1 + i % 2
            if (i // 2) % 4 == 0:
                return tuple(rng.sample(rare, size))
            first = rng.choice(common)
            return (first,) + tuple(rng.sample([c for c in range(C) if c != first], size - 1))

        def add(count, faults_of, op, key, inst=main_inst):
            for i in range(count):
                u, v = distinct_pair(inst.n, rng)
                out.append(Question(inst.name, u, v, faults_of(i), ((op, key),)))

        add(48, multi_faults, "multi_fault.query", "recursive")
        add(8, lambda i: tuple(rng.sample(range(C), 3)), "multi_fault.large_query", "large")
        add(16, lambda i: tuple(rng.sample(range(main_inst.m), 3)), "sketch.query", "edge")
        add(64, lambda i: tuple(rng.sample(range(small_inst.C), 2)), "reduction.query",
            "reduction", inst=small_inst)
        rng.shuffle(out)
        heavy, out = out, []
        # Two-fault questions are most of the label questions (2000 of 2136), so
        # the pooled label p50 falls inside their latencies rather than in the
        # gap between two schemes.
        add(2000, lambda i: tuple(rng.sample(range(C), 2)), "two_fault.query", "two")
        # The round is ten segments: a run of 400 oracle questions, a run of 200
        # two-fault questions, then a tenth of the heavy questions.  A question
        # asked right after a sketch query, which sweeps megabytes, finds a cold
        # cache; in runs, the cheap questions find a warm one, and their best
        # latencies move less with the host's memory speed.  The whole oracle
        # fits in cache here, so an oracle run cycles through every color
        # (shuffled) instead of asking in bursts.
        asked = []
        for k in range(10):
            colors = [(400 * k + i) % C for i in range(400)]
            rng.shuffle(colors)
            asked += [Question(main_inst.name, *distinct_pair(main_inst.n, rng), (c,),
                                (("nca.oracle_query", "oracle"),)) for c in colors]
            asked += out[200 * k:200 * (k + 1)]
            asked += heavy[len(heavy) * k // 10:len(heavy) * (k + 1) // 10]
        return asked

    def label_sets(self, state) -> dict:
        return {"multi_fault.label_bits_max": [state["recursive"], state["spider_decoder"]],
                "two_fault.label_bits_max": [state["two"]],
                "multi_fault.large_label_bits_max": [state["large"]],
                "sketch.label_bits_max": [state["edge"]],
                "reduction.label_bits_max": [state["reduction"]]}


WORKLOADS = {w.name: w for w in (FewColorsRead(), LongUniqueBuild(), ManyFaultsSkewed())}
