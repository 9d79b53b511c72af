"""Information-encoding round trips over the lower-bound topologies.

Both encoders turn an arbitrary bit string into a coloring of a fixed topology
such that each bit is recoverable with one connectivity query against a small
fault set.  They are used to exercise the exact constructions behind the
length lower bounds: packed proper balls (one fault per bit) and multi-arm
parallel-edge spiders (f faults per bit).  A ball is ``single_fault.proper_ball``;
the default ball centers are ``single_fault.packing_certificate``'s, read off
the topology's ruling sequence, so a ball encoding runs at any n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import EDGE, VERTEX, ColoredGraph, GraphError
from .oracle import brute_force_connected
from .single_fault import build_ruling_set, packing_certificate, proper_ball


class WitnessError(ValueError):
    """Supplied ball centers are not disjoint proper balls."""


@dataclass(frozen=True, slots=True)
class DecoderEntry:
    bit: int
    u: int
    v: int
    faults: frozenset[int]  # the bit is 1 iff u and v are disconnected under these faults


@dataclass(frozen=True, slots=True)
class EncodedInstance:
    """A colored topology plus the query map recovering every encoded bit."""

    graph: ColoredGraph
    decoder: tuple[DecoderEntry, ...]
    capacity: int

    def decode(self, answer: Callable[[int, int, frozenset[int]], bool]) -> list[int]:
        return [0 if answer(e.u, e.v, e.faults) else 1 for e in self.decoder]

    def decode_with_oracle(self) -> list[int]:
        return self.decode(lambda u, v, F: brute_force_connected(self.graph, u, v, F))


def parse_bits(text: str) -> list[int]:
    text = text.strip()
    _check_bits(text, "01")
    return [int(ch) for ch in text]


def _check_bits(bits: Sequence, digits: Sequence = (0, 1)) -> None:
    """ValueError naming the first of ``bits`` that is not one of ``digits``."""
    for b in bits:
        if b not in digits:
            raise ValueError(f"bit string must be 0s and 1s, got {b!r}")


# -- packed proper balls ----------------------------------------------------------


def encode_balls(
    topology: ColoredGraph,
    bits: Sequence[int],
    centers: Sequence[int] | None = None,
) -> EncodedInstance:
    """Color layer boundaries of disjoint proper r-balls to store r*r bits.

    Bit k*r+l chooses whether the edges between layers l and l+1 of ball k get
    color l (bit 1) or the never-failing color r (bit 0).  Bit k*r+l is then
    exactly the disconnection of the center from its radius witness under the
    single fault {l}.  Each ball is one ``proper_ball``, and its layer edges
    come from its own vertices' adjacency: the work is linear in the balls.
    Without ``centers`` the balls are ``packing_certificate``'s, r = floor(k/4);
    explicit centers may pack more.  Either way each ball is checked proper
    and disjoint from the earlier ones.
    """
    if centers is None:
        ruling = build_ruling_set(topology)
        centers = packing_certificate(ruling.k, ruling.A)[1]
    r = len(centers)
    balls = [proper_ball(topology, v, r) for v in centers]
    covered: set[int] = set()
    witnesses = []
    for v, ball in zip(centers, balls):
        if ball is None:
            raise WitnessError(f"ball at {v} has no vertex at distance exactly {r}")
        if not covered.isdisjoint(ball):
            raise WitnessError(f"ball at {v} overlaps an earlier ball")
        covered.update(ball)
        witnesses.append(min(u for u, d in ball.items() if d == r))
    if len(bits) != r * r:
        raise ValueError(f"need exactly {r * r} bits, got {len(bits)}")
    _check_bits(bits)

    never = r  # palette {0..r-1} u {never-failing}
    edge_colors = [never] * topology.m
    for k, ball in enumerate(balls):
        for a, l in ball.items():
            if l < r and bits[k * r + l]:
                for b, eid in topology.adjacency(a):
                    if ball.get(b) == l + 1:  # the edge crosses layers l -> l+1 of ball k
                        edge_colors[eid] = l
    graph = ColoredGraph(
        n=topology.n, mode=EDGE, edges=topology.edges, C=max(never + 1, 1),
        edge_colors=tuple(edge_colors),
    )
    decoder = tuple(
        DecoderEntry(
            bit=k * r + l,
            u=centers[k],
            v=witnesses[k],
            faults=frozenset({l}),
        )
        for k in range(r)
        for l in range(r)
    )
    return EncodedInstance(graph, decoder, r * r)


# -- parallel-edge spiders -----------------------------------------------------------


def colex_subsets(q: int, f: int) -> list[tuple[int, ...]]:
    """All f-subsets of 0..q-1 in colexicographic order."""
    return sorted(itertools.combinations(range(q), f), key=lambda s: s[::-1])


def spider_capacity(f: int, q: int, arms: int) -> int:
    return arms * math.comb(q, f)


def encode_spider(
    f: int,
    q: int,
    arms: int,
    bits: Sequence[int],
    subdivide: str | None = None,
) -> EncodedInstance:
    """Multi-arm topology with f parallel edges per step; one bit per step.

    Step l of arm k is colored by the l-th f-subset of the palette when its bit
    is 1 (one distinct color per parallel edge), else by the never-failing
    color.  Querying the hub against an arm end under that subset recovers the
    bit: any other step keeps at least one surviving edge because distinct
    f-subsets never contain each other.
    """
    if f < 1 or q < f or arms < 1:
        raise GraphError("need f >= 1, q >= f, arms >= 1")
    subsets = colex_subsets(q, f)
    M = len(subsets)
    need = spider_capacity(f, q, arms)
    if len(bits) != need:
        raise ValueError(f"need exactly {need} bits, got {len(bits)}")
    _check_bits(bits)

    never = q
    n = 1 + arms * M
    vid = lambda k, l: 0 if l == 0 else 1 + k * M + (l - 1)
    triples: list[tuple[int, int, int]] = []
    for k in range(arms):
        for l in range(M):
            a, b = vid(k, l), vid(k, l + 1)
            if bits[k * M + l]:
                for color in subsets[l]:
                    triples.append((a, b, color))
            else:
                triples.extend((a, b, never) for _ in range(f))
    decoder = tuple(
        DecoderEntry(
            bit=k * M + l,
            u=0,
            v=vid(k, M),
            faults=frozenset(subsets[l]),
        )
        for k in range(arms)
        for l in range(M)
    )

    if subdivide is None:
        graph = ColoredGraph(
            n=n, mode=EDGE,
            edges=tuple((a, b) for a, b, _ in triples),
            C=never + 1,
            edge_colors=tuple(c for _, _, c in triples),
        )
    elif subdivide in ("edge", "vertex"):
        # split every parallel edge through a fresh vertex: simple and planar
        edges = tuple(e for x, (a, b, _) in enumerate(triples, n) for e in ((a, x), (x, b)))
        if subdivide == "edge":
            colors = tuple(c for _, _, c in triples for _ in range(2))
            graph = ColoredGraph(
                n=n + len(triples), mode=EDGE, edges=edges, C=never + 1, edge_colors=colors,
            )
        else:  # subdivision vertices carry the edge colors; originals never fail
            colors = (never,) * n + tuple(c for _, _, c in triples)
            graph = ColoredGraph(
                n=n + len(triples), mode=VERTEX, edges=edges, C=never + 1, vertex_colors=colors,
            )
    else:
        raise GraphError(f"unknown subdivision mode {subdivide!r}")
    return EncodedInstance(graph, decoder, arms * M)
