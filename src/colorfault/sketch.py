"""Randomized connectivity labels under arbitrary edge-fault sets.

Each vertex holds, for t repetitions and levels 0..L-1 (L = floor(log2 m) + 1),
the XOR of the names of its sampled incident edges; an edge is sampled at level
i with probability 2^-i via a seeded hash, so XOR-folding the sketches of a
vertex set S leaves, per cell, the XOR of sampled edge names crossing the cut
(S, V-S) -- internal edges cancel.  An edge name packs both endpoints, the edge
id and a keyed checksum, so a cell holding exactly one surviving cut edge is
recognizable and decodable.

A query XORs the given faulty edges' contributions out of their endpoints'
sketches only (every other vertex is read straight from its label) and then
merges components in sketch space, Borůvka style, until the two query
vertices meet or nothing grows.  Each vertex label memoizes its fault-free
decode (``first_hit``), so a singleton part decodes again only when that edge
is faulty.  Merging only ever follows checksum-verified non-faulty edges, so
"connected" answers come with an explicit witness forest; errors are
one-sided toward "disconnected" and vanish quickly with t.

Seeding is splittable and counter-based: every random decision is a hash of
(seed, repetition, edge id), with no global RNG state anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter, xor
from typing import Iterable, Sequence

from .bits import id_width, width_for
from .graph import ColoredGraph, GraphView, UnionFind, as_view

DEFAULT_REPETITIONS = 24
DEFAULT_CHECKSUM_BITS = 32

_MASK64 = (1 << 64) - 1
_CHECKSUM_SALT = 0xC5EC5EC5EC5EC5E5
_LEVEL_SALT = 0x1E7E11E7E11E7E17


class SchemeMismatchError(ValueError):
    """Labels from different builds (seed or shape) were mixed in a query."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_fields(*fields: int) -> int:
    h = 0
    for f in fields:
        h = _splitmix64(h ^ (f & _MASK64))
    return h


@dataclass(frozen=True)
class SketchParams:
    n: int
    edge_id_bound: int
    seed: int
    repetitions: int
    checksum_bits: int
    levels: int
    id_bits: int
    eid_bits: int
    cell_bits: int
    scheme_id: int

    @staticmethod
    def create(
        n: int,
        edge_id_bound: int,
        seed: int,
        repetitions: int = DEFAULT_REPETITIONS,
        checksum_bits: int = DEFAULT_CHECKSUM_BITS,
    ) -> "SketchParams":
        m = max(edge_id_bound, 1)
        levels = m.bit_length()  # floor(log2 m) + 1
        wid = id_width(max(n, 2))
        weid = max(width_for(m), 1)
        cell = 2 * wid + weid + checksum_bits
        scheme_id = _hash_fields(seed, n, edge_id_bound, repetitions, checksum_bits)
        return SketchParams(
            n=n,
            edge_id_bound=edge_id_bound,
            seed=seed,
            repetitions=repetitions,
            checksum_bits=checksum_bits,
            levels=levels,
            id_bits=wid,
            eid_bits=weid,
            cell_bits=cell,
            scheme_id=scheme_id,
        )

    def edge_name(self, u: int, v: int, eid: int) -> int:
        a, b = (u, v) if u <= v else (v, u)
        chk = _hash_fields(self.seed ^ _CHECKSUM_SALT, a, b, eid) & (
            (1 << self.checksum_bits) - 1
        )
        return (
            (((a << self.id_bits) | b) << self.eid_bits | eid)
            << self.checksum_bits
        ) | chk

    def parse_name(self, cell: int) -> tuple[int, int, int] | None:
        """(u, v, eid) when the checksum verifies and fields are in range.

        Self-loops are never sketched, so a cell naming one (a == b) can only
        be a checksum false positive and is rejected.
        """
        chk = cell & ((1 << self.checksum_bits) - 1)
        rest = cell >> self.checksum_bits
        eid = rest & ((1 << self.eid_bits) - 1)
        rest >>= self.eid_bits
        b = rest & ((1 << self.id_bits) - 1)
        a = rest >> self.id_bits
        if a >= b or b >= self.n or eid >= self.edge_id_bound:
            return None
        expect = _hash_fields(self.seed ^ _CHECKSUM_SALT, a, b, eid) & (
            (1 << self.checksum_bits) - 1
        )
        return (a, b, eid) if chk == expect else None

    def edge_level(self, rep: int, eid: int) -> int:
        """Deepest sampling level of the edge: trailing zeros, capped."""
        h = _hash_fields(self.seed ^ _LEVEL_SALT, rep, eid) | (1 << 63)
        return min((h & -h).bit_length() - 1, self.levels - 1)


@dataclass(frozen=True)
class VertexSketchLabel:
    vertex: int
    scheme_id: int
    reps: tuple[int, ...]  # per repetition: levels * cell_bits packed bits
    bits: int = field(default=0, compare=False)
    # decode_cut_edge(params, reps, frozenset()): a query-time memo, not label content
    first_hit: tuple[int, int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EdgeSketchLabel:
    eid: int
    endpoints: tuple[int, int]
    scheme_id: int
    name: int
    level_per_rep: tuple[int, ...]
    contrib: tuple[int, ...] = field(compare=False, default=())
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EdgeFaultLabels:
    """Label set over V u E plus the shared query context (all vertex sketches)."""

    scheme: str
    params: SketchParams
    vertex_labels: tuple[VertexSketchLabel, ...]
    edge_labels: dict[int, EdgeSketchLabel]  # by edge id

    @property
    def n(self) -> int:
        return self.params.n

    def label_groups(self) -> dict[str, Sequence]:
        return {"vertex": self.vertex_labels, "edge": tuple(self.edge_labels.values())}

    def max_label_bits(self) -> int:
        sizes = [l.bits for l in self.vertex_labels]
        sizes += [l.bits for l in self.edge_labels.values()]
        return max(sizes, default=0)


def _edge_contributions(params: SketchParams, name: int, level_per_rep: Sequence[int]) -> tuple[int, ...]:
    w = params.cell_bits
    out = []
    for level in level_per_rep:
        acc = 0
        for i in range(level + 1):
            acc |= name << (w * i)
        out.append(acc)
    return tuple(out)


def build_edge_fault_labels(
    source: ColoredGraph | GraphView | tuple[int, list[tuple[int, int, int]]],
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
    checksum_bits: int = DEFAULT_CHECKSUM_BITS,
) -> EdgeFaultLabels:
    """Sketch labels for a multigraph given as a view or (n, [(eid, u, v)]).

    Self-loops never influence connectivity and are skipped (their XOR would
    cancel within a single vertex anyway).
    """
    if isinstance(source, tuple):
        n, edge_list = source
    else:
        gv = as_view(source)
        n = gv.n
        edge_list = [(eid, u, v) for eid, u, v in gv.surviving_edges()]
    eid_bound = max((eid for eid, _, _ in edge_list), default=-1) + 1
    params = SketchParams.create(n, eid_bound, seed, repetitions, checksum_bits)

    t, L, w = params.repetitions, params.levels, params.cell_bits
    acc = [[0] * t for _ in range(n)]
    edge_labels: dict[int, EdgeSketchLabel] = {}
    for eid, u, v in edge_list:
        name = params.edge_name(u, v, eid)
        levels = tuple(params.edge_level(r, eid) for r in range(t))
        contrib = _edge_contributions(params, name, levels) if u != v else tuple([0] * t)
        ebits = params.cell_bits + t * L  # name + membership bit-vector
        edge_labels[eid] = EdgeSketchLabel(
            eid, (u, v), params.scheme_id, name, levels, contrib, ebits
        )
        if u == v:
            continue
        for r in range(t):
            c = contrib[r]
            acc[u][r] ^= c
            acc[v][r] ^= c

    vbits = params.id_bits + 64 + t * L * w  # vertex id + scheme id + cells
    vertex_labels = tuple(
        VertexSketchLabel(v, params.scheme_id, tuple(acc[v]), vbits,
                          decode_cut_edge(params, acc[v], frozenset()))
        for v in range(n)
    )
    return EdgeFaultLabels("edge-fault-sketch", params, vertex_labels, edge_labels)


def fold_sketch(labels: EdgeFaultLabels, vertices: Iterable[int]) -> tuple[int, ...]:
    """XOR of the vertex sketches over a set: the sketch of the contracted set."""
    t = labels.params.repetitions
    acc = [0] * t
    for v in vertices:
        reps = labels.vertex_labels[v].reps
        for r in range(t):
            acc[r] ^= reps[r]
    return tuple(acc)


def decode_cut_edge(
    params: SketchParams,
    folded: Sequence[int],
    reject: frozenset[int],
) -> tuple[int, int, int] | None:
    """First checksum-verified edge in any cell, ids in ``reject`` skipped."""
    w = params.cell_bits
    mask = (1 << w) - 1
    for rep_value in folded:
        x = rep_value
        while x:
            cell = x & mask
            x >>= w
            if not cell:
                continue
            hit = params.parse_name(cell)
            if hit is not None and hit[2] not in reject:
                return hit
    return None


def query_edge_fault(
    labels: EdgeFaultLabels,
    lu: VertexSketchLabel,
    lv: VertexSketchLabel,
    faulty: Iterable[EdgeSketchLabel],
    want_witness: bool = False,
):
    """Connectivity of the two vertices after removing the faulty edges.

    Borůvka over parts of the vertex set: in each round every part decodes one
    cut edge from its sketch (faulty ids rejected), then all decoded merges are
    applied.  Only the faulty edges' endpoints have sketches that differ from
    their labels, so only they are patched; a part that is still an untouched
    singleton takes its label's memoized ``first_hit`` and decodes again only
    when that edge is faulty.  A merged part keeps its members' sketches and
    folds a repetition only when its decode reaches it.  The query returns as
    soon as a merge joins the two vertices.

    Merging follows only verified, non-faulty edges, so a True answer is
    certified by the returned witness forest; False may (rarely) be returned
    for connected pairs when no cell isolates a single cut edge.
    """
    params = labels.params
    for lbl in (lu, lv):
        if lbl.scheme_id != params.scheme_id:
            raise SchemeMismatchError("vertex label from a different build")
    fault_list: dict[int, EdgeSketchLabel] = {}
    for fl in faulty:
        if fl.scheme_id != params.scheme_id:
            raise SchemeMismatchError("edge label from a different build")
        fault_list[fl.eid] = fl
    u, v = lu.vertex, lv.vertex
    witness: list[tuple[int, int, int]] = []
    if u == v:
        return (True, witness) if want_witness else True

    vertex_labels = labels.vertex_labels
    t = params.repetitions
    # Member sketches per part root, for merged parts and fault endpoints only;
    # any other root is an untouched singleton whose sketch is its label's reps.
    # A part's repetitions are folded one at a time as its decode reaches them.
    parts: dict[int, list[Sequence[int]]] = {}
    for fl in fault_list.values():
        a, b = fl.endpoints
        if a != b:
            for x in (a, b):
                sketch = parts[x][0] if x in parts else vertex_labels[x].reps
                parts[x] = [list(map(xor, sketch, fl.contrib))]

    n = params.n
    uf = UnionFind(n)
    find, parent = uf.find, uf.parent
    reject = frozenset(fault_list)
    ru, rv = u, v  # roots of the parts holding u and v
    roots = range(n)
    for _round in range(max(n - 1, 1).bit_length() + 1):
        merges: list[tuple[int, int, int]] = []
        for root in roots:
            members = parts.get(root)
            if members is not None:
                folded = (reduce(xor, map(itemgetter(r), members)) for r in range(t))
                hit = decode_cut_edge(params, folded, reject)
            else:
                hit = vertex_labels[root].first_hit
                if hit is not None and hit[2] in reject:
                    hit = decode_cut_edge(params, vertex_labels[root].reps, reject)
            if hit is not None and find(hit[0]) != find(hit[1]):
                merges.append(hit)
        if not merges:
            break  # cannot certify further growth: stop toward "disconnected"
        for a, b, eid in merges:
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            witness.append((eid, a, b))
            uf.union(ra, rb)
            r, other = (ra, rb) if parent[rb] == ra else (rb, ra)  # r: the larger part
            members = parts.pop(r, None) or [vertex_labels[r].reps]
            members += parts.pop(other, None) or [vertex_labels[other].reps]
            parts[r] = members
            if ru in (ra, rb):
                ru = r
            if rv in (ra, rb):
                rv = r
            if ru == rv:
                return (True, witness) if want_witness else True
        roots = [root for root in roots if parent[root] == root]
    return (False, []) if want_witness else False
