"""Randomized connectivity labels under arbitrary edge-fault sets.

These are Dory–Parter f-edge-fault labels (PODC 2021) built from XOR cut
sketches in the style of Kapron–King–Mountjoy (SODA 2013).  The sketch of a
vertex set S holds, for t repetitions and levels 0..L-1 (L = floor(log2 m) + 1),
the XOR of the names of the sampled edges crossing the cut (S, V-S); an edge
is sampled at level i with probability 2^-i via a seeded hash.  That hash is
three splitmix rounds over (seed, repetition, edge id), and the first two
depend only on the seed and the repetition, so a build computes them once per
repetition and a sampling level costs one round; an edge's t contributions
share one int per distinct level.  So the sketch
of a union of disjoint sets is the XOR of their sketches, and the sketch of a
whole connected component is zero.  An edge name packs both endpoints, the
edge id and a keyed checksum of a fixed ``CHECKSUM_BITS`` = 32 bits, so a
cell holding exactly one cut edge is recognizable and decodable, and a cell
holding the XOR of several names passes the checksum with probability 2^-32.

The build fixes a spanning forest T of the graph (the caller may say which
edges to sketch and which T should prefer; the default is every edge by id)
and numbers the vertices in T's pre-order, so that each subtree is an
interval of pre-order numbers.  Edge names pack pre-order numbers.  The
labels are:

- a vertex: its pre-order number, its tree's pre-order interval and the
  scheme id; no sketch;
- an edge: its name and its sampling level per repetition; a tree edge also
  holds its lower endpoint's (pre, subtree size) and that subtree's sketch.

A query reads only the labels of u, v and the faulty edges.  The k faulty tree
edges cut u's tree into at most k+1 parts, each a pre-order interval minus the
intervals cut below it; a bisect over the cut intervals finds a vertex's part.
When u and v share a part, T joins them and the query returns at once.
Otherwise a part's sketch is its top's subtree sketch XOR those of the cut tops
directly below it (the part holding the root is the XOR of its cut children
alone, because a whole tree's sketch is zero), XOR the contribution of each
faulty edge with one endpoint in it.  A part holds those rows as a set of keys
and folds them one repetition at a time, only when a decode reads that
repetition; a decode usually stops within the first one or two of the t.
Parts merge Borůvka style, a merge taking the symmetric difference of the key
sets, and decoding stops as soon as u's and v's parts meet.  Merging only ever
follows checksum-verified non-faulty edges, so a "connected" answer comes with
a witness; errors are one-sided toward "disconnected" and vanish quickly with t.

The many-fault schemes of :mod:`colorfault.multi_fault` run these labels on
their certificate.  The recursive scheme queries from labels alone; the
large-f scheme keeps the tree-edge labels in a shared context, because a
color label carrying a subtree sketch for each of its tree edges would be far
larger than any other label.

Seeding is splittable and counter-based: every random decision is a hash of
(seed, repetition, edge id), with no global RNG state anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import xor
from typing import Iterable, Iterator, Sequence

from .bits import id_width, width_for
from .graph import ColoredGraph, UnionFind, orient_forest, preorder, spanning_forest

DEFAULT_REPETITIONS = 24
CHECKSUM_BITS = 32  # a cell naming no single edge passes with probability 2^-32

_MASK64 = (1 << 64) - 1
_CHECKSUM_SALT = 0xC5EC5EC5EC5EC5E5
_LEVEL_SALT = 0x1E7E11E7E11E7E17
_TOP_BIT = 1 << 63  # caps a level hash's trailing zeros at 63


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


@dataclass(frozen=True, slots=True)
class SketchParams:
    n: int
    edge_id_bound: int
    seed: int
    repetitions: int
    checksum_bits: int  # always CHECKSUM_BITS; the scheme id hashes it
    levels: int
    id_bits: int
    eid_bits: int
    cell_bits: int
    scheme_id: int
    checksum_key: int  # the seed-only first round of every checksum hash

    @staticmethod
    def create(
        n: int,
        edge_id_bound: int,
        seed: int,
        repetitions: int = DEFAULT_REPETITIONS,
    ) -> "SketchParams":
        # no repetition leaves no sketch
        if repetitions < 1:
            raise ValueError(f"sketch repetitions must be >= 1, got {repetitions}")
        m = max(edge_id_bound, 1)
        levels = m.bit_length()  # floor(log2 m) + 1
        wid = id_width(max(n, 2))
        weid = max(width_for(m), 1)
        cell = 2 * wid + weid + CHECKSUM_BITS
        scheme_id = _hash_fields(seed, n, edge_id_bound, repetitions, CHECKSUM_BITS)
        return SketchParams(
            n=n,
            edge_id_bound=edge_id_bound,
            seed=seed,
            repetitions=repetitions,
            checksum_bits=CHECKSUM_BITS,
            levels=levels,
            id_bits=wid,
            eid_bits=weid,
            cell_bits=cell,
            scheme_id=scheme_id,
            checksum_key=_hash_fields(seed ^ _CHECKSUM_SALT),
        )

    @property
    def sketch_bits(self) -> int:
        """One full sketch (t * L cells) plus a vertex id and the 64-bit scheme id."""
        return self.id_bits + 64 + self.repetitions * self.levels * self.cell_bits

    def checksum(self, a: int, b: int, eid: int) -> int:
        """``_hash_fields(seed ^ _CHECKSUM_SALT, a, b, eid)`` cut to the checksum width."""
        h = _splitmix64(_splitmix64(_splitmix64(self.checksum_key ^ a) ^ b) ^ eid)
        return h & ((1 << self.checksum_bits) - 1)

    def edge_name(self, u: int, v: int, eid: int) -> int:
        """The cell value naming edge ``eid`` between pre-order numbers u and v."""
        a, b = (u, v) if u <= v else (v, u)
        return (
            (((a << self.id_bits) | b) << self.eid_bits | eid)
            << self.checksum_bits
        ) | self.checksum(a, b, eid)

    def parse_name(self, cell: int) -> tuple[int, int, int] | None:
        """(a, b, eid) when the checksum verifies and fields are in range.

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
        return (a, b, eid) if chk == self.checksum(a, b, eid) else None


@dataclass(frozen=True, slots=True)
class VertexSketchLabel:
    """A vertex's pre-order number in T and its tree's pre-order interval [first, end).

    ``params`` are the build's public parameters, which the 64-bit scheme id
    stands for in ``bits``.
    """

    pre: int
    tree: tuple[int, int]
    params: SketchParams
    bits: int = field(default=0, compare=False)

    @property
    def scheme_id(self) -> int:
        return self.params.scheme_id


@dataclass(frozen=True, slots=True)
class EdgeSketchLabel:
    eid: int
    scheme_id: int
    name: int
    level_per_rep: tuple[int, ...]
    lower: tuple[int, int] | None = None  # tree edge: lower endpoint's (pre, subtree size)
    subtree: tuple[int, ...] = ()  # tree edge: the lower endpoint's subtree sketch
    # read off ``name`` and ``level_per_rep``: query-time conveniences, not label content
    endpoints: tuple[int, int] = field(default=(0, 0), compare=False)
    contrib: tuple[int, ...] = field(default=(), compare=False)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class EdgeFaultLabels:
    """Label set over V u E; a query reads only ``params`` from it."""

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


def build_edge_fault_labels(
    g: ColoredGraph,
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
    order: Sequence[int] | None = None,
) -> EdgeFaultLabels:
    """Tree-part sketch labels for the edges ``order`` of ``g``.

    ``order`` lists the edge ids to sketch, in the order the spanning forest T
    prefers them; the default is every edge by increasing id.
    Self-loops get a label but never influence connectivity: their sketch
    contribution is zero.
    """
    n = g.n
    eids = list(range(g.m)) if order is None else list(order)
    params = SketchParams.create(n, max(eids, default=-1) + 1, seed, repetitions)
    t, L, w = params.repetitions, params.levels, params.cell_bits

    parent, parent_edge = orient_forest(g, spanning_forest(g, eids))
    order, pre, end = preorder(parent)
    tree: list[tuple[int, int]] = [(0, 0)] * n
    for x in order:
        p = parent[x]
        tree[x] = (pre[x], end[x]) if p is None else tree[p]

    ebits = params.cell_bits + t * L  # name + membership bit-vector
    tree_bits = 2 * params.id_bits + t * L * w  # lower endpoint's (pre, size) + subtree sketch
    tree_eids = set(parent_edge)
    # the seed and repetition rounds of every level hash, once per build
    keys, top = [_hash_fields(seed ^ _LEVEL_SALT, r) for r in range(t)], L - 1
    sid = params.scheme_id
    acc = [[0] * t for _ in range(n)]
    built: dict[int, EdgeSketchLabel] = {}
    tree_rows: dict[int, tuple] = {}  # a tree edge's label waits for its subtree sketch
    for eid in eids:
        u, v = g.edges[eid]
        a, b = pre[u], pre[v]
        name = params.edge_name(a, b, eid)
        # level r is _hash_fields(seed ^ _LEVEL_SALT, r, eid)'s trailing zeros, capped at
        # L - 1: its last round, ``_splitmix64(keys[r] ^ eid)``, inlined
        levels = []
        for key in keys:
            x = ((key ^ eid) + 0x9E3779B97F4A7C15) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            x = (x ^ (x >> 31)) | _TOP_BIT
            level = (x & -x).bit_length() - 1
            levels.append(level if level < top else top)
        if u != v:
            # the name in cells 0..i, for each level i up to the deepest: one int per distinct level
            cells = [name]
            for i in range(1, max(levels) + 1):
                cells.append(cells[-1] | name << (w * i))
            contrib = tuple([cells[level] for level in levels])
            acc[u] = list(map(xor, acc[u], contrib))
            acc[v] = list(map(xor, acc[v], contrib))
        else:
            contrib = (0,) * t
        row = (eid, sid, name, tuple(levels))
        ends = (a, b) if a <= b else (b, a)
        if eid in tree_eids:
            tree_rows[eid] = (row, ends, contrib)
        else:
            built[eid] = EdgeSketchLabel(*row, None, (), ends, contrib, ebits)
    for x in reversed(order):  # acc[x] is complete: x's subtree sketch
        p = parent[x]
        if p is not None:
            acc[p] = list(map(xor, acc[p], acc[x]))
            eid = parent_edge[x]
            row, ends, contrib = tree_rows[eid]
            built[eid] = EdgeSketchLabel(*row, (pre[x], end[x] - pre[x]), tuple(acc[x]),
                                         ends, contrib, ebits + tree_bits)
    edge_labels = {eid: built[eid] for eid in eids}
    vbits = 3 * params.id_bits + 64  # pre, tree interval, scheme id
    vertex_labels = tuple(VertexSketchLabel(pre[x], tree[x], params, vbits) for x in range(n))
    return EdgeFaultLabels("edge-fault-sketch", params, vertex_labels, edge_labels)


class TreeParts:
    """The parts of one tree of T once some of its tree edges are cut.

    Part 0 holds the root; part i > 0 is the subtree of the i-th cut top (by
    pre-order) minus the subtrees cut below it.  Part i is a set of row keys,
    ``keys[i]``, and its sketch is the XOR of the t-lists ``rows[k]`` for k in
    it.  Row i > 0 is the i-th cut top's subtree sketch, held by part i and by
    the part directly above it (the root part has no top row, since its whole
    tree's sketch is zero); :meth:`cross` adds a row per faulty edge with its
    endpoints in two parts.  Merging two parts takes the symmetric difference
    of their key sets, so a shared cut top or crossing edge cancels exactly as
    in the XOR.  Nothing is folded until :meth:`folds` is read.
    """

    def __init__(self, tree: tuple[int, int], cuts: Iterable[EdgeSketchLabel], repetitions: int):
        cuts = sorted(cuts, key=lambda lbl: lbl.lower)
        self.repetitions = repetitions
        self.starts = starts = [tree[0]] + [lbl.lower[0] for lbl in cuts]
        self.ends = ends = [tree[1]] + [p + s for p, s in (lbl.lower for lbl in cuts)]
        self.up = up = [0] * len(starts)  # the part enclosing each cut top
        # row i > 0: the i-th cut top's subtree sketch; no part holds row 0
        self.rows: list[Sequence[int]] = [()] + [lbl.subtree for lbl in cuts]
        self.keys: list[set[int]] = [set()]
        keys = self.keys
        stack = [0]
        for i in range(1, len(starts)):
            while ends[stack[-1]] <= starts[i]:
                stack.pop()
            up[i] = stack[-1]
            stack.append(i)
            keys.append({i})
            keys[up[i]].add(i)

    def part_of(self, p: int) -> int:
        """The part holding pre-order number ``p`` of this tree."""
        i = bisect_right(self.starts, p) - 1
        ends, up = self.ends, self.up
        while p >= ends[i]:
            i = up[i]
        return i

    def cross(self, contrib: Sequence[int], pa: int, pb: int) -> None:
        """Add an edge's sketch contribution to parts ``pa`` and ``pb``."""
        key = len(self.rows)
        self.rows.append(contrib)
        self.keys[pa].add(key)
        self.keys[pb].add(key)

    def folds(self, part: int) -> Iterator[int]:
        """Part ``part``'s sketch, one repetition at a time, each folded when read."""
        rows = [self.rows[k] for k in self.keys[part]]
        for r in range(self.repetitions):
            acc = 0
            for row in rows:
                acc ^= row[r]
            yield acc


def decode_cut_edge(
    params: SketchParams,
    folded: Iterable[int],
    reject: frozenset[int],
) -> tuple[int, int, int] | None:
    """First checksum-verified edge in any cell, ids in ``reject`` skipped.

    ``folded`` gives one packed repetition at a time; the search stops reading
    it at the first hit.
    """
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
    labels,
    lu: VertexSketchLabel,
    lv: VertexSketchLabel,
    faulty: Iterable[EdgeSketchLabel],
    want_witness: bool = False,
):
    """Connectivity of the two vertices after removing the faulty edges.

    ``labels`` is the label set or one of its vertex labels: only its
    ``params`` are read, and everything else comes from ``lu``, ``lv`` and
    the faulty edges' labels.  Vertices in different trees of T are
    disconnected.  Otherwise the faulty tree edges in their tree split it into
    parts (:class:`TreeParts`); when u and v fall in one part the answer is
    True with an empty witness, and no sketch row is read.  Else each faulty
    edge joining two parts adds its contribution row to both, and Borůvka
    merges parts in rounds.  In part order, each part of the round decodes one
    cut edge from its sketch as the round began (faulty ids rejected),
    folding each repetition only when the decode reaches it, and a decoded
    edge between two parts not yet merged is merged at once; the query
    returns as soon as the two vertices' parts meet, leaving the rest of the
    round undecoded.  This applies the merges, and builds the witness, that
    decoding the whole round first would.  A round that merges nothing ends
    the query toward "disconnected".

    A part is joined inside by T's non-faulty edges, so a True answer is
    certified by the witness (edge id, pre-order endpoints) of merge edges
    together with T minus the faulty edges; False may (rarely) be returned
    for connected pairs when no cell isolates a single cut edge.  (The
    large-f scheme passes the faulty tree edges' labels from its shared
    context; see :mod:`colorfault.multi_fault`.)
    """
    params = labels.params
    sid = params.scheme_id
    for lbl in (lu, lv):
        if lbl.scheme_id != sid:
            raise SchemeMismatchError("vertex label from a different build")
    faults: dict[int, EdgeSketchLabel] = {}
    for fl in faulty:
        if fl.scheme_id != sid:
            raise SchemeMismatchError("edge label from a different build")
        faults[fl.eid] = fl
    witness: list[tuple[int, int, int]] = []
    if lu.tree != lv.tree:
        return (False, witness) if want_witness else False

    lo, hi = lu.tree
    parts = TreeParts(
        lu.tree,
        (fl for fl in faults.values() if fl.lower is not None and lo <= fl.lower[0] < hi),
        params.repetitions,
    )
    part_of = parts.part_of
    pu, pv = part_of(lu.pre), part_of(lv.pre)
    if pu == pv:
        return (True, witness) if want_witness else True
    for fl in faults.values():
        a, b = fl.endpoints
        if lo <= a < hi:
            pa, pb = part_of(a), part_of(b)
            if pa != pb:
                parts.cross(fl.contrib, pa, pb)

    keys = parts.keys
    uf = UnionFind(len(keys))
    find, parent = uf.find, uf.parent
    reject = frozenset(faults)
    roots = range(len(keys))
    while True:
        grown: dict[int, set[int]] = {}  # this round's merged key sets, decoded from the next
        for root in roots:
            hit = decode_cut_edge(params, parts.folds(root), reject)
            if hit is None:
                continue
            a, b, eid = hit
            if not (lo <= a < hi and lo <= b < hi):  # a checksum false positive may name any pair
                continue
            ra, rb = find(part_of(a)), find(part_of(b))
            if ra == rb:
                continue
            witness.append((eid, a, b))
            merged = grown.get(ra, keys[ra]) ^ grown.get(rb, keys[rb])
            uf.union(ra, rb)
            grown[find(ra)] = merged
            if find(pu) == find(pv):
                return (True, witness) if want_witness else True
        if not grown:
            return (False, []) if want_witness else False
        for root, merged in grown.items():
            keys[root] = merged
        roots = [root for root in roots if parent[root] == root]
