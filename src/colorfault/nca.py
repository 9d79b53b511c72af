"""Nearest-colored-ancestor structures: centralized one-fault oracle and labels.

One index serves every query here.  A rooted forest gets DFS pre/post stamps;
for each color, the stamps of its vertices form one sorted tuple, with a
parallel tuple of answers: the vertex at its pre stamp, its nearest
strictly-above same-color ancestor at its post stamp.  The nearest c-colored
ancestor of v (v itself included) is then the answer at the predecessor of
pre(v) in c's stamps.  Binary search gives O(log n) queries; the
asymptotically faster predecessor structures this replaces would return
identical answers.

The one-fault connectivity oracle colors each non-root vertex of a spanning
forest with its parent-edge color (edge mode) or its parent's own color
(vertex mode, on the graph as given, with no subdivision) and stores
cid(u, G-color) as its payload.  ``OneFaultOracle.cids`` reads cid(v, G-c)
off that index; the one-fault labels of ``single_fault`` take every entry
from it.  The two label families here split the same index by color prevalence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bits import BitReader, BitWriter, id_width, width_for
from .graph import (
    EDGE,
    VERTEX,
    ColoredGraph,
    GraphError,
    RemovedVertexError,
    cids_after_faults,
    orient_forest,
    preorder,
    spanning_forest,
)
from .labels import LabelSet

ORACLE_MAGIC = 0x43464C4F  # "CFLO"
ORACLE_VERSION = 1
CONN_SCHEME = "nca-connectivity"


@dataclass(frozen=True)
class NcaStructure:
    parent: tuple[int | None, ...]
    pre: tuple[int, ...]
    root: tuple[int, ...]  # per vertex: the root of its tree
    colors: tuple[int | None, ...]
    arrays: dict[int, tuple[int, ...]]  # per color: sorted pre/post stamps
    answers: dict[int, tuple[int | None, ...]]  # parallel: vertex at pre, its above at post


def build_nca(parent: list[int | None], colors: list[int | None]) -> NcaStructure:
    """Index a rooted forest for nearest-colored-ancestor queries.

    ``parent[v] is None`` marks roots; ``colors[v] is None`` leaves v out of
    every array.  The stamps are a DFS's that visits roots and children by
    increasing id, read off ``preorder``: v enters at 2 pre - depth and exits
    at 2 end - depth - 1.  Walking a color's vertices in pre-order, a stack of
    open ones exits each vertex whose subtree has ended, with the vertex below
    it, its nearest strictly-above same-color ancestor, as the answer at its
    exit.  Raises GraphError when the parents do not form a forest.
    """
    n = len(parent)
    order, pre, end = preorder(parent)
    if len(order) != n:
        raise GraphError("parent pointers do not form a forest")
    depth = [0] * n
    root = list(range(n))
    members: dict[int, list[int]] = {}  # per color: its vertices in pre-order
    for v in order:
        p = parent[v]
        if p is not None:
            depth[v] = depth[p] + 1
            root[v] = root[p]
        if colors[v] is not None:
            members.setdefault(colors[v], []).append(v)
    arrays: dict[int, tuple[int, ...]] = {}
    answers: dict[int, tuple[int | None, ...]] = {}
    for c, vs in members.items():
        stamps, above, chain = [], [], []  # chain: the color's open vertices
        for v in vs + [None]:  # None closes every open vertex
            until = n if v is None else pre[v]
            while chain and end[chain[-1]] <= until:
                x = chain.pop()
                stamps.append(2 * end[x] - depth[x] - 1)
                above.append(chain[-1] if chain else None)
            if v is not None:
                chain.append(v)
                stamps.append(2 * pre[v] - depth[v])
                above.append(v)
        arrays[c], answers[c] = tuple(stamps), tuple(above)
    return NcaStructure(
        parent=tuple(parent),
        pre=tuple(2 * i - d for i, d in zip(pre, depth)),
        root=tuple(root),
        colors=tuple(colors),
        arrays=arrays,
        answers=answers,
    )


def _predecessor(stamps: tuple[int, ...], answers: tuple, key: int):
    """Answer stored at the last stamp <= key, or None when there is none.

    A pre-stamp hit is an ancestor of the key's vertex with no same-color
    stamp between them; a post-stamp hit is a finished subtree, whose stored
    above is the answer.
    """
    idx = bisect_right(stamps, key)
    return answers[idx - 1] if idx else None


def nca_query(s: NcaStructure, v: int, c: int) -> int | None:
    """Nearest c-colored ancestor of v (v itself included), or None."""
    if not 0 <= v < len(s.pre):
        raise GraphError(f"vertex {v} out of range")
    return _predecessor(s.arrays.get(c, ()), s.answers.get(c, ()), s.pre[v])


# -- one-fault connectivity oracle ---------------------------------------------


@dataclass(frozen=True)
class OneFaultOracle:
    """O(n)-word centralized structure answering (u, v, c) connectivity."""

    n: int  # vertices of the graph
    C: int
    mode: str
    structure: NcaStructure
    root_cid: tuple[int, ...]  # per forest vertex: id of its tree root
    payloads: tuple[int | None, ...]  # per non-root: cid in G minus its forest color
    vertex_colors: tuple[int, ...] | None  # the graph's colors (vertex mode)

    def query(self, u: int, v: int, c: int) -> bool:
        cu, cv = self.cids(c, (u, v))
        return cu == cv

    def cids(self, c: int, vertices: Iterable[int]) -> list[int]:
        """cid(v, G-c) for each of ``vertices``: the one read-off of the index.

        The answer is the payload at v's nearest c-colored ancestor or, with
        none, v's root: the path to the root survives, and the root is its
        component minimum.  c's stamps are bound once for all the vertices.
        Raises GraphError for an id outside the graph or the palette, and
        RemovedVertexError for a vertex of color c itself.
        """
        if not 0 <= c < self.C:
            raise GraphError(f"color {c} outside palette")
        s = self.structure
        stamps, answers = s.arrays.get(c, ()), s.answers.get(c, ())
        out = []
        for v in vertices:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range")
            if self.vertex_colors is not None and self.vertex_colors[v] == c:
                raise RemovedVertexError(f"vertex {v} has color {c}")
            i = bisect_right(stamps, s.pre[v])  # _predecessor, inlined
            w = answers[i - 1] if i else None
            out.append(self.root_cid[v] if w is None else self.payloads[w])
        return out


def build_one_fault_oracle(g: ColoredGraph) -> OneFaultOracle:
    """Spanning-forest reduction to nearest colored ancestor.

    Each non-root forest vertex w takes the one color whose fault cuts it
    from its parent: its parent edge's color in edge mode, its parent's own
    color in vertex mode (no subdivision; the forest has g.n vertices).  Its
    payload is cid(w, G minus that color).  In vertex mode the nearest such w
    above a surviving v sits below v's nearest ancestor of the failed color,
    so it survives too; a w of its parent's color is never read and stores w.
    """
    parent, edge_of = orient_forest(g, spanning_forest(g))
    colors: list[int | None]
    if g.mode == EDGE:
        colors = [None if e is None else g.edge_color(e) for e in edge_of]
    else:
        colors = [None if p is None else g.vertex_color(p) for p in parent]
    wanted: dict[frozenset[int], list[int]] = {}
    for v, c in enumerate(colors):
        if c is not None:
            wanted.setdefault(frozenset((c,)), []).append(v)
    cids = cids_after_faults(g, wanted)
    payloads: list[int | None] = [None] * g.n
    for got in cids.values():
        for v, value in got.items():
            payloads[v] = v if value is None else value
    structure = build_nca(parent, colors)
    return OneFaultOracle(
        n=g.n,
        C=g.C,
        mode=g.mode,
        structure=structure,
        root_cid=structure.root,
        payloads=tuple(payloads),
        vertex_colors=g.vertex_colors,
    )


# -- canonical oracle file -------------------------------------------------------
#
# The file stores, per forest vertex: parent pointer (self-loop marks a root),
# forest color (0 filler at roots) and the payload cid.  Timestamps and
# per-color arrays are derived deterministically on load, so the body costs at
# most 3 * ceil(log2 n') bits per vertex when C <= n'.


def oracle_file_bits(o: OneFaultOracle) -> tuple[int, int]:
    """(header bits, body bits) of the canonical encoding."""
    n = len(o.structure.parent)
    wid = id_width(n)
    wc = width_for(o.C)
    header = 32 + 8 + 8 + 32 + 32  # magic, version, mode, n', C
    if o.vertex_colors is not None:
        header += 32 + o.n * wc  # original n and the original coloring
    return header, n * (wid + wc + wid)


def dump_oracle(o: OneFaultOracle) -> bytes:
    s = o.structure
    n = len(s.parent)
    wid = id_width(n)
    wc = width_for(o.C)
    w = BitWriter()
    w.write(ORACLE_MAGIC, 32)
    w.write(ORACLE_VERSION, 8)
    w.write(0 if o.mode == EDGE else 1, 8)
    w.write(n, 32)
    w.write(o.C, 32)
    for v in range(n):
        p = s.parent[v]
        w.write(v if p is None else p, wid)
        w.write(s.colors[v] if s.colors[v] is not None else 0, wc)
        payload = o.payloads[v]
        w.write(o.root_cid[v] if payload is None else payload, wid)
    # vertex-mode oracles additionally persist the original coloring so
    # removed-endpoint queries can be detected; oracle_file_bits counts it in
    # the header
    if o.vertex_colors is not None:
        w.write(o.n, 32)
        for c in o.vertex_colors:
            w.write(c, wc)
    return w.to_bytes()


def load_oracle(data: bytes) -> OneFaultOracle:
    """Parse an oracle file; a malformed or truncated one raises GraphError."""
    r = BitReader(data)

    def expect(bits: int, part: str) -> None:
        if r.remaining < bits:
            raise GraphError(f"oracle file truncated in its {part}")

    expect(32 + 8 + 8 + 32 + 32, "header")
    if r.read(32) != ORACLE_MAGIC:
        raise GraphError("not an oracle file")
    if r.read(8) != ORACLE_VERSION:
        raise GraphError("unsupported oracle file version")
    mode_byte = r.read(8)
    if mode_byte > 1:
        raise GraphError(f"oracle file: unknown mode byte {mode_byte}")
    mode = EDGE if mode_byte == 0 else VERTEX
    n = r.read(32)
    C = r.read(32)
    wid = id_width(n)
    wc = width_for(C)
    expect(n * (wid + wc + wid), "body")
    parent: list[int | None] = []
    colors: list[int | None] = []
    stored: list[int] = []
    for v in range(n):
        p, c, cid = r.read(wid), r.read(wc), r.read(wid)
        if not (p < n and cid < n):
            raise GraphError(f"oracle file: vertex {v} has parent {p}, cid {cid} outside 0..{n - 1}")
        if p == v:
            parent.append(None)
            colors.append(None)
        elif c < C:
            parent.append(p)
            colors.append(c)
        else:
            raise GraphError(f"oracle file: vertex {v} has color {c} outside palette of size {C}")
        stored.append(cid)
    structure = build_nca(parent, colors)  # GraphError unless a forest
    orig_n, vertex_colors = n, None
    if mode == VERTEX:
        expect(32, "vertex colors")
        orig_n = r.read(32)
        if orig_n > n:
            raise GraphError(f"oracle file: {orig_n} original vertices exceed forest size {n}")
        expect(orig_n * wc, "vertex colors")
        vertex_colors = tuple(r.read(wc) for _ in range(orig_n))
        if any(c >= C for c in vertex_colors):
            raise GraphError(f"oracle file: vertex color outside palette of size {C}")
    return OneFaultOracle(
        n=orig_n,
        C=C,
        mode=mode,
        structure=structure,
        root_cid=tuple(stored[root] for root in structure.root),
        payloads=tuple(None if p is None else cid for p, cid in zip(parent, stored)),
        vertex_colors=vertex_colors,
    )


# -- nearest-colored-ancestor labels ---------------------------------------------


def nca_threshold(n: int) -> int:
    """Prevalence cut-off between vertex-side and color-side storage.

    ~sqrt(n)/2 balances the two label classes so both stay within 3 sqrt(n)
    id-widths under the canonical encoding; the sqrt(n) asymptotics and the
    query procedure are unchanged.
    """
    import math

    return max(2, math.isqrt(n) // 2 + 1)


@dataclass(frozen=True)
class NcaVertexLabel:
    vertex: int
    pre: int
    root_cid: int | None  # connectivity labels: cid of the tree root
    own_color: int | None  # vertex-mode connectivity labels: the vertex's color
    prevalent: dict[int, int | None]  # color -> answer at the nearest ancestor (None = absent)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NcaColorLabel:
    color: int
    prevalent: bool
    stamps: tuple[int, ...]  # the color's sorted pre/post stamps (rare colors only)
    answers: tuple[int | None, ...]  # parallel to stamps
    bits: int = field(default=0, compare=False)


def _split_labels(
    s: NcaStructure,
    answers: dict[int, tuple[int | None, ...]],
    C: int,
    wid: int,
    wc: int,
    root_cid: Sequence[int] | None = None,
    own_colors: Sequence[int] | None = None,
) -> tuple[tuple[NcaVertexLabel, ...], tuple[NcaColorLabel, ...], int]:
    """Prevalence-split labels over one index: (vertex labels, color labels, tau).

    Colors with at least ``nca_threshold(n)`` vertices are answered directly
    from the vertex labels; rarer colors ship their stamps and ``answers``
    (parallel to ``s.arrays``) in the color label.  Connectivity labels also
    carry ``root_cid`` and, in vertex mode, the vertex's own color.
    """
    n = len(s.parent)
    tau = nca_threshold(n)
    wstamp = width_for(2 * n)
    wlen = width_for(n + 1)
    prevalent = [c for c in range(C) if len(s.arrays.get(c, ())) >= 2 * tau]

    extra = (0 if root_cid is None else wid) + (0 if own_colors is None else wc)
    vertex_labels = []
    for v in range(n):
        pre = s.pre[v]
        hits = {c: _predecessor(s.arrays[c], answers[c], pre) for c in prevalent}
        bits = wstamp + extra + wlen + len(hits) * (wc + wid + 1)
        vertex_labels.append(NcaVertexLabel(
            v, pre,
            None if root_cid is None else root_cid[v],
            None if own_colors is None else own_colors[v],
            hits, bits,
        ))

    color_labels = []
    for c in range(C):
        stamps = s.arrays.get(c, ())
        if len(stamps) >= 2 * tau:
            color_labels.append(NcaColorLabel(c, True, (), (), wc + 1))
            continue
        bits = wc + 1 + wlen + len(stamps) // 2 * (2 * wstamp + 2 * wid + 1)
        color_labels.append(NcaColorLabel(c, False, stamps, answers.get(c, ()), bits))
    return tuple(vertex_labels), tuple(color_labels), tau


def label_nca(
    parent: list[int | None], colors: list[int | None], C: int | None = None
) -> LabelSet:
    """Nearest-colored-ancestor labels with a prevalence split.

    Colors with at least ``nca_threshold(n)`` vertices are answered directly
    from vertex labels; rarer colors ship their whole stamp array in the color
    label and are answered by predecessor search against pre(v).
    """
    n = len(parent)
    if C is None:
        C = max((c for c in colors if c is not None), default=-1) + 1
    s = build_nca(parent, colors)
    vertex_labels, color_labels, tau = _split_labels(
        s, s.answers, C, id_width(n), width_for(C)
    )
    return LabelSet(
        scheme="nca",
        n=n,
        C=C,
        mode=VERTEX,
        vertex_labels=vertex_labels,
        color_labels=color_labels,
        meta={"threshold": tau},
    )


def query_nca_labels(lv: NcaVertexLabel, lc: NcaColorLabel) -> int | None:
    """The stored answer at lv's nearest ancestor in lc's color, from the labels alone."""
    if lc.prevalent:
        return lv.prevalent.get(lc.color)
    return _predecessor(lc.stamps, lc.answers, lv.pre)


# -- connectivity labels via nearest colored ancestors ---------------------------


def label_nca_connectivity(g: ColoredGraph) -> LabelSet:
    """One-fault connectivity labels built from the ancestor structure.

    Same forest reduction and index as the centralized oracle, but
    distributed: an answer is the oracle's payload at the nearest ancestor,
    its cid in G minus its color.  Exact, like the oracle.
    """
    oracle = build_one_fault_oracle(g)
    s = oracle.structure
    cids = {
        c: tuple(None if w is None else oracle.payloads[w] for w in a)
        for c, a in s.answers.items()
    }
    vertex_labels, color_labels, tau = _split_labels(
        s, cids, g.C, id_width(max(g.n, 2)), width_for(max(g.C, 2)),
        root_cid=oracle.root_cid, own_colors=g.vertex_colors,
    )
    return LabelSet(
        scheme=CONN_SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=vertex_labels,
        color_labels=color_labels,
        meta={"threshold": tau},
    )


def query_nca_connectivity(lv: NcaVertexLabel, lc: NcaColorLabel) -> int:
    """cid(v, G-c) from the two labels alone."""
    if lv.own_color == lc.color:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
    hit = query_nca_labels(lv, lc)
    return lv.root_cid if hit is None else hit  # type: ignore[return-value]


def pair_connected_nca(lu: NcaVertexLabel, lv: NcaVertexLabel, lc: NcaColorLabel) -> bool:
    return query_nca_connectivity(lu, lc) == query_nca_connectivity(lv, lc)
