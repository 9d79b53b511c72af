"""Nearest-colored-ancestor index: the one-fault oracle and its labels.

One index serves every query here, the ``OneFaultOracle``.  A rooted forest
is numbered in pre-order, and each vertex carries a payload.  A color's stamps
are pre-order positions, in one non-decreasing tuple with a parallel tuple
of answers: each of its vertices v enters at pre[v], answering v's payload,
and exits at the end of v's subtree, answering the payload of its nearest
strictly-above same-color ancestor (or None).  Of two stamps at one position
the later wins, so the answer at the nearest c-colored ancestor of v (v
itself included) is the one at the last stamp <= pre[v], ``bisect_right``'s.
Only a color whose failure cuts something has a key in the index: one with
a vertex whose payload is not its root's id.  Every other palette color
reads the one shared entry ``uncut``, ((), (), root), whose table answers
each vertex's root, so the index stays O(n) words whatever the palette size.
A keyed color's entry, (stamps, answers, table), takes one of two forms.  On
at least n/``TABLED`` forest vertices it has a painted per-vertex table,
``table[v]`` being that answer (or None); fewer than ``TABLED`` colors are
that long, so these add fewer than ``TABLED`` * n words to the <= 4n of
stamps and answers: the O(n)-word bound holds.  The rest keep ``table`` None
and the plain binary search over their stamps.  A query reads a table twice,
with no search.  ``build_nca`` builds the whole index in one pass, the tables
included.

The one-fault connectivity oracle colors each non-root vertex of a spanning
forest with its parent-edge color (edge mode) or its parent's own color
(vertex mode, on the graph as given, with no subdivision) and stores
cid(u, G-color) as its payload, so ``OneFaultOracle.cids`` reads cid(v, G-c)
off the index directly; the one-fault labels of ``single_fault`` take every
entry from it.  A graph keeps its oracle once built, so the oracle, the
one-fault labels and the connectivity labels of one graph share one build.
The oracle file stores one row per vertex, (parent, color, cid), in both
modes, and ``load_oracle`` rebuilds the index with ``build_nca``.  The
connectivity labels here cut the same index by color prevalence: vertex
labels hold the answers of the long keyed colors, painted by the oracle's
one painter, color labels the stamps and answers of the short ones.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .bits import BitReader, BitWriter, id_width, width_for
from .graph import (
    EDGE,
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
ORACLE_VERSION = 2
CONN_SCHEME = "nca-connectivity"
# A keyed color on >= n/TABLED forest vertices gets a painted per-vertex
# answer table.  At most n - 1 vertices are colored, so fewer than
# TABLED colors do, and the index holds at most 4n (stamps and answers) +
# TABLED * n (tables) words.
TABLED = 8


# -- one-fault connectivity oracle ---------------------------------------------


@dataclass(frozen=True, slots=True)
class OneFaultOracle:
    """O(n)-word centralized structure answering (u, v, c) connectivity."""

    n: int  # vertices of the graph, the forest's
    C: int
    parent: tuple[int | None, ...]  # the spanning forest; None at a root
    pre: tuple[int, ...]  # per vertex: its pre-order number, the key of its searches
    root: tuple[int, ...]  # per vertex: the root of its tree, its component minimum
    colors: tuple[int | None, ...]  # per vertex: its forest color (None at a root)
    payloads: tuple[int, ...]  # per vertex: cid in G minus its forest color (a root: itself)
    vertex_colors: tuple[int, ...] | None  # the graph's colors (vertex mode)
    # per color whose failure cuts something: (stamps, answers, table), its
    # table painted on a long color, None on a searched one
    index: dict[int, tuple] = field(repr=False, compare=False)
    # the entry of every palette color without a key: ((), (), root)
    uncut: tuple = field(repr=False, compare=False)

    def query(self, u: int, v: int, c: int) -> bool:
        """cid(u, G-c) == cid(v, G-c): ``cids(c, (u, v))`` unrolled, its checks in its order."""
        if not 0 <= c < self.C:
            raise GraphError(f"color {c} outside palette")
        n, own = self.n, self.vertex_colors
        if not 0 <= u < n:
            raise GraphError(f"vertex {u} out of range")
        if own is not None and own[u] == c:
            raise RemovedVertexError(f"vertex {u} has color {c}")
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range")
        if own is not None and own[v] == c:
            raise RemovedVertexError(f"vertex {v} has color {c}")
        stamps, answers, table = self.index.get(c, self.uncut)
        if table is not None:
            cu, cv = table[u], table[v]
        else:
            pre = self.pre
            i = bisect_right(stamps, pre[u])
            j = bisect_right(stamps, pre[v])
            cu = answers[i - 1] if i else None
            cv = answers[j - 1] if j else None
        root = self.root
        return (root[u] if cu is None else cu) == (root[v] if cv is None else cv)

    def cids(self, c: int, vertices: Iterable[int]) -> list[int]:
        """cid(v, G-c) for each of ``vertices``: the batch read-off of the index.

        The answer is the index's at v's nearest c-colored ancestor, its
        payload, or, with none, v's root: the path to the root survives, and
        the root is its component minimum.  c's entry is bound once for all
        the vertices: a painted color's table, or the shared ``uncut`` one,
        is read, a searched color's stamps are searched.  Raises GraphError for an id
        outside the graph or the palette, and RemovedVertexError for a vertex
        of color c itself.
        """
        if not 0 <= c < self.C:
            raise GraphError(f"color {c} outside palette")
        stamps, answers, table = self.index.get(c, self.uncut)
        n, own, pre, root = self.n, self.vertex_colors, self.pre, self.root
        out = []
        for v in vertices:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range")
            if own is not None and own[v] == c:
                raise RemovedVertexError(f"vertex {v} has color {c}")
            if table is not None:
                cid = table[v]
            else:
                i = bisect_right(stamps, pre[v])
                cid = answers[i - 1] if i else None
            out.append(root[v] if cid is None else cid)
        return out


def build_nca(
    parent: Sequence[int | None],
    colors: Sequence[int | None],
    payloads: Sequence[int],
    C: int,
    vertex_colors: tuple[int, ...] | None = None,
) -> OneFaultOracle:
    """Index a rooted forest for nearest-colored-ancestor answers: keys for the colors that cut.

    ``parent[v] is None`` marks roots; ``colors[v] is None`` leaves v out of
    every color's stamps.  The numbering is ``preorder``'s, roots and
    children by increasing id: v enters at pre[v] and exits at end[v], the
    end of its subtree.  Walking a color's vertices in pre-order, a stack of
    open ones exits each vertex whose subtree has ended, with the payload of
    the vertex below it, its nearest strictly-above same-color ancestor, as
    the answer at its exit; at one position the exits come before the enter,
    and ``bisect_right`` takes the last.  A color gets a key only when some
    vertex of it has a payload other than its root's id: for the oracle's
    payloads, a color whose failure cuts something (in vertex mode a failed
    vertex stores its own id, so a color that cuts nothing may still get
    one).  Every other color of ``range(C)`` reads the one shared ``uncut``
    entry, ((), (), root): with no key, every answer reads as v's root, and
    the index costs O(n), not O(C).  A keyed color on at least n/``TABLED``
    vertices gets its per-vertex answer table, painted from its stamps by
    ``_paint``; the rest are searched.  ``build_one_fault_oracle`` and
    ``load_oracle`` both derive the tables and never store them.  Raises
    GraphError for a parent outside 0..n-1, when the parents do not form a
    forest, when ``colors`` or ``payloads`` does not hold one entry per
    vertex, or for a color outside 0..C-1.
    """
    n = len(parent)
    if not len(colors) == len(payloads) == n:
        raise GraphError("colors and payloads need one entry per vertex")
    for v, p in enumerate(parent):
        if p is not None and not 0 <= p < n:
            raise GraphError(f"vertex {v} has parent {p} outside 0..{n - 1}")
    order, pre, end = preorder(parent)
    if len(order) != n:
        raise GraphError("parent pointers do not form a forest")
    root = list(range(n))
    members: dict[int, list[int]] = {}  # per color: its vertices in pre-order
    for v in order:
        p = parent[v]
        if p is not None:
            root[v] = root[p]
        if colors[v] is not None:
            members.setdefault(colors[v], []).append(v)
    for c in members:
        if not 0 <= c < C:
            raise GraphError(f"color {c} outside palette of size {C}")
    pre, root = tuple(pre), tuple(root)
    cut = {c for c, p, r in zip(colors, payloads, root) if c is not None and p != r}
    index: dict[int, tuple] = {}
    for c, vs in members.items():
        if c not in cut:
            continue
        stamps, answers = [], []
        chain = []  # the color's open vertices
        for v in vs + [None]:  # None closes every open vertex
            until = n if v is None else pre[v]
            while chain and end[chain[-1]] <= until:
                x = chain.pop()
                stamps.append(end[x])
                answers.append(payloads[chain[-1]] if chain else None)
            if v is not None:
                chain.append(v)
                stamps.append(pre[v])
                answers.append(payloads[v])
        stamps, answers = tuple(stamps), tuple(answers)
        table = _paint(stamps, answers, pre) if TABLED * len(vs) >= n else None
        index[c] = (stamps, answers, table)
    return OneFaultOracle(
        n, C, tuple(parent), pre, root, tuple(colors), tuple(payloads),
        vertex_colors, index, ((), (), root),
    )


def _paint(stamps: tuple[int, ...], answers: tuple, pre: Sequence[int]) -> tuple:
    """Per vertex v, the answer at the last of ``stamps`` <= pre[v]: ``bisect_right``'s, read off.

    Each stamp's answer holds over the positions from its own up to the next
    stamp's, the later of two stamps at one position winning; None before the
    first.  The oracle's tables and the labels' prevalent columns are both
    painted here.
    """
    n = len(pre)
    by_pos = [None] * n
    for a, b, answer in zip(stamps, stamps[1:] + (n,), answers):
        by_pos[a:b] = [answer] * (b - a)
    return tuple(map(by_pos.__getitem__, pre))


def build_one_fault_oracle(g: ColoredGraph) -> OneFaultOracle:
    """Spanning-forest reduction to nearest colored ancestor.

    Each non-root forest vertex w takes the one color whose fault cuts it
    from its parent: its parent edge's color in edge mode, its parent's own
    color in vertex mode (no subdivision; the forest has g.n vertices).  Its
    payload is cid(w, G minus that color).  In vertex mode the nearest such w
    above a surviving v sits below v's nearest ancestor of the failed color,
    so it survives too; a w of its parent's color is never read and stores w.
    The oracle is built once per graph and kept on it: every later call,
    the label builds' included, returns that same frozen object.
    """
    if g._oracle is not None:
        return g._oracle  # type: ignore[return-value]
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
    payloads = list(range(g.n))
    for got in cids_after_faults(g, wanted).values():
        for v, value in got.items():
            if value is not None:
                payloads[v] = value
    oracle = build_nca(parent, colors, payloads, g.C, g.vertex_colors)
    object.__setattr__(g, "_oracle", oracle)
    return oracle


# -- canonical oracle file -------------------------------------------------------
#
# Header: magic, version, mode byte (0 edge, 1 vertex), n, C.  Body: one row
# per forest vertex, (parent, color, cid): the parent pointer (a self-loop
# marks a root), a color, and the payload cid (a root's own id).  In edge mode
# the color is the parent edge's (0 filler at roots); in vertex mode it is the
# vertex's own, and a vertex's forest color is its parent's row color.  The
# body ends the file, padded with 0 bits to a whole byte; a file with another
# root filler or padding is refused, so an oracle has exactly one file.
# Timestamps and per-color arrays are derived deterministically on load, so
# the body costs at most 3 * ceil(log2 n) bits per vertex when C <= n.

HEADER_WIDTHS = (32, 8, 8, 32, 32)  # magic, version, mode byte, n, C


def oracle_file_bits(o: OneFaultOracle) -> tuple[int, int]:
    """(header bits, body bits) of the canonical encoding."""
    return sum(HEADER_WIDTHS), o.n * (2 * id_width(o.n) + width_for(o.C))


def oracle_index_words(o: OneFaultOracle) -> int:
    """Words the query index holds: each keyed color's stamps and answers, and its painted table.

    At most 2 * 2n for the stamps and answers (two stamps per colored
    vertex) plus n per painted table, fewer than ``TABLED`` of them: O(n),
    like the file.  The colors without a key share ``uncut``: no words.
    """
    return sum(2 * len(stamps) + (0 if table is None else len(table))
               for stamps, _answers, table in o.index.values())


def oracle_table_colors(o: OneFaultOracle) -> int:
    """The colors with a painted per-vertex answer table: fewer than ``TABLED``."""
    return sum(table is not None for _s, _a, table in o.index.values())


def oracle_uncut_colors(o: OneFaultOracle) -> int:
    """The palette colors without a key, which read the shared ``uncut`` entry.

    In edge mode exactly the colors whose failure cuts nothing.
    """
    return o.C - len(o.index)


def dump_oracle(o: OneFaultOracle) -> bytes:
    n = o.n
    wid = id_width(n)
    wc = width_for(o.C)
    if o.vertex_colors is None:
        row_colors = [0 if c is None else c for c in o.colors]
    else:
        row_colors = list(o.vertex_colors)
    w = BitWriter()
    mode_byte = 0 if o.vertex_colors is None else 1
    for value, width in zip((ORACLE_MAGIC, ORACLE_VERSION, mode_byte, n, o.C), HEADER_WIDTHS):
        w.write(value, width)
    for v in range(n):
        p = o.parent[v]
        w.write(v if p is None else p, wid)
        w.write(row_colors[v], wc)
        w.write(o.payloads[v], wid)
    return w.to_bytes()


def load_oracle(data: bytes) -> OneFaultOracle:
    """Parse an oracle file; a malformed, truncated, overlong or non-canonical one is a GraphError.

    A stored cid is a component minimum: a root's is its own id, another vertex's at most its id.
    """
    r = BitReader(data)

    def expect(bits: int, part: str) -> None:
        if r.remaining < bits:
            raise GraphError(f"oracle file truncated in its {part}")

    expect(sum(HEADER_WIDTHS), "header")
    magic, version, mode_byte, n, C = (r.read(width) for width in HEADER_WIDTHS)
    if magic != ORACLE_MAGIC:
        raise GraphError("not an oracle file")
    if version != ORACLE_VERSION:
        raise GraphError("unsupported oracle file version")
    if mode_byte > 1:
        raise GraphError(f"oracle file: unknown mode byte {mode_byte}")
    wid = id_width(n)
    wc = width_for(C)
    expect(n * (wid + wc + wid), "body")
    parent: list[int | None] = []
    row_colors: list[int] = []
    payloads: list[int] = []
    for v in range(n):
        p, c, cid = r.read(wid), r.read(wc), r.read(wid)
        if p >= n:
            raise GraphError(f"oracle file: vertex {v} has parent {p} outside 0..{n - 1}")
        if cid > v or (p == v and cid != v):
            raise GraphError(f"oracle file: vertex {v} stores cid {cid}, not a component minimum")
        if (p != v or mode_byte == 1) and c >= C:
            raise GraphError(f"oracle file: vertex {v} has color {c} outside palette of size {C}")
        if p == v and mode_byte == 0 and c:
            raise GraphError(f"oracle file: root {v} has color filler {c}, not 0")
        parent.append(None if p == v else p)
        row_colors.append(c)
        payloads.append(cid)
    if r.remaining >= 8:
        raise GraphError(f"oracle file: {r.remaining // 8} bytes after its body")
    if r.read(r.remaining):
        raise GraphError("oracle file: padding bits after its body are not 0")
    if mode_byte == 0:
        colors = [None if p is None else c for p, c in zip(parent, row_colors)]
        return build_nca(parent, colors, payloads, C)
    colors = [None if p is None else row_colors[p] for p in parent]
    return build_nca(parent, colors, payloads, C, tuple(row_colors))


# -- nearest-colored-ancestor labels ---------------------------------------------


def nca_threshold(n: int) -> int:
    """Prevalence cut-off between vertex-side and color-side storage.

    ~sqrt(n)/2 balances the two label classes so both stay within 3 sqrt(n)
    id-widths under the canonical encoding; the sqrt(n) asymptotics and the
    query procedure are unchanged.
    """
    return max(2, math.isqrt(n) // 2 + 1)


@dataclass(frozen=True, slots=True)
class NcaVertexLabel:
    vertex: int
    pre: int
    root_cid: int  # cid of the tree root: the answer with no hit
    own_color: int | None  # vertex-mode connectivity labels: the vertex's color
    prevalent: dict[int, int | None]  # color -> answer at the nearest ancestor (None = absent)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class NcaColorLabel:
    color: int
    prevalent: bool
    stamps: tuple[int, ...]  # the color's enter/exit positions (short keyed colors only)
    answers: tuple[int | None, ...]  # parallel to stamps
    bits: int = field(default=0, compare=False)


def _split_labels(
    o: OneFaultOracle,
) -> tuple[tuple[NcaVertexLabel, ...], tuple[NcaColorLabel, ...], int]:
    """Prevalence-split labels over the index: (vertex labels, color labels, tau).

    Keyed colors with at least ``nca_threshold(n)`` vertices are answered
    directly from the vertex labels, each hit read off the color's painted
    table, or off a column painted here by the same painter; rarer keyed
    colors ship the entry's stamps and answers in the color label, and a
    color without a key ships none.  With no hit the answer is the tree
    root's cid, which every vertex label carries, with the vertex's own
    color in vertex mode.  Stamps are positions 0..n.
    """
    n, C = o.n, o.C
    tau = nca_threshold(n)
    wid, wc = id_width(max(n, 2)), width_for(max(C, 2))
    wstamp = wlen = width_for(n + 1)  # a position 0..n; a count 0..n
    columns = [(c, _paint(stamps, answers, o.pre) if table is None else table)
               for c, (stamps, answers, table) in sorted(o.index.items())
               if len(stamps) >= 2 * tau]
    own_colors = o.vertex_colors

    extra = wid + (0 if own_colors is None else wc)
    vertex_labels = []
    for v in range(n):
        hits = {c: table[v] for c, table in columns}
        bits = wstamp + extra + wlen + len(hits) * (wc + wid + 1)
        vertex_labels.append(NcaVertexLabel(
            v, o.pre[v], o.root[v], None if own_colors is None else own_colors[v], hits, bits,
        ))

    color_labels = []
    for c in range(C):
        stamps, answers, _table = o.index.get(c, o.uncut)
        if len(stamps) >= 2 * tau:
            color_labels.append(NcaColorLabel(c, True, (), (), wc + 1))
            continue
        bits = wc + 1 + wlen + len(stamps) // 2 * (2 * wstamp + 2 * wid + 1)
        color_labels.append(NcaColorLabel(c, False, stamps, answers, bits))
    return tuple(vertex_labels), tuple(color_labels), tau


def query_nca_labels(lv: NcaVertexLabel, lc: NcaColorLabel) -> int | None:
    """The stored answer at lv's nearest ancestor in lc's color, from the labels alone."""
    if lc.prevalent:
        return lv.prevalent.get(lc.color)
    i = bisect_right(lc.stamps, lv.pre)
    return lc.answers[i - 1] if i else None


# -- connectivity labels via nearest colored ancestors ---------------------------


def label_nca_connectivity(g: ColoredGraph) -> LabelSet:
    """One-fault connectivity labels cut from the one-fault oracle's index.

    The centralized oracle's index, distributed: an answer is the index's at
    the nearest ancestor, that ancestor's cid in G minus its color.  Exact,
    like the oracle.
    """
    vertex_labels, color_labels, tau = _split_labels(build_one_fault_oracle(g))
    return LabelSet(
        scheme=CONN_SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=vertex_labels,
        color_labels=color_labels,
        meta={"threshold": tau},
    )


def pair_connected_nca(lu: NcaVertexLabel, lv: NcaVertexLabel, lc: NcaColorLabel) -> bool:
    """cid(u, G-c) == cid(v, G-c) from the three labels alone, in one frame.

    Each side is ``query_nca_labels``, or with no hit the tree root's cid;
    RemovedVertexError names u before v when the fault removes an endpoint.
    """
    c = lc.color
    if lu.own_color == c:
        raise RemovedVertexError(f"vertex {lu.vertex} has color {c}")
    if lv.own_color == c:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {c}")
    if lc.prevalent:
        hu = lu.prevalent.get(c)
        hv = lv.prevalent.get(c)
    else:  # query_nca_labels, inlined
        stamps = lc.stamps
        i = bisect_right(stamps, lu.pre)
        hu = lc.answers[i - 1] if i else None
        j = bisect_right(stamps, lv.pre)
        hv = lc.answers[j - 1] if j else None
    return (lu.root_cid if hu is None else hu) == (lv.root_cid if hv is None else hv)
