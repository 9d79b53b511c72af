"""Nearest-colored-ancestor index: the one-fault oracle and its labels.

One index serves every query here, the ``OneFaultOracle``.  A rooted forest
gets DFS pre/post stamps; each vertex carries a payload, and for each color
the stamps of its vertices form one sorted tuple, with a parallel tuple of
answers: the vertex's payload at its pre stamp, the payload of its nearest
strictly-above same-color ancestor at its post stamp.  The answer at the
nearest c-colored ancestor of v (v itself included) is then the one at the
predecessor of pre(v) in c's stamps.  Each palette color's entry,
(stamps, answers, table), takes one of three forms.  A root-answered color,
each of whose forest vertices (if any) has its root's id as payload, has the
oracle's own ``root`` tuple as its table, shared, with no words of its own;
the colors on no forest vertex share one such entry, ``off_forest``, and
have no key in the index, so it stays O(n) words whatever the palette size.
Any other color on at least n/``TABLED`` forest vertices has a painted
per-vertex table, ``table[v]`` being that answer (or None); fewer than
``TABLED`` colors are that long, so these add fewer than ``TABLED`` * n
words to the <= 4n of stamps and answers: the O(n)-word bound holds.  The
rest keep ``table`` None and the plain binary search over their stamps.  A
query reads a table twice, with no search.  ``build_nca`` builds the whole
index in one pass, the tables included.

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
labels hold the answers of the long colors, color labels the stamps and
answers of the short ones.
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
# A color on >= n/TABLED forest vertices, unless root-answered, gets a painted
# per-vertex answer table.  At most n - 1 vertices are colored, so fewer than
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
    pre: tuple[int, ...]  # per vertex: its pre stamp, the key of its searches
    root: tuple[int, ...]  # per vertex: the root of its tree, its component minimum
    colors: tuple[int | None, ...]  # per vertex: its forest color (None at a root)
    payloads: tuple[int, ...]  # per vertex: cid in G minus its forest color (a root: itself)
    vertex_colors: tuple[int, ...] | None  # the graph's colors (vertex mode)
    # per forest color: (stamps, answers, table), its table ``root`` on a
    # root-answered color, painted on a long one, None on a searched one
    index: dict[int, tuple] = field(repr=False, compare=False)
    # the entry of every palette color on no forest vertex: ((), (), root)
    off_forest: tuple = field(repr=False, compare=False)

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
        stamps, answers, table = self.index.get(c, self.off_forest)
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
        the root is its component minimum.  c's index entry is bound once for
        all the vertices: a root-answered or painted color's table is read,
        any other color's stamps searched.  Raises GraphError for an id
        outside the graph or the palette, and RemovedVertexError for a vertex
        of color c itself.
        """
        if not 0 <= c < self.C:
            raise GraphError(f"color {c} outside palette")
        stamps, answers, table = self.index.get(c, self.off_forest)
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
    """Index a rooted forest for nearest-colored-ancestor queries answering payloads.

    ``parent[v] is None`` marks roots; ``colors[v] is None`` leaves v out of
    every color's stamps.  The stamps are a DFS's that visits roots and
    children by increasing id, read off ``preorder``: v enters at
    2 pre - depth and exits at 2 end - depth - 1.  Walking a color's vertices
    in pre-order, a stack of open ones exits each vertex whose subtree has
    ended, with the payload of the vertex below it, its nearest strictly-above
    same-color ancestor, as the answer at its exit.  Each color on some
    vertex gets an entry; the rest of ``range(C)`` read the one shared
    ``off_forest`` entry, ((), (), root), so the index costs O(n), not O(C).
    A color whose every vertex has its root's id as payload, or which is on
    no vertex, is root-answered: its table is the shared ``root`` tuple,
    since every answer, or its absence, reads as v's root.  For the oracle's
    payloads that is a color whose failure cuts nothing; in vertex mode a
    failed vertex stores its own id, so some such colors stay searched.  Any
    other color on at least n/``TABLED`` vertices gets its per-vertex answer
    table, painted from its stamps: each stamp's answer holds over the
    pre-order positions from its own (v's pre at v's enter stamp, x's end at
    x's exit) up to the next stamp's, the later of two stamps at one position
    winning, and ``table[v]`` is the answer at pre[v].
    ``build_one_fault_oracle`` and ``load_oracle`` both derive the tables and
    never store them.  Raises GraphError when the parents do not form a
    forest.
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
    key = tuple(2 * i - d for i, d in zip(pre, depth))  # per vertex: its pre stamp
    root = tuple(root)
    cut = {c for c, p, r in zip(colors, payloads, root) if c is not None and p != r}
    index: dict[int, tuple] = {}
    for c, vs in members.items():
        stamps, above, at = [], [], []  # at: each stamp's pre-order position
        chain = []  # the color's open vertices
        for v in vs + [None]:  # None closes every open vertex
            until = n if v is None else pre[v]
            while chain and end[chain[-1]] <= until:
                x = chain.pop()
                stamps.append(2 * end[x] - depth[x] - 1)
                above.append(payloads[chain[-1]] if chain else None)
                at.append(end[x])
            if v is not None:
                chain.append(v)
                stamps.append(key[v])
                above.append(payloads[v])
                at.append(pre[v])
        table = None
        if c not in cut:
            table = root
        elif TABLED * len(vs) >= n:
            by_pos = [None] * n
            for a, b, answer in zip(at, at[1:] + [n], above):
                by_pos[a:b] = [answer] * (b - a)
            table = tuple(map(by_pos.__getitem__, pre))
        index[c] = (tuple(stamps), tuple(above), table)
    return OneFaultOracle(
        n, C, tuple(parent), key, root, tuple(colors), tuple(payloads),
        vertex_colors, index, ((), (), root),
    )


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
    """Words the query index holds: every color's stamps and answers, and its painted table.

    At most 2 * 2n for the stamps and answers (two stamps per colored
    vertex) plus n per painted table, fewer than ``TABLED`` of them: O(n),
    like the file.  A root-answered color's table is the shared ``root``
    tuple, and the colors on no forest vertex share ``off_forest``: no words
    of their own.
    """
    return sum(2 * len(stamps) + (0 if table is None or table is o.root else len(table))
               for stamps, _answers, table in o.index.values())


def oracle_table_colors(o: OneFaultOracle) -> int:
    """The colors with a painted per-vertex answer table: fewer than ``TABLED``."""
    return sum(table is not None and table is not o.root for _s, _a, table in o.index.values())


def oracle_uncut_colors(o: OneFaultOracle) -> int:
    """The root-answered colors, those on no forest vertex included.

    In edge mode exactly the colors whose failure cuts nothing.
    """
    return o.C - len(o.index) + sum(table is o.root for _s, _a, table in o.index.values())


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
    root_cid: int | None  # connectivity labels: cid of the tree root
    own_color: int | None  # vertex-mode connectivity labels: the vertex's color
    prevalent: dict[int, int | None]  # color -> answer at the nearest ancestor (None = absent)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class NcaColorLabel:
    color: int
    prevalent: bool
    stamps: tuple[int, ...]  # the color's sorted pre/post stamps (rare colors only)
    answers: tuple[int | None, ...]  # parallel to stamps
    bits: int = field(default=0, compare=False)


def _split_labels(
    o: OneFaultOracle, connectivity: bool = False
) -> tuple[tuple[NcaVertexLabel, ...], tuple[NcaColorLabel, ...], int]:
    """Prevalence-split labels over the index: (vertex labels, color labels, tau).

    Colors with at least ``nca_threshold(n)`` vertices are answered directly
    from the vertex labels, each hit read off the color's painted table or
    found by predecessor search (a root-answered color too: a hit is the
    stored answer or None, never a root); rarer colors
    ship the entry's stamps and answers in the color label.  Connectivity
    labels also carry the tree root's cid and, in vertex mode, the vertex's
    own color.
    """
    n, C = o.n, o.C
    tau = nca_threshold(n)
    wid, wc = id_width(max(n, 2)), width_for(max(C, 2))
    wstamp = width_for(2 * n)
    wlen = width_for(n + 1)
    entries = [o.index.get(c, o.off_forest) for c in range(C)]
    columns = []  # per prevalent color: its answer at every vertex, a table's or searched
    for c, (stamps, answers, table) in enumerate(entries):
        if len(stamps) < 2 * tau:
            continue
        if table is None or table is o.root:
            ranks = (bisect_right(stamps, key) for key in o.pre)
            table = [answers[i - 1] if i else None for i in ranks]
        columns.append((c, table))
    root_cid = o.root if connectivity else None
    own_colors = o.vertex_colors

    extra = (0 if root_cid is None else wid) + (0 if own_colors is None else wc)
    vertex_labels = []
    for v in range(n):
        hits = {}
        for c, table in columns:
            hits[c] = table[v]
        bits = wstamp + extra + wlen + len(hits) * (wc + wid + 1)
        vertex_labels.append(NcaVertexLabel(
            v, o.pre[v],
            None if root_cid is None else root_cid[v],
            None if own_colors is None else own_colors[v],
            hits, bits,
        ))

    color_labels = []
    for c, (stamps, answers, _table) in enumerate(entries):
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
    vertex_labels, color_labels, tau = _split_labels(build_one_fault_oracle(g), connectivity=True)
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
