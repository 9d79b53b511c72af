"""Nearest-colored-ancestor structures: centralized one-fault oracle and labels.

A rooted forest gets DFS pre/post timestamps; for each color, the timestamps of
its vertices go into one sorted array, each annotated with the vertex, its
nearest strictly-above same-color ancestor, and an optional payload.  The
nearest c-colored ancestor of v (v itself included) is then a predecessor
search for pre(v) in c's array: a pre-timestamp hit is the answer itself, a
post-timestamp hit points to its stored ancestor.  Binary search gives O(log n)
queries; the asymptotically faster predecessor structures this replaces would
return identical answers.

The one-fault connectivity oracle colors each non-root vertex of a spanning
forest with its parent-edge color and stores cid(u, G-color) as the payload.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .bits import BitReader, BitWriter, id_width, width_for
from .graph import (
    EDGE,
    VERTEX,
    ColoredGraph,
    GraphError,
    RemovedVertexError,
    cids_for_color_queries,
    reduce_between_modes,
    spanning_forest,
)
from .labels import LabelSet

ORACLE_MAGIC = 0x43464C4F  # "CFLO"
ORACLE_VERSION = 1
CONN_SCHEME = "nca-connectivity"


@dataclass(frozen=True)
class NcaEntry:
    timestamp: int
    vertex: int
    is_pre: bool
    above: int | None  # nearest strictly-above same-color ancestor
    payload: int | None


@dataclass(frozen=True)
class NcaStructure:
    parent: tuple[int | None, ...]
    roots: tuple[int, ...]
    pre: tuple[int, ...]
    post: tuple[int, ...]
    colors: tuple[int | None, ...]
    arrays: dict[int, list[NcaEntry]]  # per color, sorted by timestamp
    payloads: tuple[int | None, ...]


def _dfs_timestamps(
    n: int, parent: list[int | None]
) -> tuple[list[int], list[int], list[int]]:
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v in range(n):
        p = parent[v]
        if p is None:
            roots.append(v)
        else:
            children[p].append(v)
    pre = [0] * n
    post = [0] * n
    clock = 0
    for root in roots:  # roots in increasing id, children in increasing id
        stack = [(root, 0)]
        while stack:
            v, idx = stack.pop()
            if idx == 0:
                pre[v] = clock
                clock += 1
            if idx < len(children[v]):
                stack.append((v, idx + 1))
                stack.append((children[v][idx], 0))
            else:
                post[v] = clock
                clock += 1
    return pre, post, roots


def build_nca(
    parent: list[int | None],
    colors: list[int | None],
    payloads: list[int | None] | None = None,
) -> NcaStructure:
    """Index a rooted forest for nearest-colored-ancestor queries.

    ``parent[v] is None`` marks roots; ``colors[v] is None`` leaves v out of
    every array.  Each colored vertex contributes its two timestamps.
    """
    n = len(parent)
    if payloads is None:
        payloads = [None] * n
    pre, post, roots = _dfs_timestamps(n, parent)

    above: list[int | None] = [None] * n
    order = sorted(range(n), key=lambda v: pre[v])
    for v in order:
        p = parent[v]
        while p is not None and colors[p] != colors[v]:
            p = parent[p]
        above[v] = p

    arrays: dict[int, list[NcaEntry]] = {}
    for v in range(n):
        c = colors[v]
        if c is None:
            continue
        arrays.setdefault(c, []).append(
            NcaEntry(pre[v], v, True, above[v], payloads[v])
        )
        arrays.setdefault(c, []).append(
            NcaEntry(post[v], v, False, above[v], payloads[v])
        )
    for entries in arrays.values():
        entries.sort(key=lambda e: e.timestamp)
    return NcaStructure(
        parent=tuple(parent),
        roots=tuple(roots),
        pre=tuple(pre),
        post=tuple(post),
        colors=tuple(colors),
        arrays=arrays,
        payloads=tuple(payloads),
    )


def _predecessor(entries: list[NcaEntry], stamp: int) -> NcaEntry | None:
    idx = bisect.bisect_right([e.timestamp for e in entries], stamp) - 1
    return entries[idx] if idx >= 0 else None


def nca_query(s: NcaStructure, v: int, c: int) -> int | None:
    """Nearest c-colored ancestor of v (v itself included), or None."""
    if not 0 <= v < len(s.pre):
        raise GraphError(f"vertex {v} out of range")
    entries = s.arrays.get(c)
    if not entries:
        return None
    hit = _predecessor(entries, s.pre[v])
    if hit is None:
        return None
    if hit.is_pre:
        return hit.vertex  # ancestor of v: no same-color stamp between them
    return hit.above


def nca_query_payload(s: NcaStructure, v: int, c: int) -> tuple[int | None, int | None]:
    """(nearest c-colored ancestor, its payload); (None, None) when absent."""
    w = nca_query(s, v, c)
    if w is None:
        return None, None
    return w, s.payloads[w]


def naive_nearest_colored_ancestor(
    parent: list[int | None], colors: list[int | None], v: int, c: int
) -> int | None:
    """Reference oracle: walk the parent chain."""
    x: int | None = v
    while x is not None:
        if colors[x] == c:
            return x
        x = parent[x]
    return None


# -- one-fault connectivity oracle ---------------------------------------------


@dataclass(frozen=True)
class OneFaultOracle:
    """O(n)-word centralized structure answering (u, v, c) connectivity."""

    n: int  # vertices of the original graph
    C: int
    mode: str
    structure: NcaStructure
    root_cid: tuple[int, ...]  # per forest vertex: id of its tree root
    vertex_colors: tuple[int, ...] | None  # original colors (vertex mode)

    def query(self, u: int, v: int, c: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError("vertex out of range")
        if not 0 <= c < self.C:
            raise GraphError(f"color {c} outside palette")
        if self.vertex_colors is not None:
            for x in (u, v):
                if self.vertex_colors[x] == c:
                    raise RemovedVertexError(f"vertex {x} has color {c}")
        if u == v:
            return True
        return self._cid(u, c) == self._cid(v, c)

    def _cid(self, v: int, c: int) -> int:
        w, payload = nca_query_payload(self.structure, v, c)
        if w is None:
            # the path to the root survives; the root is its component minimum
            return self.root_cid[v]
        assert payload is not None
        return payload


def build_one_fault_oracle(g: ColoredGraph) -> OneFaultOracle:
    """Spanning-forest reduction to nearest colored ancestor.

    Vertex-colored inputs are first subdivided into the equivalent edge-colored
    graph (original vertex ids are preserved and subdivision ids come after, so
    component minima of original vertices are unchanged).
    """
    original = g
    if g.mode == VERTEX:
        g = reduce_between_modes(g)

    forest = spanning_forest(g)
    parent: list[int | None] = [None] * g.n
    edge_of: list[int | None] = [None] * g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in forest:
        a, b = g.edges[eid]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    root_cid = [0] * g.n
    seen = bytearray(g.n)
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = 1
        root_cid[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for w, eid in adj[x]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = x
                    edge_of[w] = eid
                    root_cid[w] = root
                    stack.append(w)

    colors: list[int | None] = [
        None if edge_of[v] is None else g.edge_color(edge_of[v])  # type: ignore[arg-type]
        for v in range(g.n)
    ]
    wanted: dict[int, set[int]] = {}
    for v in range(g.n):
        c = colors[v]
        if c is not None:
            wanted.setdefault(c, set()).add(v)
    cids = cids_for_color_queries(g, wanted) if wanted else {}
    payloads: list[int | None] = [
        None if colors[v] is None else cids[colors[v]][v] for v in range(g.n)
    ]
    structure = build_nca(parent, colors, payloads)
    return OneFaultOracle(
        n=original.n,
        C=original.C,
        mode=original.mode,
        structure=structure,
        root_cid=tuple(root_cid),
        vertex_colors=original.vertex_colors,
    )


# -- canonical oracle file -------------------------------------------------------
#
# The file stores, per forest vertex: parent pointer (self-loop marks a root),
# parent-edge color (0 filler at roots) and the payload cid.  Timestamps and
# per-color arrays are derived deterministically on load, so the body costs at
# most 3 * ceil(log2 n') bits per vertex when C <= n'.


def oracle_file_bits(o: OneFaultOracle) -> tuple[int, int]:
    """(header bits, body bits) of the canonical encoding."""
    n = len(o.structure.parent)
    wid = id_width(n)
    wc = width_for(o.C)
    header = 32 + 8 + 8 + 32 + 32  # magic, version, mode, n', C
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
        payload = s.payloads[v]
        w.write(o.root_cid[v] if payload is None else payload, wid)
    # vertex-mode oracles additionally persist the original coloring so
    # removed-endpoint queries can be detected; counted as header-side data
    if o.vertex_colors is not None:
        w.write(o.n, 32)
        for c in o.vertex_colors:
            w.write(c, wc)
    return w.to_bytes()


def load_oracle(data: bytes) -> OneFaultOracle:
    r = BitReader(data)
    if r.read(32) != ORACLE_MAGIC:
        raise GraphError("not an oracle file")
    if r.read(8) != ORACLE_VERSION:
        raise GraphError("unsupported oracle file version")
    mode = EDGE if r.read(8) == 0 else VERTEX
    n = r.read(32)
    C = r.read(32)
    wid = id_width(n)
    wc = width_for(C)
    parent: list[int | None] = []
    colors: list[int | None] = []
    stored: list[int] = []
    for v in range(n):
        p = r.read(wid)
        parent.append(None if p == v else p)
        colors.append(r.read(wc))
        stored.append(r.read(wid))
    root_cid = [0] * n
    payloads: list[int | None] = [None] * n
    for v in range(n):
        if parent[v] is None:
            colors[v] = None
    # roots store their component minimum; walk up to recover root ids
    def find_root(v: int) -> int:
        while parent[v] is not None:
            v = parent[v]  # type: ignore[assignment]
        return v

    for v in range(n):
        root = find_root(v)
        root_cid[v] = stored[root]
        if parent[v] is not None:
            payloads[v] = stored[v]
    structure = build_nca(parent, colors, payloads)
    orig_n, vertex_colors = n, None
    if mode == VERTEX:
        orig_n = r.read(32)
        vertex_colors = tuple(r.read(wc) for _ in range(orig_n))
    return OneFaultOracle(
        n=orig_n,
        C=C,
        mode=mode,
        structure=structure,
        root_cid=tuple(root_cid),
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
    prevalent: dict[int, int | None]  # color -> nearest ancestor id (None = absent)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NcaColorLabel:
    color: int
    prevalent: bool
    entries: tuple[tuple[int, int, int, int | None], ...]  # (pre, post, vertex, above)
    bits: int = field(default=0, compare=False)


def label_nca(
    parent: list[int | None], colors: list[int | None], C: int | None = None
) -> LabelSet:
    """Nearest-colored-ancestor labels with a prevalence split.

    Colors with at least ``nca_threshold(n)`` vertices are answered directly
    from vertex labels; rarer colors ship their whole timestamp array in the
    color label and are answered by predecessor search against pre(v).
    """
    n = len(parent)
    if C is None:
        C = max((c for c in colors if c is not None), default=-1) + 1
    s = build_nca(parent, colors)
    tau = nca_threshold(n)
    counts = [0] * C
    for c in colors:
        if c is not None:
            counts[c] += 1
    prevalent = {c for c in range(C) if counts[c] >= tau}

    wid = id_width(n)
    wstamp = width_for(2 * n)
    wc = width_for(C)
    wlen = width_for(n + 1)

    vertex_labels = []
    for v in range(n):
        answers: dict[int, int | None] = {}
        for c in sorted(prevalent):
            answers[c] = nca_query(s, v, c)
        bits = wstamp + wlen + len(answers) * (wc + wid + 1)
        vertex_labels.append(NcaVertexLabel(v, s.pre[v], answers, bits))

    color_labels = []
    for c in range(C):
        if c in prevalent:
            color_labels.append(NcaColorLabel(c, True, (), wc + 1))
            continue
        entries = tuple(
            sorted(
                (s.pre[v], s.post[v], v, above)
                for (v, above) in {
                    (e.vertex, e.above) for e in s.arrays.get(c, [])
                }
            )
        )
        bits = wc + 1 + wlen + len(entries) * (2 * wstamp + 2 * wid + 1)
        color_labels.append(NcaColorLabel(c, False, entries, bits))

    return LabelSet(
        scheme="nca",
        n=n,
        C=C,
        mode=VERTEX,
        vertex_labels=tuple(vertex_labels),
        color_labels=tuple(color_labels),
        meta={"threshold": tau},
    )


def query_nca_labels(lv: NcaVertexLabel, lc: NcaColorLabel) -> int | None:
    """Nearest ancestor of lv's vertex in lc's color, from the labels alone."""
    if lc.prevalent:
        return lv.prevalent.get(lc.color)
    stamps: list[tuple[int, int | None]] = []
    for pre, post, vertex, above in lc.entries:
        stamps.append((pre, vertex))
        stamps.append((post, above))
    stamps.sort(key=lambda pair: pair[0])
    idx = bisect.bisect_right([t for t, _ in stamps], lv.pre) - 1
    if idx < 0:
        return None
    return stamps[idx][1]


# -- connectivity labels via nearest colored ancestors ---------------------------


@dataclass(frozen=True)
class NcaConnVertexLabel:
    vertex: int
    pre: int
    root_cid: int
    own_color: int | None
    prevalent: dict[int, int | None]  # color -> cid at the nearest ancestor
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NcaConnColorLabel:
    color: int
    prevalent: bool
    entries: tuple[tuple[int, int, int, int | None], ...]
    # per colored forest vertex: (pre, post, own payload cid, ancestor payload)
    bits: int = field(default=0, compare=False)


def label_nca_connectivity(g: ColoredGraph) -> LabelSet:
    """One-fault connectivity labels built from the ancestor structure.

    Same forest reduction as the centralized oracle, but distributed: vertex
    labels carry answers for prevalent colors, color labels carry their whole
    annotated timestamp array.  Exact, like the oracle.
    """
    oracle = build_one_fault_oracle(g)
    s = oracle.structure
    n = len(s.parent)
    tau = nca_threshold(n)
    counts: dict[int, int] = {}
    for c in s.colors:
        if c is not None:
            counts[c] = counts.get(c, 0) + 1
    prevalent = {c for c, k in counts.items() if k >= tau}

    wid = id_width(max(n, 2))
    wstamp = width_for(2 * n)
    wc = width_for(max(oracle.C, 2))
    wlen = width_for(n + 1)

    vertex_labels = []
    for v in range(g.n):
        answers: dict[int, int | None] = {}
        for c in sorted(prevalent):
            _w, payload = nca_query_payload(s, v, c)
            answers[c] = payload
        bits = wstamp + wid + (wc if g.mode == VERTEX else 0)
        bits += wlen + len(answers) * (wc + wid + 1)
        own = g.vertex_colors[v] if g.vertex_colors is not None else None
        vertex_labels.append(
            NcaConnVertexLabel(v, s.pre[v], oracle.root_cid[v], own, answers, bits)
        )

    color_labels = []
    for c in range(oracle.C):
        if c in prevalent:
            color_labels.append(NcaConnColorLabel(c, True, (), wc + 1))
            continue
        seen: dict[int, tuple[int, int, int, int | None]] = {}
        for e in s.arrays.get(c, ()):  # one entry per colored vertex
            if e.vertex in seen:
                continue
            above_payload = s.payloads[e.above] if e.above is not None else None
            seen[e.vertex] = (s.pre[e.vertex], s.post[e.vertex],
                              s.payloads[e.vertex], above_payload)  # type: ignore[index]
        entries = tuple(sorted(seen.values()))
        bits = wc + 1 + wlen + len(entries) * (2 * wstamp + 2 * wid + 1)
        color_labels.append(NcaConnColorLabel(c, False, entries, bits))

    return LabelSet(
        scheme=CONN_SCHEME,
        n=g.n,
        C=oracle.C,
        mode=g.mode,
        vertex_labels=tuple(vertex_labels),
        color_labels=tuple(color_labels),
        meta={"threshold": tau, "forest_n": n},
    )


def query_nca_connectivity(lv: NcaConnVertexLabel, lc: NcaConnColorLabel) -> int:
    """cid(v, G-c) from the two labels alone."""
    if lv.own_color is not None and lv.own_color == lc.color:
        raise RemovedVertexError(f"vertex {lv.vertex} has color {lc.color}")
    if lc.prevalent:
        hit = lv.prevalent.get(lc.color)
        return lv.root_cid if hit is None else hit
    stamps: list[tuple[int, int | None]] = []
    for pre, post, payload, above_payload in lc.entries:
        stamps.append((pre, payload))
        stamps.append((post, above_payload))
    stamps.sort(key=lambda pair: pair[0])
    idx = bisect.bisect_right([t for t, _ in stamps], lv.pre) - 1
    if idx < 0 or stamps[idx][1] is None:
        return lv.root_cid
    return stamps[idx][1]


def pair_connected_nca(
    lu: NcaConnVertexLabel, lv: NcaConnVertexLabel, lc: NcaConnColorLabel
) -> bool:
    return query_nca_connectivity(lu, lc) == query_nca_connectivity(lv, lc)
