"""Hop-by-hop routing that avoids every edge of one forbidden color.

The spanning tree T is assembled from the anchor-path forest of the one-fault
scheme (so every P(v) is a T-path) plus minimum-id joining edges, rooted at the
minimum-id vertex r.  For each color c on T, the tree splits into fragments;
recovery edges (minimum edge id joining two fragments) turn them into a
spanning tree T_c of G-c.  Every fragment hangs from its nearest anchor
fragment in a fragment forest over those recovery edges, numbered in
pre-order; each fragment gets one interval table whose steps are
first-recovery-edge blocks.  A component of G-c without an anchor hangs from
its minimum fragment, and its tables also step toward the parent.  Tables
hold interval tree-routing data for T, the first-recovery-edge block toward
every anchor for the fragment rooted at the vertex (its parent edge carries
the only color that ever matters there), and the fragment table for each color
on the vertex's anchor path whose fragment a final approach can enter, which
no anchor fragment is.  A message carries a small permanent header (forbidden
color, target anchor a*, the root's block, the target's tree label, and, when
c lies on P(t), the block and fragment number for the final approach) plus two
mutable fields UP and NEXT.

Phase one climbs each fragment and jumps recovery edges toward a*'s fragment;
an undefined block doubles as the "already there" signal.  Phase two routes
inside the target fragment over T, optionally crossing one last recovery edge
into the final approach.  There each fragment's table names the block that
crosses into the next fragment toward t's, and the message follows T to it,
so the route walks the T_c path through fragments that carry tables.  A
target in a component without an anchor gets a* = -1, and its route is all
final approach from the source.

The build makes one pass over the colors on T, in increasing color.  For
each color c, one loop of BFS walks over c's fragment tree (from each anchor
fragment in increasing root, then from each fragment no walk has reached)
hangs every fragment from its nearest root, giving c's fragment forest (a
``ColorStructure``), and writes each fragment's block toward every anchor:
the anchor blocks of the fragment's root, or c's color label at T's root.
Once the per-color entry and fragment table of each vertex with c on P(v)
are written too, the structure is dropped: a scheme keeps what ``route`` reads.

Each port of the network is an immutable ``Hop`` record (a NamedTuple:
source, port, neighbor, edge id, edge color) built once with the network.
Every routing tree, T and each fragment forest, keeps one interval step per
node, a plain tuple whose ways are T's ``Hop``s or a forest's blocks; T is
oriented and numbered once (``build_tree_routing``), and the build reads each
vertex's parent, parent-edge color and tree label off its T step.  The
simulator ``route`` decides once per phase: it climbs a fragment to its first
c-colored parent edge, or walks T toward a tree label (stopping early at t)
and crosses a block's recovery edge there.  Only phase boundaries touch the
header; each hop appends a shared ``Hop`` and allocates nothing, and the hop
budget, the forbidden-color check (in a climb, its stop condition) and
``on_state`` run at every hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import Iterable, NamedTuple

from .bits import id_width, width_for
from .graph import (
    EDGE,
    ColoredGraph,
    GraphError,
    UnionFind,
    bfs,
    orient_forest,
    preorder,
    spanning_forest,
)
from .labels import LabelSet
from .single_fault import build_ruling_set, label_single_fault, pair_connected


class UnreachableError(ValueError):
    """Target not connected to the source once the color fails."""


class RoutingBugError(RuntimeError):
    """Internal contract violated during simulation (must not happen)."""


# -- ported network ---------------------------------------------------------------


class Hop(NamedTuple):
    src: int
    port: int
    dst: int
    edge: int
    color: int


@dataclass(frozen=True, slots=True)
class PortedNetwork:
    """Port p of vertex v is its p-th incident edge in increasing edge id.

    ``ports[v][p]`` is the ``Hop`` that leaves v by port p; a route's trace is
    made of these shared records.
    """

    graph: ColoredGraph
    ports: tuple[tuple[Hop, ...], ...]
    port_index: dict[tuple[int, int], int]  # (vertex, edge id) -> port

    @staticmethod
    def build(g: ColoredGraph) -> "PortedNetwork":
        incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid, (u, v) in enumerate(g.edges):  # so each list is in increasing edge id
            incident[u].append((eid, v))
            if u != v:
                incident[v].append((eid, u))
        ports = tuple(
            tuple(Hop(v, p, nbr, eid, g.edge_color(eid)) for p, (eid, nbr) in enumerate(plist))
            for v, plist in enumerate(incident)
        )
        index = {(hop.src, hop.edge): hop.port for plist in ports for hop in plist}
        return PortedNetwork(g, ports, index)

    def port_of(self, v: int, eid: int) -> int:
        return self.port_index[(v, eid)]

    def max_ports(self) -> int:
        return max((len(p) for p in self.ports), default=1)


# -- interval tree routing -----------------------------------------------------------
#
# Every routing tree keeps one step per node, the plain tuple
# (pre, end, up, ((hi, way), ...)): the node's pre-order number, the end of its
# subtree interval [pre, end), the way to its parent (None at a root), and a way
# to each child with the end of that child's interval.  The child intervals tile
# (pre, end), so hi alone bounds each.  A way is a port's ``Hop`` in T and a
# ``FirstRecEdgeBlock`` in a fragment forest.  Steps stay exact tuples, which
# ``route``'s inlined walk unpacks at every hop.


def _toward(step, x: int):
    """The way out of ``step`` toward the node numbered x; None when x is its own."""
    pre, end, up, children = step
    if pre == x:
        return None
    if not pre < x < end:
        if up is None:
            raise RoutingBugError("target outside this routing tree")
        return up
    for hi, way in children:
        if x < hi:
            return way
    raise RoutingBugError("interval tables inconsistent")


@dataclass(frozen=True, slots=True)
class TreeRouting:
    """Interval routing over one rooted forest of the network: a step per vertex.

    A vertex's tree label is its step's ``pre``; ``order`` lists the vertices
    by it.
    """

    steps: tuple[tuple[int, int, Hop | None, tuple[tuple[int, Hop], ...]], ...]
    order: tuple[int, ...]


def build_tree_routing(net: PortedNetwork, tree_edges: Iterable[int]) -> TreeRouting:
    """Interval routing over the forest ``tree_edges``, the one place a tree is numbered.

    Each tree is rooted at its minimum id and numbered in pre-order with
    children in id order; a vertex no tree edge touches is a singleton tree.
    """
    parent, parent_edge = orient_forest(net.graph, tree_edges)
    order, pre, end = preorder(parent)
    ports, port_of = net.ports, net.port_index
    children: list[list[tuple[int, Hop]]] = [[] for _ in parent]
    for v in order:  # children come in pre-order, so each list is sorted
        p = parent[v]
        if p is not None:
            children[p].append((end[v], ports[p][port_of[p, parent_edge[v]]]))
    steps = tuple(
        (pre[v], end[v], None if p is None else ports[v][port_of[v, parent_edge[v]]],
         tuple(children[v]))
        for v, p in enumerate(parent)
    )
    return TreeRouting(steps, tuple(order))


# -- blocks and per-color recovery structure -------------------------------------------


@dataclass(frozen=True, slots=True)
class FirstRecEdgeBlock:
    """First recovery edge on a directed fragment-tree path."""

    port: int  # from the first endpoint x
    x_tree_label: int  # L_T(x)
    into_target_fragment: bool  # False in a fragment table, which has no one target


@dataclass(frozen=True, slots=True)
class ColorStructure:
    """What the build derives from T - c for one color c on T, read and then dropped."""

    fragment_of: tuple[int, ...]  # fragment root per vertex
    frag_adj: dict[int, list[tuple[int, int]]]  # frag root -> (other root, edge id)
    fragment_tables: dict[int, tuple]  # frag root -> its step in the fragment forest
    fragment_labels: dict[int, tuple[int, FirstRecEdgeBlock | None, int]]
    # frag root -> (a(v,c), block e(a(v,c), v, c), its forest number) for v in it


@dataclass(frozen=True, slots=True)
class RoutingTable:
    """v's table.  ``bits`` also charges for v's parent port and color, which
    ``route`` reads off the parent ``Hop`` of v's T step."""

    vertex: int
    blocks: dict[int, FirstRecEdgeBlock | None]  # anchor -> block for color c(v)
    # color on P(v), unless v is in an anchor fragment -> v's fragment's step
    fragment_tables: dict[int, tuple]
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class RoutingVertexLabel:
    vertex: int
    tree_label: int
    anchor: int
    per_color: dict[int, tuple[int, FirstRecEdgeBlock | None, int]]
    # color on P(v) -> (a(v,c), block e(a(v,c), v, c), v's fragment's forest number)
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class RoutingColorLabel:
    color: int
    blocks: dict[int, FirstRecEdgeBlock | None]  # anchor -> FirstRecEdge(r, a, c)
    bits: int = field(default=0, compare=False)


@dataclass(slots=True)
class MessageHeader:
    # permanent part, written once at the source
    color: int
    a_star: int
    root_block: FirstRecEdgeBlock | None
    target_tree_label: int
    target_on_path: bool
    target_block: FirstRecEdgeBlock | None
    target_fragment_label: int | None
    # mutable part: the only fields edited en route
    up: bool | None = True
    next_block: FirstRecEdgeBlock | None = None

    def permanent_bits(self, wc: int, wid: int, wport: int) -> int:
        block = wport + wid + 2
        bits = wc + wid + block + wid + 1
        if self.target_on_path:
            bits += block + wid
        return bits

    def mutable_bits(self, wid: int, wport: int) -> int:
        return 2 + 1 + wport + wid + 2


@dataclass(frozen=True, slots=True)
class RoutingScheme:
    graph: ColoredGraph
    net: PortedNetwork
    tree_routing: TreeRouting
    tables: tuple[RoutingTable, ...]
    vertex_labels: tuple[RoutingVertexLabel, ...]
    color_labels: tuple[RoutingColorLabel, ...]
    connectivity: LabelSet  # one-fault labels for the pre-flight check


def build_routing_scheme(g: ColoredGraph) -> RoutingScheme:
    if g.mode != EDGE:
        raise GraphError("routing is defined for edge-colored graphs")
    ruling = build_ruling_set(g)
    anchors = ruling.anchors()
    connectivity = label_single_fault(g, ruling)

    # T: the anchor-path forest (every P(v) a T-path) joined by min-id edges
    anchor_forest = [e for e in ruling.parent_edge if e is not None]
    tree_edges = spanning_forest(g, anchor_forest + list(range(g.m)))
    if len(tree_edges) != g.n - 1:
        raise GraphError("routing scheme needs a connected graph")
    net = PortedNetwork.build(g)
    tree_routing = build_tree_routing(net, tree_edges)  # rooted at 0
    steps = tree_routing.steps

    n = g.n
    below: dict[int, list[int]] = {}  # color -> vertices whose T parent edge has it
    for v, (_pre, _end, up, _children) in enumerate(steps):
        if up is not None:
            below.setdefault(up.color, []).append(v)
    on_path: dict[int, list[int]] = {}  # color -> vertices with it on P(v)
    for v, lbl in enumerate(connectivity.vertex_labels):
        for c in lbl.cid_by_color:
            on_path.setdefault(c, []).append(v)
    blocks: list[dict[int, FirstRecEdgeBlock | None]] = [{} for _ in range(n)]
    per_color: list[dict[int, tuple]] = [{} for _ in range(n)]
    fragment_tables: list[dict[int, tuple]] = [{} for _ in range(n)]
    color_blocks = [dict.fromkeys(anchors) for _ in range(g.C)]  # a color off T: all None
    # one pass per color on T, in increasing color: build its fragment forest,
    # write its part of every table and label, and drop it
    for c in sorted(below):
        cs, frag_blocks = _build_color_structure(g, net, c, tree_routing, anchors)
        for v in below[c]:  # each is the root of its fragment
            blocks[v] = frag_blocks[v]
        color_blocks[c] = frag_blocks[0]  # from the fragment of T's root 0
        for v in on_path.get(c, ()):
            fr = cs.fragment_of[v]
            label = per_color[v][c] = cs.fragment_labels[fr]
            # a final approach reads a table only where v's entry has a block or
            # no anchor (``route``), so never in an anchor fragment
            if label[1] is not None or label[0] < 0:
                fragment_tables[v][c] = cs.fragment_tables[fr]

    wid = id_width(max(n, 2))
    wc = width_for(max(g.C, 2))
    wport = width_for(max(net.max_ports(), 2))  # ports named at other vertices
    wblock = wport + wid + 2  # port, L_T(x), into-target flag, defined flag
    tables = []
    vertex_labels = []
    for v in range(n):
        wport_v = width_for(max(len(net.ports[v]), 2))  # the vertex's own ports
        tbits = (wport_v + 2 * wid) + wc + 1  # R_T(v) with parent port, c(v)
        tbits += len(anchors) * wblock
        tbits += len(fragment_tables[v]) * (wc + wport_v + 2 * wid)
        tbits += wblock * sum(t[2] is not None for t in fragment_tables[v].values())
        tables.append(RoutingTable(v, blocks[v], fragment_tables[v], tbits))
        lbits = wid + wid + width_for(n + 1)
        lbits += len(per_color[v]) * (wc + wid + wblock + wid)
        vertex_labels.append(
            RoutingVertexLabel(v, steps[v][0], ruling.anchor[v], per_color[v], lbits))
    cbits = wc + width_for(len(anchors) + 1) + len(anchors) * wblock
    color_labels = tuple(RoutingColorLabel(c, b, cbits) for c, b in enumerate(color_blocks))
    return RoutingScheme(
        graph=g, net=net, tree_routing=tree_routing, tables=tuple(tables),
        vertex_labels=tuple(vertex_labels), color_labels=color_labels, connectivity=connectivity,
    )


def _build_color_structure(g, net, c, tree_routing, anchors):
    """(c's ``ColorStructure``, fragment root -> anchor -> its first recovery block)."""
    n = g.n
    colors = g.edge_colors
    steps = tree_routing.steps
    # fragment root: the root r, or a vertex whose parent edge is c-colored
    fragment_of = [0] * n
    for v in tree_routing.order:
        up = steps[v][2]
        fragment_of[v] = v if up is None or up.color == c else fragment_of[up.dst]

    frag_adj: dict[int, list[tuple[int, int]]] = {
        v: [] for v in range(n) if fragment_of[v] == v
    }
    joiner = UnionFind(n)
    for eid, (u, v) in enumerate(g.edges):
        if u == v or colors[eid] == c:
            continue
        fu, fv = fragment_of[u], fragment_of[v]
        if fu != fv and joiner.union(fu, fv):
            frag_adj[fu].append((fv, eid))
            frag_adj[fv].append((fu, eid))
    frags = sorted(frag_adj)
    frag_adj = {k: sorted(v) for k, v in frag_adj.items()}
    lead: dict[int, list[int]] = {}  # anchor fragment -> its anchors, increasing
    for a in sorted(anchors):
        lead.setdefault(fragment_of[a], []).append(a)
    cross = partial(_crossing, g, net, fragment_of, steps)

    # one BFS over the fragment tree from each anchor fragment, in increasing
    # root, then from each fragment no walk has reached (``chain`` reads ``hang``
    # lazily): at each fragment it reaches, a walk writes the block toward its
    # root's anchors and hangs the fragment from the root if nearer than before
    # (a tie keeps the smaller root); a block no walk writes stays None
    blocks = {fr: dict.fromkeys(anchors) for fr in frags}
    hang: dict[int, tuple] = {}  # fragment -> (dist, forest root, peer, edge id)
    for root in chain(sorted(lead), (fr for fr in frags if fr not in hang)):
        for fr, peer, eid, dist in bfs(frag_adj.get, (root,)):
            if dist and root in lead:
                block = cross(fr, eid, dist == 1)  # one per (fragment, anchor fragment)
                for a in lead[root]:
                    blocks[fr][a] = block
            if fr not in hang or dist < hang[fr][0]:
                hang[fr] = (dist, root, peer, eid)
    index = {fr: i for i, fr in enumerate(frags)}
    # a fragment's forest parent is the peer one hop closer to its root
    order, pre, end = preorder([index[hang[fr][2]] if hang[fr][0] else None for fr in frags])
    children: dict[int, list] = {fr: [] for fr in frags}
    up = {}  # fragment hung without an anchor -> block toward its forest parent
    for i in order:  # children come in pre-order, so each list is sorted
        dist, root, peer, eid = hang[frags[i]]
        if dist:
            children[peer].append((end[i], cross(peer, eid)))
            if root not in lead:
                up[frags[i]] = cross(frags[i], eid)
    tables = {
        fr: (pre[index[fr]], end[index[fr]], up.get(fr), tuple(children[fr])) for fr in frags
    }
    labels = {}
    for fr, (dist, root, _peer, _eid) in hang.items():
        num = tables[fr][0]
        block = _toward(tables[root], num) if dist and root in lead else None
        block = block and replace(block, into_target_fragment=dist == 1)
        labels[fr] = (lead[root][0] if root in lead else -1, block, num)
    return ColorStructure(tuple(fragment_of), frag_adj, tables, labels), blocks


def _crossing(g, net, fragment_of, steps, from_frag, eid, into_target=False):
    """The block that leaves fragment ``from_frag`` over recovery edge ``eid``."""
    u, v = g.edges[eid]
    x = u if fragment_of[u] == from_frag else v
    return FirstRecEdgeBlock(net.port_of(x, eid), steps[x][0], into_target)


# -- simulation --------------------------------------------------------------------


class RouteResult(NamedTuple):
    source: int
    target: int
    avoided_color: int
    trace: tuple[Hop, ...]
    header: MessageHeader

    @property
    def hops(self) -> int:
        return len(self.trace)


def make_header(scheme: RoutingScheme, t: int, c: int) -> MessageHeader:
    """Initialization at the source from L(t) and L(c) alone; GraphError for an unknown t or c."""
    g = scheme.graph
    if not 0 <= t < g.n:
        raise GraphError("vertex out of range")
    if not 0 <= c < g.C:
        raise GraphError(f"color {c} outside palette of size {g.C}")
    lt = scheme.vertex_labels[t]
    a_star, target_block, fragment_label = lt.per_color.get(c, (lt.anchor, None, None))
    return MessageHeader(
        color=c,
        a_star=a_star,
        root_block=scheme.color_labels[c].blocks.get(a_star),
        target_tree_label=lt.tree_label,
        target_on_path=c in lt.per_color,
        target_block=target_block,
        target_fragment_label=fragment_label,
        up=None if a_star < 0 else True,  # no anchor: the whole route is the final approach
    )


def route(
    scheme: RoutingScheme,
    s: int,
    t: int,
    c: int,
    on_state=None,
) -> RouteResult:
    """Simulate the hop-by-hop delivery of one message avoiding color c.

    ``on_state(vertex, header)`` fires at the source and after every hop, for
    invariant checking.  Raises UnreachableError when the one-fault labels say
    the endpoints are separated, RoutingBugError on internal contract breaks.
    """
    g = scheme.graph
    if not 0 <= s < g.n:
        raise GraphError("vertex out of range")
    h = make_header(scheme, t, c)  # checks t and c
    if s == t:
        raise GraphError("source and target must differ")
    conn = scheme.connectivity
    if not pair_connected(
        conn.vertex_labels[s], conn.vertex_labels[t], conn.color_labels[c]
    ):
        raise UnreachableError(f"{s} and {t} are separated once color {c} fails")

    steps = scheme.tree_routing.steps
    tables = scheme.tables
    trace: list[Hop] = []
    record = trace.append
    budget = g.n * g.n
    v = s
    if on_state is not None:
        on_state(v, h)
    # one pass per phase: climb the fragment, or walk T toward a tree label and
    # cross a recovery edge there; the header is touched only between phases
    while v != t:
        up = h.up
        if up:
            hop = steps[v][2]
            if hop is not None and hop.color != c:
                while True:  # climb inside the fragment, to its first c-colored parent edge
                    if len(trace) >= budget:
                        raise RoutingBugError("hop budget exceeded")
                    record(hop)
                    v = hop.dst
                    if on_state is not None:
                        on_state(v, h)
                    hop = steps[v][2]
                    if v == t or hop is None or hop.color == c:
                        break
                continue
            block = h.root_block if hop is None else tables[v].blocks.get(h.a_star)
            if block is None:
                # already in the target fragment: switch to the second phase
                h.up = up = None
                h.next_block = h.target_block
            else:
                h.next_block = block
                h.up = up = False
        nb = h.next_block
        if up is False:
            if nb is None:
                raise RoutingBugError("descending without a recovery edge")
        elif nb is None and h.target_on_path and (h.target_block is not None or h.a_star < 0):
            # the final approach: the fragment's table names the next crossing toward t
            table = tables[v].fragment_tables.get(h.color)
            if table is None:
                raise RoutingBugError("fragment table missing on the final approach")
            nb = h.next_block = _toward(table, h.target_fragment_label)
        x = h.target_tree_label if nb is None else nb.x_tree_label
        while x is not None:  # walk T toward the tree label x, stopping at t on the way
            pre, end, hop, children = steps[v]
            if pre == x:  # cross the block's recovery edge, the phase's last hop
                if nb is None:
                    raise RoutingBugError("tree routing asked to move while already there")
                if up is None:
                    h.next_block = None
                elif nb.into_target_fragment:
                    h.up = None
                    h.next_block = h.target_block
                else:
                    h.up = True
                hop = scheme.net.ports[v][nb.port]
                x = None
            elif pre < x < end:
                for hi, hop in children:
                    if x < hi:
                        break
                else:
                    raise RoutingBugError("interval tables inconsistent")
            elif hop is None:
                raise RoutingBugError("target outside this routing tree")
            if len(trace) >= budget:
                raise RoutingBugError("hop budget exceeded")
            if hop.color == c:
                raise RoutingBugError("routed over a forbidden edge")
            record(hop)
            v = hop.dst
            if on_state is not None:
                on_state(v, h)
            if v == t:
                break
    return RouteResult(s, t, c, tuple(trace), h)


def header_bit_sizes(scheme: RoutingScheme, header: MessageHeader) -> tuple[int, int]:
    """(permanent, mutable) canonical header sizes in bits."""
    wid = id_width(max(scheme.graph.n, 2))
    wc = width_for(max(scheme.graph.C, 2))
    wport = width_for(max(scheme.net.max_ports(), 2))
    return header.permanent_bits(wc, wid, wport), header.mutable_bits(wid, wport)
