"""Colored multigraphs and connectivity primitives.

A :class:`ColoredGraph` is an undirected multigraph whose edges (edge mode) or
vertices (vertex mode) carry a color from a palette ``0..C-1``.  A fault set is
a set of colors; removing it deletes every element of those colors, and
:meth:`ColoredGraph.color_classes` lists the edges each color's fault removes.
Everything here is deterministic: edges are scanned in increasing edge id, BFS
explores neighbors in increasing ``(neighbor id, edge id)`` order, and
component ids are minimum vertex ids.

Graphs are immutable after construction; all queries are pure reads and safe to
share between threads.  A graph holds its one-fault oracle once it is built, a
pure function of the graph, so sharing stays safe.  The one
:class:`UnionFind` has no path compression, so that it can roll back.
:func:`bfs` is the one first-discovery breadth-first walk; :func:`bfs_tree`
is its forest of every component, each tree rooted at its minimum id.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

EDGE = "edge"
VERTEX = "vertex"


class GraphError(ValueError):
    """Malformed graph construction or text input."""


class ParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidFaultSetError(GraphError):
    """A fault set names a color outside the palette, or breaks a scheme's budget."""


class RemovedVertexError(ValueError):
    """Vertex-mode query on a vertex whose own color is faulted."""


@dataclass(frozen=True, slots=True)
class ColoredGraph:
    """Immutable colored multigraph.

    ``edges[i]`` is the endpoint pair of edge id ``i``.  Exactly one of
    ``edge_colors`` / ``vertex_colors`` is set, matching ``mode``.  Parallel
    edges and self-loops are permitted; self-loops never affect connectivity.
    """

    n: int
    mode: str
    edges: tuple[tuple[int, int], ...]
    C: int
    edge_colors: tuple[int, ...] | None = None
    vertex_colors: tuple[int, ...] | None = None
    _adj: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    # the one-fault oracle, set by ``nca.build_one_fault_oracle`` on first use
    _oracle: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be >= 0")
        if self.C < 0:
            raise GraphError("palette size must be >= 0")
        if self.mode not in (EDGE, VERTEX):
            raise GraphError(f"unknown mode {self.mode!r}")
        if self.mode == EDGE:
            if self.vertex_colors is not None:
                raise GraphError("edge mode must not carry vertex colors")
            if self.edge_colors is None or len(self.edge_colors) != len(self.edges):
                raise GraphError("edge mode needs one color per edge")
            for c in self.edge_colors:
                if not 0 <= c < self.C:
                    raise GraphError(f"edge color {c} outside palette of size {self.C}")
        else:
            if self.edge_colors is not None:
                raise GraphError("vertex mode must not carry edge colors")
            if self.vertex_colors is None or len(self.vertex_colors) != self.n:
                raise GraphError("vertex mode needs one color per vertex")
            for c in self.vertex_colors:
                if not 0 <= c < self.C:
                    raise GraphError(f"vertex color {c} outside palette of size {self.C}")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            if u != v:
                adj[v].append((u, eid))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    # -- accessors ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_color(self, eid: int) -> int:
        assert self.edge_colors is not None
        return self.edge_colors[eid]

    def vertex_color(self, v: int) -> int:
        assert self.vertex_colors is not None
        return self.vertex_colors[v]

    def adjacency(self, v: int) -> tuple[tuple[int, int], ...]:
        """Neighbors of ``v`` as (neighbor, edge id), sorted."""
        return self._adj[v]

    def color_classes(self) -> list[list[int]]:
        """Per color, the ids of the edges its fault removes, increasing, read off :func:`edge_classes`.

        Edge mode: the edges of that color.  Vertex mode: the edges at that
        color's vertices, so an edge between two colors is in both lists.
        """
        classes: list[list[int]] = [[] for _ in range(self.C)]
        for (a, b), eids in edge_classes(self).items():
            classes[a] += eids
            if b != a:
                classes[b] += eids
        for cls in classes:
            cls.sort()  # in vertex mode a color's edges come from several classes
        return classes

    def check_edge_ids(self, eids: Iterable[int]) -> list[int]:
        """``eids`` as a list, repeats kept; GraphError for an id outside 0..m-1."""
        eids = list(eids)
        if eids and not (0 <= min(eids) and max(eids) < self.m):
            bad = next(e for e in eids if not 0 <= e < self.m)
            raise GraphError(f"edge id {bad} outside 0..{self.m - 1}")
        return eids

    def keep_edges(self, eids: Iterable[int]) -> "ColoredGraph":
        """The same vertices and colors with only the edges ``eids``, renumbered in that order."""
        eids = self.check_edge_ids(eids)
        ec = self.edge_colors
        return ColoredGraph(
            n=self.n, mode=self.mode, edges=tuple(self.edges[e] for e in eids), C=self.C,
            edge_colors=None if ec is None else tuple(ec[e] for e in eids),
            vertex_colors=self.vertex_colors,
        )

    def check_fault_set(self, colors: Iterable[int]) -> frozenset[int]:
        F = frozenset(colors)
        for c in F:
            if not 0 <= c < self.C:
                raise InvalidFaultSetError(f"color {c} outside palette of size {self.C}")
        return F


# -- union-find -----------------------------------------------------------


class UnionFind:
    """Union by size with an undo stack, tracking the minimum member id per set.

    There is no path compression, so :meth:`rollback` can restore the parents,
    sizes and per-set minima exactly; union by size keeps every tree's height,
    and so a find, at O(log n).  The divide-and-conquer sweep over a family of
    fault sets (:func:`cids_after_faults`) and the per-class certificate
    forests roll back; every other caller only unions.
    """

    __slots__ = ("parent", "size", "min_id", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.min_id = list(range(n))
        self.trail: list[tuple[int, int, int]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.trail.append((b, a, self.min_id[a]))
        self.parent[b] = a
        self.size[a] += self.size[b]
        if self.min_id[b] < self.min_id[a]:
            self.min_id[a] = self.min_id[b]
        return True

    def checkpoint(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            child, root, old_min = self.trail.pop()
            self.parent[child] = child
            self.size[root] -= self.size[child]
            self.min_id[root] = old_min

    def component_min(self, x: int) -> int:
        return self.min_id[self.find(x)]

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


# -- connectivity primitives ------------------------------------------------


def spanning_forest(g: ColoredGraph, order: Iterable[int] | None = None) -> tuple[int, ...]:
    """Maximal forest of the edges in ``order`` as a tuple of edge ids, in scan order.

    The default scans every edge by increasing id, giving a sorted tuple; a
    caller-given ``order`` picks which edges are preferred, and may repeat one.
    Raises GraphError for an id outside 0..m-1.
    """
    order = range(g.m) if order is None else g.check_edge_ids(order)
    edges = g.edges
    uf = UnionFind(g.n)
    forest: list[int] = []
    for eid in order:
        u, v = edges[eid]
        if u != v and uf.union(u, v):
            forest.append(eid)
    return tuple(forest)


def orient_forest(
    g: ColoredGraph, edge_ids: Iterable[int]
) -> tuple[list[int | None], list[int | None]]:
    """(parent, parent edge) of the forest ``edge_ids``, each tree rooted at its minimum id.

    A vertex has one path to its tree's root, so the :func:`bfs` parents are
    those of any walk from that root.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in edge_ids:
        a, b = g.edges[eid]
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    parent: list[int | None] = [None] * g.n
    parent_edge: list[int | None] = [None] * g.n
    for x, p, eid, _depth in bfs(adj.__getitem__, range(g.n)):
        parent[x] = p
        parent_edge[x] = eid
    return parent, parent_edge


def preorder(parent: Sequence[int | None]) -> tuple[list[int], list[int], list[int]]:
    """(order, pre, end) of the rooted forest ``parent``; roots and children by increasing id.

    ``order`` lists the vertices in pre-order and ``pre[v]`` is v's index in
    it, so v's subtree is the interval [pre[v], end[v]) of ``order``.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v in range(n - 1, -1, -1):  # decreasing id, so the stack pops the smallest first
        p = parent[v]
        if p is None:
            roots.append(v)
        else:
            children[p].append(v)
    order: list[int] = []
    stack = roots
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(children[x])
    pre = [0] * n
    for i, x in enumerate(order):
        pre[x] = i
    end = [i + 1 for i in pre]
    for x in reversed(order):
        p = parent[x]
        if p is not None and end[x] > end[p]:
            end[p] = end[x]
    return order, pre, end


def path_colors(
    g: ColoredGraph, parent: Sequence[int | None], parent_edge: Sequence[int | None]
) -> list[frozenset[int]]:
    """The colors on each vertex's path to its root in the forest ``parent``.

    Edge mode: the colors of the path's edges.  Vertex mode: the colors of the
    path's vertices, root included, minus the vertex's own color.  Each set is
    built from its parent's, so a vertex whose step adds nothing shares it.
    """
    n = g.n
    out: list[frozenset[int]] = [frozenset()] * n
    if g.mode == EDGE:
        for x in preorder(parent)[0]:
            p = parent[x]
            if p is not None:
                c = g.edge_color(parent_edge[x])  # type: ignore[arg-type]
                up = out[p]
                out[x] = up if c in up else up | {c}
        return out
    colors = g.vertex_colors
    assert colors is not None
    full: list[frozenset[int]] = [frozenset()] * n  # the path's colors, x's own included
    for x in preorder(parent)[0]:
        p = parent[x]
        c = colors[x]
        up = full[p] if p is not None else frozenset()
        full[x] = up if c in up else up | {c}
        out[x] = up - {c} if c in up else up
    return out


def bfs(
    adjacency: Callable[[int], Iterable[tuple[int, int]]], roots: Iterable[int]
) -> Iterator[tuple[int, int | None, int | None, int]]:
    """Yield (vertex, parent, parent edge, depth) in BFS order: the one first-discovery walk.

    Each root no earlier tree has reached starts the next tree (a root comes
    out with parent, edge None and depth 0).  ``adjacency(x)`` gives x's
    (neighbor, edge id) pairs, scanned in that order, and a vertex keeps the
    first parent that discovers it.  A caller that stops reading has seen a
    prefix of the walk and paid only for the scans up to its last vertex.
    """
    reached: set[int] = set()
    for s in roots:
        if s in reached:
            continue
        reached.add(s)
        yield s, None, None, 0
        layer, d = [s], 0
        while layer:  # one level at a time: the same order as one FIFO queue
            below, layer, d = layer, [], d + 1
            for x in below:
                for w, eid in adjacency(x):
                    if w not in reached:
                        reached.add(w)
                        yield w, x, eid, d
                        layer.append(w)


@dataclass(frozen=True, slots=True)
class BfsTree:
    root: tuple[int, ...]  # v's tree's root
    parent: tuple[int | None, ...]
    parent_edge: tuple[int | None, ...]
    depth: tuple[int, ...]


def bfs_tree(g: ColoredGraph) -> BfsTree:
    """The BFS forest of every component, each tree rooted at its minimum id.

    This is :func:`bfs` from every vertex in increasing id, so neighbors are
    explored in (id, edge id) order and each vertex no tree has reached yet
    starts the next tree.
    """
    n = g.n
    root_of = [0] * n
    parent: list[int | None] = [None] * n
    parent_edge: list[int | None] = [None] * n
    depth = [0] * n
    for x, p, eid, d in bfs(g.adjacency, range(n)):
        root_of[x] = x if p is None else root_of[p]
        parent[x] = p
        parent_edge[x] = eid
        depth[x] = d
    return BfsTree(tuple(root_of), tuple(parent), tuple(parent_edge), tuple(depth))


# -- fault-set family sweep ---------------------------------------------------


def edge_classes(g: ColoredGraph) -> dict[tuple[int, int], list[int]]:
    """Edge ids grouped by what removes them, each group increasing, in order of its first edge.

    A class is keyed by the colors ``(a, b)``, a <= b, whose fault removes its
    edges: ``(c, c)`` for an edge of color c in edge mode, the unordered pair of
    end colors in vertex mode.  Self-loops are kept, in the class of their one
    end color.
    """
    classes: dict[tuple[int, int], list[int]] = {}
    if g.mode == EDGE:
        for eid, c in enumerate(g.edge_colors or ()):
            classes.setdefault((c, c), []).append(eid)
        return classes
    vc = g.vertex_colors or ()
    for eid, (u, v) in enumerate(g.edges):
        a, b = vc[u], vc[v]
        classes.setdefault((a, b) if a <= b else (b, a), []).append(eid)
    return classes


def cids_after_faults(
    g: ColoredGraph, wanted: dict[frozenset[int], Iterable[int]]
) -> dict[frozenset[int], dict[int, int | None]]:
    """cid(v, g - F) for every fault set F of ``wanted`` and each vertex it lists.

    One rollback union-find serves the whole family.  The sets are sorted by
    their sorted tuples, so sets sharing their smallest color sit together,
    and the sweep divides and conquers over that order: an edge is unioned at
    the highest node of the recursion whose sets all keep it, instead of
    once per set.  Edges are swept in groups, one per kill list (the sorted
    indices of the sets an edge fails in, a function of its
    :func:`edge_classes` key), so a node tests each group once: a group no set
    of a side kills is unioned whole, and any other passes down whole.  Every
    answer is a component minimum, so the order of unions cannot change it.
    Vertices removed by F (vertex mode) come out as None; a vertex outside
    0..n-1 raises ``GraphError``.
    """
    keys = sorted((g.check_fault_set(F) for F in wanted), key=sorted)
    out: dict[frozenset[int], dict[int, int | None]] = {F: {} for F in keys}
    if not keys:
        return out
    killed_by: list[list[int]] = [[] for _ in range(g.C)]  # per color: indices of sets holding it
    for i, F in enumerate(keys):
        for c in F:
            killed_by[c].append(i)
    edges = g.edges
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (a, b), eids in edge_classes(g).items():
        kill = killed_by[a] if a == b else sorted({*killed_by[a], *killed_by[b]})
        pairs = [(u, v) for u, v in map(edges.__getitem__, eids) if u != v]
        if pairs:
            groups.setdefault(tuple(kill), []).extend(pairs)
    uf = UnionFind(g.n)
    union = uf.union
    for u, v in groups.pop((), ()):
        union(u, v)
    vertex_colors = g.vertex_colors if g.mode == VERTEX else None
    n = g.n

    def solve(
        lo: int, hi: int, pending: list[tuple[tuple[int, ...], list[tuple[int, int]]]]
    ) -> None:
        if hi - lo == 1:
            F = keys[lo]
            res = out[F]
            for v in wanted[F]:
                if not 0 <= v < n:
                    raise GraphError(f"vertex {v} out of range")
                dead = vertex_colors is not None and vertex_colors[v] in F
                res[v] = None if dead else uf.component_min(v)
            return
        mid = (lo + hi) // 2
        for side_lo, side_hi in ((lo, mid), (mid, hi)):
            mark = uf.checkpoint()
            dirty = []
            for group in pending:
                kill = group[0]
                i = bisect_left(kill, side_lo)
                if i < len(kill) and kill[i] < side_hi:
                    dirty.append(group)
                else:
                    for u, v in group[1]:
                        union(u, v)
            solve(side_lo, side_hi, dirty)
            uf.rollback(mark)

    solve(0, len(keys), list(groups.items()))
    return out


# -- text format --------------------------------------------------------------
#
#   line 1:  ccg 1 <mode> <n> <m> <C>
#   edge mode:   m lines "u v c"
#   vertex mode: n lines "c", then m lines "u v"
#
# '#' starts a comment; blank lines are ignored; ids are 0-based decimal.


def parse_graph(text: str) -> ColoredGraph:
    logical: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            logical.append((lineno, body.split()))

    if not logical:
        raise ParseError("missing header", 1)
    hline, htok = logical[0]
    if len(htok) != 6 or htok[0] != "ccg" or htok[1] != "1":
        raise ParseError("header must be 'ccg 1 <mode> <n> <m> <C>'", hline)
    mode = htok[2]
    if mode not in (EDGE, VERTEX):
        raise ParseError(f"unknown mode {mode!r}", hline)
    try:
        n, m, C = int(htok[3]), int(htok[4]), int(htok[5])
    except ValueError:
        raise ParseError("header counts must be integers", hline) from None
    if n < 0 or m < 0 or C < 0:
        raise ParseError("header counts must be non-negative", hline)

    body_lines = logical[1:]
    expected = m if mode == EDGE else n + m
    if len(body_lines) != expected:
        where = body_lines[-1][0] if body_lines else hline
        raise ParseError(f"expected {expected} data lines, found {len(body_lines)}", where)

    def as_int(tok: str, lineno: int, what: str, bound: int) -> int:
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"{what} must be an integer, got {tok!r}", lineno) from None
        if not 0 <= value < bound:
            raise ParseError(f"{what} {value} out of range [0, {bound})", lineno)
        return value

    try:
        if mode == EDGE:
            edges = []
            colors = []
            for lineno, tok in body_lines:
                if len(tok) != 3:
                    raise ParseError("edge line must be 'u v c'", lineno)
                u = as_int(tok[0], lineno, "vertex id", n)
                v = as_int(tok[1], lineno, "vertex id", n)
                edges.append((u, v))
                colors.append(as_int(tok[2], lineno, "color id", C))
            return ColoredGraph(n=n, mode=EDGE, edges=tuple(edges), C=C,
                                edge_colors=tuple(colors))
        vcolors = []
        for lineno, tok in body_lines[:n]:
            if len(tok) != 1:
                raise ParseError("vertex color line must be a single color id", lineno)
            vcolors.append(as_int(tok[0], lineno, "color id", C))
        edges = []
        for lineno, tok in body_lines[n:]:
            if len(tok) != 2:
                raise ParseError("edge line must be 'u v'", lineno)
            edges.append((as_int(tok[0], lineno, "vertex id", n),
                          as_int(tok[1], lineno, "vertex id", n)))
        return ColoredGraph(n=n, mode=VERTEX, edges=tuple(edges), C=C,
                            vertex_colors=tuple(vcolors))
    except GraphError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), hline) from exc


def serialize_graph(g: ColoredGraph) -> str:
    lines = [f"ccg 1 {g.mode} {g.n} {g.m} {g.C}"]
    if g.mode == EDGE:
        for eid, (u, v) in enumerate(g.edges):
            lines.append(f"{u} {v} {g.edge_color(eid)}")
    else:
        lines.extend(str(c) for c in g.vertex_colors or ())
        lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def edge_graph(n: int, colored_edges: Sequence[tuple[int, int, int]], C: int | None = None) -> ColoredGraph:
    """Convenience constructor from (u, v, color) triples."""
    if C is None:
        C = max((c for _, _, c in colored_edges), default=-1) + 1
    return ColoredGraph(
        n=n, mode=EDGE,
        edges=tuple((u, v) for u, v, _ in colored_edges),
        edge_colors=tuple(c for _, _, c in colored_edges),
        C=C,
    )


def vertex_graph(colors: Sequence[int], edges: Sequence[tuple[int, int]], C: int | None = None) -> ColoredGraph:
    if C is None:
        C = max(colors, default=-1) + 1
    return ColoredGraph(
        n=len(colors), mode=VERTEX, edges=tuple(edges),
        vertex_colors=tuple(colors), C=C,
    )
