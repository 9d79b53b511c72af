"""Ground truth for the correctness checks, independent of ``colorfault``.

``colorfault.oracle`` shares ``graph.UnionFind`` and the fault views with the
code under test, so the benchmark answers every checked question with its own
union-find and BFS over the plain edge tuples of an :class:`Instance`.
"""

from __future__ import annotations

from collections import deque

from instances import Instance


class Components:
    """Component labels of G minus a set of colors (or of edge ids)."""

    def __init__(self, inst: Instance, dead_colors=frozenset(), dead_edges=frozenset()):
        parent = list(range(inst.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for eid, ((a, b), c) in enumerate(zip(inst.edges, inst.colors)):
            if c in dead_colors or eid in dead_edges:
                continue
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        self.root = [find(v) for v in range(inst.n)]

    def connected(self, u: int, v: int) -> bool:
        return self.root[u] == self.root[v]


class Reference:
    """Connectivity answers for one instance, one component pass per fault set."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._by_colors: dict[frozenset, Components] = {}
        self._by_edges: dict[frozenset, Components] = {}

    def connected(self, u: int, v: int, colors) -> bool:
        key = frozenset(colors)
        comp = self._by_colors.get(key)
        if comp is None:
            comp = self._by_colors[key] = Components(self.inst, dead_colors=key)
        return comp.connected(u, v)

    def connected_without_edges(self, u: int, v: int, eids) -> bool:
        key = frozenset(eids)
        comp = self._by_edges.get(key)
        if comp is None:
            comp = self._by_edges[key] = Components(self.inst, dead_edges=key)
        return comp.connected(u, v)

    def distance_avoiding(self, s: int, t: int, color: int) -> int | None:
        """BFS hop distance from s to t in G minus one color, None if separated."""
        adj: list[list[int]] = [[] for _ in range(self.inst.n)]
        for (a, b), c in zip(self.inst.edges, self.inst.colors):
            if c != color and a != b:
                adj[a].append(b)
                adj[b].append(a)
        dist = {s: 0}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if x == t:
                return dist[x]
            for w in adj[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        return None
