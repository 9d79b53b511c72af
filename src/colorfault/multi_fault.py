"""Labels for two or more color faults.

Two schemes share one sparsifier, and both run on the graph as given in
either mode.  The certificate keeps a spanning forest of each class: a color's
edges (edge mode), or the edges whose end colors are {a, b} (vertex mode).  An
edge survives F exactly when its class does, and then its class forest joins
its ends, so the union H preserves connectivity under every F exactly.  Both
schemes then run the edge-fault sketch labels of :mod:`colorfault.sketch` on
H: a spanning forest T of H, vertex labels holding pre-order positions in T,
and tree-edge labels holding subtree sketches.  A color's fault removes its
edges, or in vertex mode the edges at its vertices: their number is its
prevalence, and they are what its label carries.  An edge whose two end colors
both fail comes with both labels, so a query takes faulty edges as a set.

The recursive scheme splits colors by prevalence against a threshold Delta:
prevalent colors are handled by recursing into the graph without them (one
level per removable fault), rare colors by the sketch, whose edge labels they
carry for their whole class.  T takes the edges no rare color removes first,
so few rare color labels carry a subtree sketch.  The child g - h keeps the
vertex ids and colors and drops the edges h removes.  Below f = 2 a node's
labels are the one-fault labels of its graph themselves, and an f = 2 node
reads every entry of them from one pair sweep of its own graph: the entry
cid(v, (g - h) - c) is cid(v, g - {h, c}), so one ``cids_after_faults`` over
the pairs {h, c} serves all its children, and no child oracle is built.  A
descent on a prevalent color that leaves no other fault fails that color
again in the child, which has no edge of it; a node with no fault left asks
its sketch with no faulty edge, which is exact, since T spans the node's graph.
Its queries read only the labels of u, v and F.

The large-f scheme lets every color fault, so a color label would have to
carry a subtree sketch for each of its tree edges, which is far larger than
any other label.  It keeps those sketches in a shared context instead (the
sketch label set, in ``meta["context"]``): a color label carries only the
names and sampling levels of its forest edges, a query looks up the tree-edge
labels of the faulted edges in the context, and each vertex label is charged
one sketch, since the context holds one subtree sketch per tree edge.  T takes
the smallest color classes first, which caps the tree edges of any one color;
each edge is sketched once, although a vertex-mode edge is in two colors' lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .bits import width_for
from .graph import (
    VERTEX,
    ColoredGraph,
    InvalidFaultSetError,
    UnionFind,
    cids_after_faults,
    edge_classes,
    path_colors,
)
from .labels import LabelSet, check_removed
from .single_fault import (
    SingleFaultColorLabel,
    SingleFaultVertexLabel,
    _assemble,
    _entries,
    build_ruling_set,
    label_bits,
    label_single_fault,
    pair_connected,
)
from .sketch import (
    DEFAULT_REPETITIONS,
    EdgeFaultLabels,
    EdgeSketchLabel,
    SchemeMismatchError,
    SketchParams,
    VertexSketchLabel,
    _hash_fields,
    build_edge_fault_labels,
    query_edge_fault,
)

LARGE_SCHEME = "large-f"
RECURSIVE_SCHEME = "multi-fault"


# -- certificate ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ColorForestCertificate:
    """H = union of per-class spanning forests (per color, or per color pair in vertex mode)."""

    graph: ColoredGraph  # the input graph, which H is a subgraph of
    edge_ids: tuple[int, ...]
    per_color: tuple[tuple[int, ...], ...]  # per color, the forest edges its fault removes

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def subgraph(self) -> ColoredGraph:
        """H as a standalone graph in the input's mode (edge ids renumbered)."""
        return self.graph.keep_edges(self.edge_ids)


def build_certificate(g: ColoredGraph) -> ColorForestCertificate:
    """Spanning forest per class of ``edge_classes``, scanned in increasing edge id."""
    kept: list[int] = []
    uf = UnionFind(g.n)
    for cls in edge_classes(g).values():
        mark = uf.checkpoint()
        kept.extend(eid for eid in cls if uf.union(*g.edges[eid]))
        uf.rollback(mark)
    keep = set(kept)
    return ColorForestCertificate(
        graph=g,
        edge_ids=tuple(sorted(kept)),
        per_color=tuple(tuple(e for e in cls if e in keep) for cls in g.color_classes()),
    )


# -- large-f scheme -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LargeFVertexLabel:
    vertex: int
    sketch: VertexSketchLabel
    own_color: int | None = None  # vertex mode only: v's color, whose fault removes v
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class LargeFColorLabel:
    color: int
    edge_sketches: tuple[EdgeSketchLabel, ...]  # forest edges, tree parts left in the context
    bits: int = field(default=0, compare=False)


def label_large_f(
    g: ColoredGraph,
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
) -> LabelSet:
    """Sketch the certificate; a color ships its forest edges' names and levels.

    The subtree sketches of tree edges stay in the shared context, charged as
    one sketch per vertex label (module docstring).
    """
    cert = build_certificate(g)
    smallest_first = sorted(range(g.C), key=lambda c: len(cert.per_color[c]))
    # once per edge: a vertex-mode edge is in both end colors' lists, and an
    # edge sketched twice cancels out of every subtree sketch
    order = dict.fromkeys(eid for c in smallest_first for eid in cert.per_color[c])
    ctx = build_edge_fault_labels(g, seed=seed, repetitions=repetitions, order=list(order))
    params = ctx.params
    edge_bits = params.cell_bits + params.repetitions * params.levels
    wlen = width_for(g.n)
    own = g.vertex_colors if g.mode == VERTEX else [None] * g.n
    wown = width_for(g.C) if g.mode == VERTEX else 0
    vertex_labels = tuple(
        LargeFVertexLabel(v, ctx.vertex_labels[v], own[v], params.sketch_bits + wown)
        for v in range(g.n)
    )
    color_labels = []
    for c in range(g.C):
        sketches = tuple(
            replace(ctx.edge_labels[eid], lower=None, subtree=(), bits=edge_bits)
            for eid in cert.per_color[c]
        )
        bits = width_for(g.C) + wlen + sum(s.bits for s in sketches)
        color_labels.append(LargeFColorLabel(c, sketches, bits))
    return LabelSet(
        scheme=LARGE_SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=vertex_labels,
        color_labels=tuple(color_labels),
        meta={"context": ctx, "seed": seed, "certificate_edges": cert.m},
    )


def query_large_f(
    ls: LabelSet,
    lu: LargeFVertexLabel,
    lv: LargeFVertexLabel,
    color_labels: Sequence[LargeFColorLabel],
) -> bool:
    check_removed(lu, lv, [lc.color for lc in color_labels])
    ctx: EdgeFaultLabels = ls.meta["context"]
    faults = []
    for lc in color_labels:
        for e in lc.edge_sketches:
            if e.scheme_id != ctx.params.scheme_id:
                raise SchemeMismatchError("color label from a different build")
            faults.append(ctx.edge_labels[e.eid])  # with its tree part, if a tree edge
    return query_edge_fault(ctx, lu.sketch, lv.sketch, faults)


# -- recursive prevalence-split scheme -------------------------------------------


@dataclass(frozen=True, slots=True)
class RecursiveVertexLabel:
    vertex: int
    f: int
    sketch: VertexSketchLabel
    # one per prevalent color: recursive labels, or one-fault labels once f = 2
    children: tuple["RecursiveVertexLabel | SingleFaultVertexLabel", ...]
    own_color: int | None = None  # vertex mode, top level only: v's color
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class RecursiveColorLabel:
    color: int
    branch: int | None  # index into the node's prevalent list, if prevalent
    edge_sketches: tuple[EdgeSketchLabel, ...]  # low-prevalence colors
    children: tuple["RecursiveColorLabel | SingleFaultColorLabel", ...]
    bits: int = field(default=0, compare=False)


# the color label kind that answers beside each vertex label kind
_COLOR_KIND = {RecursiveVertexLabel: RecursiveColorLabel, SingleFaultVertexLabel: SingleFaultColorLabel}


def _delta(m_cert: int, b_lower: float, sketch_label_bits: int) -> float:
    if m_cert == 0:
        return 1.0
    raw = math.sqrt(m_cert * max(b_lower, 1.0) / max(sketch_label_bits, 1))
    return min(max(raw, 1.0), float(m_cert))


def _b_estimate(level: int, b1: float, m_cert: int, sketch_label_bits: int) -> float:
    """Balanced-recursion estimate of the (level)-fault label size."""
    b = b1
    for _ in range(level - 1):
        b = math.sqrt(b * max(m_cert, 1) * max(sketch_label_bits, 1))
    return b


def _drop(g: ColoredGraph, removed: list[int]) -> ColoredGraph:
    """The child g - h: g without the edges ``removed`` of h's fault.

    It keeps every other class's spanning forest, so it is its own certificate.
    """
    dropped = set(removed)
    return g.keep_edges(eid for eid in range(g.m) if eid not in dropped)


def _leaves(g: ColoredGraph, prevalent: list[int], ecls: list[list[int]]) -> list[tuple]:
    """(vertex labels, color labels, manifest) of each one-fault child g - h, h prevalent.

    A leaf's entries are cid(v, (g - h) - c) = cid(v, g - {h, c}), so one
    ``cids_after_faults`` sweep of g over the pairs {h, c} gives them all
    ({h} when c = h); a pair of two prevalent colors serves both children.
    Each child copy is built only for its ruling set and path colors: in
    vertex mode its h-colored vertices stay isolated A0 anchors, which no
    entry lists, so g - {h, c} removing them changes no listed value.
    """
    plans = []
    wanted: dict[frozenset[int], list[int]] = {}
    for h in prevalent:
        child = _drop(g, ecls[h])
        ruling = build_ruling_set(child)
        colors_on_path = path_colors(child, ruling.parent, ruling.parent_edge)
        entries = _entries(child, ruling, colors_on_path)
        for c, (on_path, live) in enumerate(entries):
            if on_path or live:
                listed = wanted.setdefault(frozenset((h, c)), [])
                listed += on_path
                listed += live
        plans.append((h, ruling, colors_on_path, entries, child.m))
        del child
    for listed in wanted.values():  # each vertex once, however many lists name it
        listed[:] = dict.fromkeys(listed)
    swept = cids_after_faults(g, wanted)

    out = []
    for h, ruling, colors_on_path, entries, m in plans:
        def cids(c: int, vertices: list[int], h: int = h) -> list[int]:
            found = swept.get(frozenset((h, c)), {})
            return [found[v] for v in vertices]

        base = _assemble(g, ruling, colors_on_path, entries, cids)
        manifest = {"f": 1, "n": g.n, "m": m, "scheme": "single-fault"}
        out.append((base.vertex_labels, base.color_labels, manifest))
    return out


def _recurse(g: ColoredGraph, f: int, seed: int, repetitions: int) -> tuple[list, list, dict]:
    """Returns (vertex labels, color labels, manifest) of the certificate ``g``, f >= 2.

    The children of an f = 2 node are one-fault leaves (``_leaves``).
    """
    sketch_seed = _hash_fields(seed, 0xEDE)
    params = SketchParams.create(g.n, g.m, sketch_seed, repetitions)
    sketch_label_bits = params.sketch_bits if g.n else 0

    ruling = build_ruling_set(g)  # b1: g's largest one-fault label, sized unbuilt
    colors_on_path = path_colors(g, ruling.parent, ruling.parent_edge)
    vertex_bits, color_bits = label_bits(g, ruling, colors_on_path)
    b1 = float(max(vertex_bits + color_bits, default=0))
    b_lower = _b_estimate(f - 1, b1, g.m, sketch_label_bits)
    delta = _delta(g.m, b_lower, sketch_label_bits)

    ecls = g.color_classes()
    prevalent = [c for c in range(g.C) if len(ecls[c]) >= delta]
    branch_of = {c: i for i, c in enumerate(prevalent)}
    rare = {eid for c in range(g.C) if c not in branch_of for eid in ecls[c]}
    ctx = build_edge_fault_labels(
        g,
        seed=sketch_seed,
        repetitions=repetitions,
        order=sorted(range(g.m), key=rare.__contains__),
    )

    if f == 2:
        subs = _leaves(g, prevalent, ecls)
    else:
        subs = [
            _recurse(_drop(g, ecls[h]), f - 1, _hash_fields(seed, idx + 1), repetitions)
            for idx, h in enumerate(prevalent)
        ]

    wbranch = width_for(g.C + 1)
    vertex_labels = []
    for v in range(g.n):
        children = tuple(vls[v] for vls, _, _ in subs)
        sk = ctx.vertex_labels[v]
        bits = wbranch + sk.bits + sum(ch.bits for ch in children)
        vertex_labels.append(RecursiveVertexLabel(v, f, sk, children, bits=bits))

    color_labels = []
    for c in range(g.C):
        children = tuple(cls[c] for _, cls, _ in subs)
        if c in branch_of:
            sketches: tuple[EdgeSketchLabel, ...] = ()
        else:
            sketches = tuple(ctx.edge_labels[eid] for eid in ecls[c])
        bits = (
            width_for(g.C)
            + 1
            + width_for(len(prevalent) + 1)
            + sum(s.bits for s in sketches)
            + sum(ch.bits for ch in children)
        )
        color_labels.append(
            RecursiveColorLabel(c, branch_of.get(c), sketches, children, bits)
        )

    manifest = {
        "f": f,
        "n": g.n,
        "m": g.m,
        "certificate_edges": g.m,
        "delta": delta,
        "b_lower_estimate": b_lower,
        "sketch_label_bits": sketch_label_bits,
        "prevalent_colors": prevalent,
        "children": {h: man for h, (_, _, man) in zip(prevalent, subs)},
    }
    return vertex_labels, color_labels, manifest


def label_recursive(
    g: ColoredGraph,
    f: int,
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
) -> LabelSet:
    """Prevalence-split recursion; f = 1 is exactly the one-fault scheme."""
    if f < 1:
        raise ValueError("fault budget must be >= 1")
    if f == 1:
        ls = label_single_fault(g)
        return LabelSet(
            scheme=RECURSIVE_SCHEME,
            n=g.n,
            C=g.C,
            mode=g.mode,
            vertex_labels=ls.vertex_labels,
            color_labels=ls.color_labels,
            meta={**ls.meta, "f": 1},
        )
    cert = build_certificate(g)
    vls, cls, manifest = _recurse(cert.subgraph(), f, seed, repetitions)
    manifest["m"] = g.m
    if g.mode == VERTEX:
        wown = width_for(g.C)
        vls = [replace(l, own_color=c, bits=l.bits + wown)
               for l, c in zip(vls, g.vertex_colors)]
    return LabelSet(
        scheme=RECURSIVE_SCHEME,
        n=g.n,
        C=g.C,
        mode=g.mode,
        vertex_labels=tuple(vls),
        color_labels=tuple(cls),
        meta={"f": f, "seed": seed, "manifest": manifest},
    )


def query_recursive(lu, lv, color_labels: Sequence) -> bool:
    """Case split per node: descend on a prevalent fault, else sketch it out."""
    faults = list(color_labels)
    # f = 1 builds plain one-fault labels
    if len(faults) > (lu.f if isinstance(lu, RecursiveVertexLabel) else 1):
        raise InvalidFaultSetError("fault set larger than the scheme's budget")
    check_removed(lu, lv, [c.color for c in faults])
    while True:
        kind = _COLOR_KIND.get(type(lu))
        if kind is None or type(lv) is not type(lu) or any(type(fc) is not kind for fc in faults):
            raise SchemeMismatchError("labels of builds with different fault budgets")
        if kind is SingleFaultColorLabel:
            if not faults:
                raise InvalidFaultSetError("the plain one-fault scheme needs a faulted color")
            return pair_connected(lu, lv, faults[0])
        pick = None  # the first fault of the smallest branch
        for fc in faults:
            if fc.branch is not None and (pick is None or fc.branch < pick.branch):
                pick = fc
        if pick is None:
            break
        branch = pick.branch
        if branch >= len(lu.children) or branch >= len(lv.children):
            raise SchemeMismatchError("color label references a missing branch")
        # g - h has no h edge, so with no other fault the child fails h again:
        # that changes nothing, and the one-fault leaves always get a fault
        faults = [fc.children[branch] for fc in faults if fc is not pick] or [pick.children[branch]]
        lu, lv = lu.children[branch], lv.children[branch]
    # all faulted colors are low-prevalence (or none is left): one edge-fault
    # query, exact with no faulty edges since T spans the node's graph
    edge_faults = [e for fc in faults for e in fc.edge_sketches]
    # a sketch vertex label carries its build's params, the only thing read from the first argument
    return query_edge_fault(lu.sketch, lu.sketch, lv.sketch, edge_faults)


def query_recursive_ids(ls: LabelSet, u: int, v: int, F: Iterable[int]) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, v, colors)
    return query_recursive(
        ls.vertex_labels[u],
        ls.vertex_labels[v],
        [ls.color_labels[c] for c in colors],
    )


def query_large_f_ids(ls: LabelSet, u: int, v: int, F: Iterable[int]) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, v, colors)
    return query_large_f(
        ls,
        ls.vertex_labels[u],
        ls.vertex_labels[v],
        [ls.color_labels[c] for c in colors],
    )
