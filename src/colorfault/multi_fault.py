"""Labels for two or more color faults.

Two schemes share one sparsifier.  The certificate keeps, per color, a spanning
forest of that color's subgraph; the union H preserves connectivity under every
color fault set exactly, because a surviving edge always has a same-colored
forest path.  Both schemes then run the edge-fault sketch labels of
:mod:`colorfault.sketch` on H: a spanning forest T of H, vertex labels holding
pre-order positions in T, and tree-edge labels holding subtree sketches.

The recursive scheme splits colors by prevalence against a threshold Delta:
prevalent colors are handled by recursing into the graph without them (one
level per removable fault), rare colors by the sketch, whose edge labels they
carry for their whole class.  T takes prevalent-colored edges first, so few
rare edges are tree edges and few rare color labels carry a subtree sketch.
Its queries read only the labels of u, v and F.

The large-f scheme lets every color fault, so a color label would have to
carry a subtree sketch for each of its tree edges, which is far larger than
any other label.  It keeps those sketches in a shared context instead (the
sketch label set, in ``meta["context"]``): a color label carries only the
names and sampling levels of its forest edges, a query looks up the tree-edge
labels of the faulted edges in the context, and each vertex label is charged
one sketch, since the context holds one subtree sketch per tree edge.  T takes
the smallest color classes first, which caps the tree edges of any one color.

Vertex-colored inputs are subdivided into the equivalent edge-colored graph up
front (original vertex ids are preserved); conveniently, a color's class size
in the subdivided graph equals its volume in the original, which is exactly the
prevalence measure vertex mode calls for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .bits import id_width, width_for
from .graph import (
    VERTEX,
    ColoredGraph,
    UnionFind,
    components,
    edge_graph,
    reduce_between_modes,
)
from .labels import LabelSet, check_removed
from .single_fault import (
    SingleFaultColorLabel,
    SingleFaultVertexLabel,
    label_single_fault,
    query_single_fault,
)
from .sketch import (
    DEFAULT_CHECKSUM_BITS,
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


@dataclass(frozen=True)
class ColorForestCertificate:
    """H = union of per-color spanning forests of an edge-colored graph."""

    graph: ColoredGraph  # the graph H lives in (input, or its subdivision)
    edge_ids: tuple[int, ...]
    per_color: tuple[tuple[int, ...], ...]  # forest edge ids per color

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    def subgraph(self) -> ColoredGraph:
        """H as a standalone edge-colored graph (edge ids renumbered)."""
        g = self.graph
        triples = [
            (g.edges[eid][0], g.edges[eid][1], g.edge_color(eid))
            for eid in self.edge_ids
        ]
        return edge_graph(g.n, triples, C=g.C)


def build_certificate(g: ColoredGraph) -> ColorForestCertificate:
    """Spanning forest per color class, scanned in increasing edge id."""
    if g.mode == VERTEX:
        g = reduce_between_modes(g)
    forests: list[list[int]] = []
    uf = UnionFind(g.n)
    for cls in g.color_classes():
        mark = uf.checkpoint()
        forests.append([eid for eid in cls if uf.union(*g.edges[eid])])
        uf.rollback(mark)
    edge_ids = sorted(eid for forest in forests for eid in forest)
    return ColorForestCertificate(
        graph=g,
        edge_ids=tuple(edge_ids),
        per_color=tuple(tuple(f) for f in forests),
    )


# -- large-f scheme -------------------------------------------------------------


@dataclass(frozen=True)
class LargeFVertexLabel:
    vertex: int
    sketch: VertexSketchLabel
    own_color: int | None = None  # vertex mode only: v's color, whose fault removes v
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LargeFColorLabel:
    color: int
    edge_sketches: tuple[EdgeSketchLabel, ...]  # forest edges, tree parts left in the context
    bits: int = field(default=0, compare=False)


def label_large_f(
    g: ColoredGraph,
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
    checksum_bits: int = DEFAULT_CHECKSUM_BITS,
) -> LabelSet:
    """Sketch the certificate; a color ships its forest edges' names and levels.

    The subtree sketches of tree edges stay in the shared context, charged as
    one sketch per vertex label (module docstring).
    """
    cert = build_certificate(g)
    smallest_first = sorted(range(g.C), key=lambda c: len(cert.per_color[c]))
    ctx = build_edge_fault_labels(
        cert.graph,
        seed=seed,
        repetitions=repetitions,
        checksum_bits=checksum_bits,
        order=[eid for c in smallest_first for eid in cert.per_color[c]],
    )
    params = ctx.params
    edge_bits = params.cell_bits + params.repetitions * params.levels
    wlen = width_for(cert.graph.n)
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


@dataclass(frozen=True)
class RecursiveVertexLabel:
    vertex: int
    f: int
    plain_cid: int
    base: SingleFaultVertexLabel | None  # f = 1
    sketch: VertexSketchLabel | None  # f >= 2
    children: tuple["RecursiveVertexLabel", ...]  # one per prevalent color
    own_color: int | None = None  # vertex mode, top level only: v's color
    bits: int = field(default=0, compare=False)


@dataclass(frozen=True)
class RecursiveColorLabel:
    color: int
    f: int
    branch: int | None  # index into the node's prevalent list, if prevalent
    base: SingleFaultColorLabel | None
    edge_sketches: tuple[EdgeSketchLabel, ...]  # low-prevalence colors
    children: tuple["RecursiveColorLabel", ...]
    bits: int = field(default=0, compare=False)


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


def _recurse(
    g: ColoredGraph, f: int, seed: int, repetitions: int, checksum_bits: int
) -> tuple[list, list, dict]:
    """Returns (vertex labels, color labels, manifest) of the certificate ``g``."""
    wid = id_width(max(g.n, 2))
    if f <= 1:
        base = label_single_fault(g)
        vls = [
            RecursiveVertexLabel(
                v, 1, base_cid, base.vertex_labels[v], None, (),
                bits=wid + base.vertex_labels[v].bits,
            )
            for v, base_cid in enumerate(components(g))
        ]
        cls = [
            RecursiveColorLabel(
                c, 1, None, base.color_labels[c], (), (),
                bits=base.color_labels[c].bits,
            )
            for c in range(g.C)
        ]
        manifest = {"f": 1, "n": g.n, "m": g.m, "scheme": "single-fault"}
        return vls, cls, manifest

    sketch_seed = _hash_fields(seed, 0xEDE)
    params = SketchParams.create(g.n, g.m, sketch_seed, repetitions, checksum_bits)
    sketch_label_bits = params.sketch_bits if g.n else 0

    base_probe = label_single_fault(g)
    b1 = float(base_probe.max_label_bits())
    b_lower = _b_estimate(f - 1, b1, g.m, sketch_label_bits)
    delta = _delta(g.m, b_lower, sketch_label_bits)

    ecls = g.color_classes()
    prevalent = [c for c in range(g.C) if len(ecls[c]) >= delta]
    branch_of = {c: i for i, c in enumerate(prevalent)}
    ctx = build_edge_fault_labels(
        g,
        seed=sketch_seed,
        repetitions=repetitions,
        checksum_bits=checksum_bits,
        order=sorted(range(g.m), key=lambda eid: g.edge_color(eid) not in branch_of),
    )

    child_vls: list[list] = []
    child_cls: list[list] = []
    child_manifests = {}
    for idx, h in enumerate(prevalent):
        # g - h keeps every other color's spanning forest, so it is its own certificate
        triples = [
            (u, v, g.edge_color(eid))
            for eid, (u, v) in enumerate(g.edges)
            if g.edge_color(eid) != h
        ]
        child = edge_graph(g.n, triples, C=g.C)
        vls, cls, man = _recurse(
            child, f - 1, _hash_fields(seed, idx + 1), repetitions, checksum_bits
        )
        child_vls.append(vls)
        child_cls.append(cls)
        child_manifests[h] = man

    plain = components(g)
    wbranch = width_for(g.C + 1)
    vertex_labels = []
    for v in range(g.n):
        children = tuple(child_vls[i][v] for i in range(len(prevalent)))
        sk = ctx.vertex_labels[v]
        bits = wid + wbranch + sk.bits + sum(ch.bits for ch in children)
        vertex_labels.append(RecursiveVertexLabel(v, f, plain[v], None, sk, children, bits=bits))

    color_labels = []
    for c in range(g.C):
        children = tuple(child_cls[i][c] for i in range(len(prevalent)))
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
            RecursiveColorLabel(c, f, branch_of.get(c), None, sketches, children, bits)
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
        "children": child_manifests,
    }
    return vertex_labels, color_labels, manifest


def label_recursive(
    g: ColoredGraph,
    f: int,
    seed: int,
    repetitions: int = DEFAULT_REPETITIONS,
    checksum_bits: int = DEFAULT_CHECKSUM_BITS,
) -> LabelSet:
    """Prevalence-split recursion; f = 1 is exactly the one-fault scheme."""
    if f < 1:
        raise ValueError("fault budget must be >= 1")
    original = g
    if f == 1:
        ls = label_single_fault(g)
        return LabelSet(
            scheme=RECURSIVE_SCHEME,
            n=g.n,
            C=g.C,
            mode=g.mode,
            vertex_labels=ls.vertex_labels,
            color_labels=ls.color_labels,
            meta={**ls.meta, "f": 1, "base": True},
        )
    if g.mode == VERTEX:
        # subdivide to the equivalent edge-colored instance; vertex ids and
        # the palette are preserved
        g = reduce_between_modes(g)
    sparse = build_certificate(g).subgraph()
    vls, cls, manifest = _recurse(sparse, f, seed, repetitions, checksum_bits)
    manifest["m"] = g.m
    vls = vls[: original.n]
    if original.mode == VERTEX:
        wown = width_for(original.C)
        vls = [replace(l, own_color=c, bits=l.bits + wown)
               for l, c in zip(vls, original.vertex_colors)]
    return LabelSet(
        scheme=RECURSIVE_SCHEME,
        n=original.n,
        C=original.C,
        mode=original.mode,
        vertex_labels=tuple(vls),
        color_labels=tuple(cls[: original.C]),
        meta={"f": f, "seed": seed, "manifest": manifest},
    )


def query_recursive(
    ls: LabelSet,
    lu,
    lv,
    color_labels: Sequence,
) -> bool:
    """Case split per node: descend on a prevalent fault, else sketch it out."""
    faults = list(color_labels)
    if len(faults) > ls.meta["f"]:
        raise ValueError("fault set larger than the scheme's budget")
    check_removed(lu, lv, [c.color for c in faults])
    if ls.meta.get("base"):
        return _query_base(lu, lv, faults)
    return _query_node(lu, lv, faults)


def _query_base(lu, lv, faults) -> bool:
    if not faults:
        raise ValueError("the plain one-fault scheme needs a faulted color")
    lc = faults[0]
    return query_single_fault(lu, lc) == query_single_fault(lv, lc)


def _query_node(lu: RecursiveVertexLabel, lv: RecursiveVertexLabel, faults) -> bool:
    if lu.f == 1:
        if not faults:
            return lu.plain_cid == lv.plain_cid
        if lu.base is None or lv.base is None:
            raise SchemeMismatchError("missing base labels at a leaf")
        lc = faults[0].base
        if lc is None:
            raise SchemeMismatchError("missing base color label at a leaf")
        return query_single_fault(lu.base, lc) == query_single_fault(lv.base, lc)
    if not faults:
        return lu.plain_cid == lv.plain_cid
    descend = [fc for fc in faults if fc.branch is not None]
    if descend:
        pick = min(descend, key=lambda fc: fc.branch)
        branch = pick.branch
        if branch >= len(lu.children) or branch >= len(lv.children):
            raise SchemeMismatchError("color label references a missing branch")
        rest = [fc.children[branch] for fc in faults if fc is not pick]
        return _query_node(lu.children[branch], lv.children[branch], rest)
    # all faulted colors are low-prevalence: one edge-fault query
    if lu.sketch is None or lv.sketch is None:
        raise SchemeMismatchError("sketch label missing at an inner node")
    edge_faults = [e for fc in faults for e in fc.edge_sketches]
    # a sketch vertex label carries its build's params, the only thing read from the first argument
    return query_edge_fault(lu.sketch, lu.sketch, lv.sketch, edge_faults)


def query_recursive_ids(ls: LabelSet, u: int, v: int, F: Iterable[int]) -> bool:
    colors = sorted(set(F))
    ls.check_ids(u, v, colors)
    return query_recursive(
        ls,
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
