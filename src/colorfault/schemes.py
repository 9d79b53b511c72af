"""The scheme registry: one row per labeling scheme, shared by the CLI and scripts.

A labeling scheme is its labels alone: ``build`` turns a graph into a
:class:`LabelSet` once, and ``ask`` answers "are u and v connected once the
colors F fail?" from the labels of u, v and F.  :func:`query` is the one
checked entry point over a built label set.  ``false_answer`` is the one wrong
answer a scheme may give: sketches may miss a connection, the all-pairs
reduction a separation; the other schemes are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import GraphError, InvalidFaultSetError
from .labels import LabelSet
from .multi_fault import (
    LARGE_SCHEME,
    RECURSIVE_SCHEME,
    label_large_f,
    label_recursive,
    query_large_f_ids,
    query_recursive_ids,
)
from .nca import CONN_SCHEME, label_nca_connectivity, pair_connected_nca
from .reduction import SCHEME as ALL_PAIRS_SCHEME
from .reduction import ExactSingleSource, build_all_pairs, query_all_pairs_ids
from .single_fault import SCHEME as SINGLE_SCHEME
from .single_fault import label_single_fault, pair_connected
from .two_fault import SCHEME as TWO_SCHEME
from .two_fault import label_two_fault, query_two_fault_ids


@dataclass(frozen=True, slots=True)
class Scheme:
    name: str  # the --scheme choice
    label_scheme: str  # LabelSet.scheme of the labels it builds
    build: Callable[..., LabelSet]  # (g, *, f, seed, repetitions)
    ask: Callable[[LabelSet, int, int, list[int]], bool]  # colors sorted, distinct
    max_faults: int | None  # None: the f the labels were built for
    false_answer: bool | None = None  # the one wrong answer it may give; None: exact

    def budget(self, f: int) -> int:
        if self.max_faults is None and f < 0:
            raise ValueError(f"fault budget f={f} must be at least 0")
        return f if self.max_faults is None else self.max_faults


def _one_fault(pair_connected_fn):
    def ask(ls: LabelSet, u: int, v: int, colors: list[int]) -> bool:
        (c,) = colors
        return pair_connected_fn(ls.vertex_labels[u], ls.vertex_labels[v], ls.color_labels[c])

    return ask


SCHEMES: dict[str, Scheme] = {s.name: s for s in (
    Scheme("single", SINGLE_SCHEME, lambda g, **_: label_single_fault(g),
           _one_fault(pair_connected), 1),
    Scheme("two-diam", TWO_SCHEME, lambda g, **_: label_two_fault(g),
           lambda ls, u, v, F: query_two_fault_ids(ls, u, v, F[0], F[-1]), 2),
    Scheme("multi", RECURSIVE_SCHEME, label_recursive, query_recursive_ids, None, False),
    Scheme("large", LARGE_SCHEME, lambda g, f, **kw: label_large_f(g, **kw),
           query_large_f_ids, None, False),
    Scheme("nca", CONN_SCHEME, lambda g, **_: label_nca_connectivity(g),
           _one_fault(pair_connected_nca), 1),
    Scheme("all-pairs", ALL_PAIRS_SCHEME,
           lambda g, f, seed, **_: build_all_pairs(g, f, ExactSingleSource(f, g.C), seed=seed),
           query_all_pairs_ids, None, True),
)}


def query(ls: LabelSet, u: int, v: int, colors: Iterable[int]) -> bool:
    """Answer after checking the ids (GraphError) and the fault set (InvalidFaultSetError)."""
    scheme = next((s for s in SCHEMES.values() if s.label_scheme == ls.scheme), None)
    if scheme is None:
        raise GraphError(f"unknown label file scheme {ls.scheme!r}")
    F = sorted(set(colors))
    ls.check_ids(u, v, F)
    if scheme.max_faults is not None and not 1 <= len(F) <= scheme.max_faults:
        raise InvalidFaultSetError(
            f"scheme {scheme.name} needs 1..{scheme.max_faults} faulted colors, got {len(F)}"
        )
    return scheme.ask(ls, u, v, F)
