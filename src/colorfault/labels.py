"""Shared label-set container and bit-exact size accounting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .graph import GraphError, InvalidFaultSetError, RemovedVertexError


@dataclass(frozen=True, slots=True)
class LabelSet:
    """Product of a labeling scheme: one label per vertex, one per color.

    Labels are scheme-specific objects exposing a ``bits`` attribute holding
    their canonical encoded length.  ``meta`` carries scheme metadata (seeds,
    ruling-set size, recursion manifest, ...) used by queries and reports.
    """

    scheme: str
    n: int
    C: int
    mode: str
    vertex_labels: tuple
    color_labels: tuple
    meta: dict = field(default_factory=dict)

    def check_ids(self, u: int, v: int, colors: Iterable[int]) -> None:
        """GraphError for a vertex out of range; InvalidFaultSetError for a color not in 0..C-1."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            bad = v if 0 <= u < n else u
            raise GraphError(f"vertex {bad} outside 0..{n - 1}")
        C = self.C
        for c in colors:
            if not 0 <= c < C:
                raise InvalidFaultSetError(f"color {c} outside palette of size {C}")

    def vertex_bits(self) -> list[int]:
        return [lbl.bits for lbl in self.vertex_labels]

    def color_bits(self) -> list[int]:
        return [lbl.bits for lbl in self.color_labels]

    def max_label_bits(self) -> int:
        return max(self.vertex_bits() + self.color_bits(), default=0)

    def label_groups(self) -> dict[str, Sequence]:
        return {"vertex": self.vertex_labels, "color": self.color_labels}


def check_removed(lu, lv, colors: Iterable[int]) -> None:
    """RemovedVertexError when u's or v's ``own_color`` (vertex mode) is faulted."""
    F = set(colors)
    for lbl in (lu, lv):
        if lbl.own_color is not None and lbl.own_color in F:
            raise RemovedVertexError(f"vertex {lbl.vertex} has a faulted color")


def _stats(sizes: Sequence[int]) -> dict[str, float | int]:
    if not sizes:
        return {"count": 0, "total": 0, "max": 0, "mean": 0.0, "p50": 0, "p90": 0}
    ordered = sorted(sizes)
    return {
        "count": len(sizes),
        "total": sum(sizes),
        "max": ordered[-1],
        "mean": statistics.fmean(sizes),
        "p50": ordered[(len(ordered) - 1) // 2],
        "p90": ordered[min(len(ordered) - 1, (len(ordered) * 9) // 10)],
    }


def measure_labels(labels) -> dict[str, Any]:
    """Per-class canonical bit statistics; a pure function of the label bytes.

    Accepts any object with ``label_groups() -> {class name: labels}`` whose
    labels expose ``bits`` (LabelSet, and the sketch subsystem's V u E sets).
    """
    report: dict[str, Any] = {"scheme": getattr(labels, "scheme", "?")}
    for attr in ("n", "C", "mode"):
        if hasattr(labels, attr):
            report[attr] = getattr(labels, attr)
    max_bits = 0
    total_bits = 0
    for name, group in labels.label_groups().items():
        stats = _stats([lbl.bits for lbl in group])
        report[name] = stats
        max_bits = max(max_bits, stats["max"])
        total_bits += stats["total"]
    report["max_bits"] = max_bits
    report["total_bits"] = total_bits
    return report


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    import math

    if len(set(xs)) < 2 or min(xs) <= 0:
        raise ValueError(f"a log-log slope needs two distinct positive x values, got {list(xs)}")
    if min(ys) <= 0:
        raise ValueError(f"a log-log slope needs positive y values, got {list(ys)}")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


def report_lines(report: dict[str, Any], prefix: str = "") -> list[str]:
    """Flatten a report dict into key=value lines; a tuple gives one ``key item`` line each."""
    lines: list[str] = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(report_lines(value, prefix=f"{name}."))
        elif isinstance(value, tuple):
            lines.extend(f"{name} {item}" for item in value)
        else:
            if isinstance(value, float):
                value = f"{value:.3f}"
            lines.append(f"{name}={value}")
    return lines
