import pytest

from colorfault.bits import id_width, width_for
from colorfault.generators import gen_random
from colorfault.graph import edge_graph
from colorfault.labels import loglog_slope, measure_labels, report_lines
from colorfault.single_fault import label_single_fault


def test_report_totals_are_sums():
    g = gen_random(20, 34, 5, seed=1)
    ls = label_single_fault(g)
    rep = measure_labels(ls)
    assert rep["vertex"]["total"] == sum(l.bits for l in ls.vertex_labels)
    assert rep["color"]["total"] == sum(l.bits for l in ls.color_labels)
    assert rep["total_bits"] == rep["vertex"]["total"] + rep["color"]["total"]
    assert rep["max_bits"] == ls.max_label_bits()


def test_report_is_deterministic():
    g = gen_random(15, 24, 4, seed=2)
    ls = label_single_fault(g)
    assert measure_labels(ls) == measure_labels(ls)
    assert report_lines(measure_labels(ls)) == report_lines(measure_labels(ls))


def test_empty_map_label_is_fixed_header():
    # isolated vertex: anchor id plus the (empty) map's length prefix
    g = edge_graph(5, [(0, 1, 0)], C=1)
    ls = label_single_fault(g)
    k = ls.meta["k"]
    want = id_width(g.n) + width_for(k)
    assert ls.vertex_labels[3].bits == want
    assert ls.vertex_labels[3].cid_by_color == {}


def test_loglog_slope_of_power_law():
    xs = [64, 128, 256, 512]
    assert abs(loglog_slope(xs, [x**0.5 for x in xs]) - 0.5) < 1e-9
    assert abs(loglog_slope(xs, [x * 3 for x in xs]) - 1.0) < 1e-9


@pytest.mark.parametrize("xs, cause", [([8, 8], "distinct"), ([5], "distinct"),
                                       ([0, 8], "positive"), ([-2, 8, 16], "positive")])
def test_loglog_slope_rejects_degenerate_x(xs, cause):
    with pytest.raises(ValueError, match=cause):
        loglog_slope(xs, [3] * len(xs))


@pytest.mark.parametrize("ys", [[0, 5], [4, -1, 9]])
def test_loglog_slope_rejects_non_positive_y(ys):
    # a zero label size has no logarithm; clamping it would fit a steep slope
    with pytest.raises(ValueError, match="positive y"):
        loglog_slope([1, 2, 4][:len(ys)], ys)


def test_report_lines_flatten():
    lines = report_lines({"a": 1, "b": {"c": 2.5}})
    assert "a=1" in lines and "b.c=2.500" in lines
