import dataclasses
import json
import pickle
import random

import pytest

from colorfault.cli import main
from colorfault.generators import gen_grid, gen_path, gen_random, gen_tree, gen_wheel
from colorfault.graph import GraphError, parse_graph, serialize_graph
from colorfault.nca import load_oracle, oracle_index_words, oracle_uncut_colors
from colorfault.oracle import brute_force_connected
from colorfault.schemes import SCHEMES


def write_graph(tmp_path, g, name="g.ccg"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_gen_writes_canonical_text(tmp_path, capsys):
    out = tmp_path / "p.ccg"
    assert main(["gen", "path", "--n", "9", "-o", str(out)]) == 0
    g = parse_graph(out.read_text())
    assert g.n == 9 and g.m == 8


@pytest.mark.parametrize("argv, make", [
    (["wheel", "--n", "8"], lambda: gen_wheel(8, coloring="uniform", C=3, seed=5)),
    (["grid", "--rows", "3", "--cols", "4"],
     lambda: gen_grid(3, 4, coloring="uniform", C=3, seed=5)),
    (["tree", "--n", "9", "--mode", "vertex"],
     lambda: gen_tree(9, seed=5, coloring="uniform", C=3, mode="vertex")),
])
def test_gen_wheel_grid_tree(tmp_path, argv, make):
    out = tmp_path / "g.ccg"
    assert main(["gen", *argv, "--C", "3", "--seed", "5", "-o", str(out)]) == 0
    assert out.read_text() == serialize_graph(make())


def test_gen_without_output_writes_stdout(capsys):
    assert main(["gen", "path", "--n", "9", "--coloring", "unique"]) == 0
    assert capsys.readouterr().out == serialize_graph(gen_path(9))


def test_gen_path_defaults_to_unique_colors(capsys):
    # no --coloring: gen_path's own default, one color per edge
    assert main(["gen", "path", "--n", "9"]) == 0
    assert capsys.readouterr().out == serialize_graph(gen_path(9))


def test_gen_random_reproducible(tmp_path):
    a, b = tmp_path / "a.ccg", tmp_path / "b.ccg"
    args = ["gen", "random", "--n", "12", "--m", "20", "--C", "4", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("simple", [True, False])
def test_gen_random_edges_need_a_vertex(capsys, simple):
    with pytest.raises(GraphError, match="3 edges need at least one vertex"):
        gen_random(0, 3, 2, seed=1, simple=simple)
    assert gen_random(0, 0, 2, seed=1).n == 0
    args = ["gen", "random", "--n", "0", "--m", "3"] + ([] if simple else ["--multigraph"])
    assert main(args) == 1
    assert capsys.readouterr().err.strip() == "error: 3 edges need at least one vertex"


def test_label_and_query_single(tmp_path, capsys):
    g = gen_path(4, coloring="uniform", C=2, seed=1)
    gpath = write_graph(tmp_path, g)
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", "single", "-o", str(labels)]) == 0
    out = capsys.readouterr().out
    assert "max_bits=" in out
    code = main(["query", str(labels), "0", "3", "--colors", "0"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("connected=")


@pytest.mark.parametrize("name", list(SCHEMES))
def test_label_query_verify_round_trip(tmp_path, capsys, name):
    g = gen_random(24, 40, 4, seed=11, connected=True)
    gpath = write_graph(tmp_path, g)
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", name, "--seed", "3", "-o", str(labels)]) == 0
    capsys.readouterr()
    rng = random.Random(5)
    for _ in range(20):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        F = rng.sample(range(g.C), rng.randrange(1, SCHEMES[name].budget(2) + 1))
        colors = ",".join(str(c) for c in F)
        assert main(["query", str(labels), str(u), str(v), "--colors", colors]) == 0
        want = int(brute_force_connected(g, u, v, F))
        assert capsys.readouterr().out.strip() == f"connected={want}"
    assert main(["verify", gpath, "--scheme", name, "--trials", "60", "--seed", "3"]) == 0
    assert "agreement=1.000" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["single", "two-diam"])
@pytest.mark.parametrize("u, v, colors", [
    ("-1", "8", "3"),  # would wrap to vertex 8
    ("0", "8", "-1"),  # would wrap to the last color
    ("99", "8", "3"),
    ("0", "8", "9"),
])
def test_query_rejects_out_of_range_ids(tmp_path, capsys, name, u, v, colors):
    gpath = write_graph(tmp_path, gen_path(9))  # unique colors: C = 8
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", name, "-o", str(labels)]) == 0
    capsys.readouterr()
    assert main(["query", str(labels), u, v, "--colors", colors]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_label_summary_file(tmp_path):
    g = gen_random(10, 16, 3, seed=2)
    gpath = write_graph(tmp_path, g)
    summary = tmp_path / "s.json"
    assert main(["label", gpath, "--scheme", "single", "--summary", str(summary)]) == 0
    data = json.loads(summary.read_text())
    assert data["scheme"] == "single-fault"


def test_two_diam_builds_on_a_deep_graph(tmp_path, capsys):
    g = gen_path(30, coloring="uniform", C=3, seed=3)  # depth 29 >> sqrt(30)
    gpath = write_graph(tmp_path, g)
    labels = tmp_path / "l.bin"
    assert main(["label", gpath, "--scheme", "two-diam", "-o", str(labels)]) == 0
    captured = capsys.readouterr()
    assert "max_bits=" in captured.out and captured.err == ""
    assert labels.exists()
    assert main(["query", str(labels), "0", "29", "--colors", "0,1"]) == 0
    want = int(brute_force_connected(g, 0, 29, [0, 1]))
    assert capsys.readouterr().out.strip() == f"connected={want}"
    with pytest.raises(SystemExit):  # the flag that overrode a depth refusal is gone
        main(["label", gpath, "--scheme", "two-diam", "--force"])


def test_multi_label_manifest_in_report(tmp_path, capsys):
    g = gen_random(12, 24, 4, seed=4)
    gpath = write_graph(tmp_path, g)
    assert main(["label", gpath, "--scheme", "multi", "--f", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "manifest.delta=" in out


def test_oracle_build_and_query(tmp_path, capsys):
    g = gen_random(14, 22, 4, seed=5)
    gpath = write_graph(tmp_path, g)
    opath = tmp_path / "oracle.bin"
    assert main(["oracle", "build", gpath, "-o", str(opath)]) == 0
    capsys.readouterr()
    assert main(["oracle", "query", str(opath), "0", "1", "0"]) == 0
    out = capsys.readouterr().out
    want = int(brute_force_connected(g, 0, 1, {0}))
    assert out.strip() == f"connected={want}"


def test_verify_deterministic_scheme(tmp_path, capsys):
    g = gen_random(16, 28, 4, seed=6)
    gpath = write_graph(tmp_path, g)
    assert main(["verify", gpath, "--scheme", "single", "--trials", "150"]) == 0
    out = capsys.readouterr().out
    assert "agreement=1.000" in out


def test_verify_two_diam(tmp_path, capsys):
    g = gen_random(14, 30, 4, seed=7, connected=True)
    gpath = write_graph(tmp_path, g)
    assert main(["verify", gpath, "--scheme", "two-diam", "--trials", "120"]) == 0
    assert "agreement=1.000" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["label", "verify"])
@pytest.mark.parametrize("scheme", ["multi", "large"])
@pytest.mark.parametrize("flag", [["--repetitions", "0"], ["--repetitions", "-1"]])
def test_sketch_schemes_reject_empty_sketch_params(tmp_path, capsys, command, scheme, flag):
    gpath = write_graph(tmp_path, gen_random(12, 24, 4, seed=4))
    assert main([command, gpath, "--scheme", scheme, "--seed", "5", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_bench_reports_slope(capsys):
    assert main(["bench", "--scheme", "single", "--sizes", "4,32,64,128",
                 "--generator", "path"]) == 0
    out = capsys.readouterr().out
    assert "slope_words=" in out and "n64.max_bits=" in out
    # the ruling set's k, the certified r = floor(k/4), and label words per r when r >= 1
    assert "n4.k=3\nn4.r=0\nn32.max_bits=" in out
    assert "n32.k=8\nn32.r=2\nn32.words_per_r=" in out
    assert "n128.k=16\nn128.r=4\nn128.words_per_r=" in out


def test_bench_two_diam_reports_depth(capsys):
    assert main(["bench", "--scheme", "two-diam", "--sizes", "1,4,16",
                 "--generator", "path", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    # the BFS depth D, and label words per D * sqrt(n) when D >= 1
    assert "n1.D=0\nn4.max_bits=" in out
    assert "n4.D=3\nn4.words_per_D_sqrt_n=" in out
    assert "n16.D=15\nn16.words_per_D_sqrt_n=" in out
    assert ".k=" not in out and ".r=" not in out


def test_bench_multi_on_dense_random(capsys):
    assert main(["bench", "--scheme", "multi", "--generator", "random", "--coloring", "uniform",
                 "--density", "4", "--f", "2", "--sizes", "16,32", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "slope_bits=" in out and ".k=" not in out and ".r=" not in out  # single only


def test_bench_reports_build_time(capsys):
    assert main(["bench", "--scheme", "multi", "--sizes", "16,32", "--f", "2",
                 "--generator", "random", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for n in (16, 32):
        at = lines.index(next(l for l in lines if l.startswith(f"n{n}.max_words=")))
        key, value = lines[at + 1].split("=")
        assert key == f"n{n}.build_s" and float(value) >= 0  # thread CPU seconds


@pytest.mark.parametrize("sizes, cause", [("8,8", "distinct"), ("0,8", "--sizes"),
                                          ("8,0", "--sizes"), ("1,2", "positive y")])
def test_bench_rejects_degenerate_sizes(capsys, sizes, cause):
    assert main(["bench", "--scheme", "single", "--sizes", sizes]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and cause in captured.err


@pytest.mark.parametrize("flag, argv", [
    ("--sizes", ["bench", "--sizes", "8,x"]),
    ("--colors", ["query", "labels.bin", "0", "1", "--colors", "0,x"]),
    ("--centers", ["encode", "balls", "g.ccg", "--bits", "10", "--centers", "1,,7"]),
])
def test_malformed_list_flag_is_named(capsys, flag, argv):
    # a usage error naming the flag, like a malformed --seed, not a bare int() message
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument {flag}: expected comma-separated integers" in err.splitlines()[-1]


def test_empty_colors_mean_no_faults(tmp_path, capsys):
    g = gen_random(12, 14, 3, seed=8)  # sparse: some pairs are apart with no fault
    gpath = write_graph(tmp_path, g)
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", "multi", "-o", str(labels)]) == 0
    capsys.readouterr()
    for u in range(g.n):
        want = int(brute_force_connected(g, 0, u))
        for colors in (["--colors", ""], []):
            assert main(["query", str(labels), "0", str(u), *colors]) == 0
            assert capsys.readouterr().out.strip() == f"connected={want}"


@pytest.mark.parametrize("command", ["label", "verify"])
def test_checksum_width_is_not_a_flag(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "--repetitions" in out and "--checksum" not in out


@pytest.mark.parametrize("argv, cause", [
    (["verify", "--scheme", "single", "--trials", "0"], "--trials"),
    (["verify", "--scheme", "two-diam", "--trials", "-3"], "--trials"),
    (["verify", "--scheme", "all-pairs", "--trials", "0"], "--trials"),
    (["verify", "--scheme", "all-pairs", "--f", "-1"], "fault budget"),
    (["verify", "--scheme", "large", "--f", "-1"], "fault budget"),  # large builds for any f
    (["label", "--scheme", "large", "--f", "-3"], "fault budget"),
])
def test_trials_and_fault_budget_rejected(tmp_path, capsys, argv, cause):
    gpath = write_graph(tmp_path, gen_random(12, 20, 3, seed=9))
    assert main([argv[0], gpath, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and cause in captured.err


@pytest.mark.parametrize("name", list(SCHEMES))
def test_verify_rejects_graph_without_vertices(tmp_path, capsys, name):
    gpath = tmp_path / "empty.ccg"
    gpath.write_text("ccg 1 edge 0 0 0\n")
    assert main(["verify", str(gpath), "--scheme", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "no vertices" in captured.err


@pytest.mark.parametrize("name", list(SCHEMES))
def test_verify_graph_without_colors(tmp_path, capsys, name):
    # a one-fault or two-fault scheme has no color to fail; the others answer F = {}
    gpath = tmp_path / "colorless.ccg"
    gpath.write_text("ccg 1 edge 3 0 0\n")
    code = main(["verify", str(gpath), "--scheme", name, "--trials", "20"])
    captured = capsys.readouterr()
    if SCHEMES[name].max_faults is None:
        assert code == 0 and "agreement=1.000" in captured.out
    else:
        assert code == 1 and captured.out == "" and captured.err.startswith("error: ")
        assert "no colors to fail" in captured.err


VERTEX_GRAPH = gen_random(14, 22, 3, seed=8, mode="vertex")  # vertex 0 has color 2


@pytest.mark.parametrize("name", ["single", "two-diam"])
def test_query_of_a_removed_vertex(tmp_path, capsys, name):
    gpath = write_graph(tmp_path, VERTEX_GRAPH)
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", name, "-o", str(labels)]) == 0
    capsys.readouterr()
    assert main(["query", str(labels), "0", "1", "--colors", "2"]) == 2
    assert capsys.readouterr().out.startswith("error=removed-vertex detail=")


def test_verify_counts_trials_with_a_removed_vertex(tmp_path, capsys):
    g = VERTEX_GRAPH
    gpath = write_graph(tmp_path, g)
    assert main(["verify", gpath, "--scheme", "two-diam", "--trials", "40", "--seed", "3"]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    # the same draws as cmd_verify: a trial is skipped when u or v has a failed color
    rng = random.Random(3)
    removed = 0
    for _ in range(40):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        F = rng.sample(range(g.C), rng.randrange(1, 3))
        removed += g.vertex_color(u) in F or g.vertex_color(v) in F
    assert 0 < removed < 40
    assert int(report["skipped_removed"]) == removed
    assert report["agreement"] == "1.000"


def test_route_to_an_unreachable_target(tmp_path, capsys):
    # the path's edge 2-3 has the unique color 2
    gpath = write_graph(tmp_path, gen_path(5))
    assert main(["route", gpath, "--source", "0", "--target", "4", "--avoid", "2"]) == 2
    out = capsys.readouterr().out
    assert out == "error=unreachable detail=0 and 4 are separated once color 2 fails\n"


def test_route_trace_format(tmp_path, capsys):
    g = gen_random(10, 18, 3, seed=8, connected=True)
    gpath = write_graph(tmp_path, g)
    code = main(["route", gpath, "--source", "0", "--target", "5",
                 "--avoid", "1", "--trace"])
    out = capsys.readouterr().out
    if code == 0:
        assert "delivered=1" in out
        assert "--port " in out
    else:
        assert code == 2  # honest unreachable


def test_verify_all_pairs_reports_no_false_disconnected(tmp_path, capsys):
    g = gen_random(12, 20, 3, seed=9)
    gpath = write_graph(tmp_path, g)
    assert main(["verify", gpath, "--scheme", "all-pairs", "--f", "1", "--trials", "150",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "false_disconnected=0" in out


# connected=True, yet three faults of twelve colors still cut many pairs
SKETCH_GRAPH = gen_random(60, 150, 12, seed=4, connected=True)
SKETCH_ARGS = ["--f", "3", "--repetitions", "1", "--seed", "5"]


@pytest.mark.parametrize("name", ["multi", "large"])
def test_verify_passes_sketch_errors_toward_disconnected(tmp_path, capsys, name):
    gpath = write_graph(tmp_path, SKETCH_GRAPH)
    assert main(["verify", gpath, "--scheme", name, "--trials", "300", *SKETCH_ARGS]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("mismatch "))
    assert report["false_connected"] == "0" and int(report["false_disconnected"]) > 0


def flip_one_answer(g, ask, wrong):
    """``ask``, but the first question whose true answer is ``not wrong`` gets ``wrong``."""
    flipped = []

    def flipping(ls, u, v, F):
        if not flipped and brute_force_connected(g, u, v, F) != wrong:
            flipped.append((u, v, F))
            return wrong
        return ask(ls, u, v, F)

    return flipping


@pytest.mark.parametrize("name, wrong, code", [
    ("multi", False, 0), ("multi", True, 1),
    ("all-pairs", True, 0), ("all-pairs", False, 1),
    ("single", True, 1), ("single", False, 1),
])
def test_verify_fails_only_on_forbidden_errors(tmp_path, capsys, monkeypatch, name, wrong, code):
    g = gen_random(24, 40, 4, seed=11, connected=True)
    gpath = write_graph(tmp_path, g)
    row = SCHEMES[name]
    monkeypatch.setitem(SCHEMES, name,
                        dataclasses.replace(row, ask=flip_one_answer(g, row.ask, wrong)))
    assert main(["verify", gpath, "--scheme", name, "--f", "2", "--trials", "60",
                 "--seed", "3"]) == code
    mismatches = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("mismatch ")]
    assert len(mismatches) == 1
    assert mismatches[0].endswith(f"got={int(wrong)} want={int(not wrong)}")


def test_verify_mismatches_replay(tmp_path, capsys):
    gpath = write_graph(tmp_path, SKETCH_GRAPH)
    summary = tmp_path / "s.json"
    assert main(["verify", gpath, "--scheme", "multi", "--trials", "100", *SKETCH_ARGS,
                 "--summary", str(summary)]) == 0
    lines = [line.removeprefix("mismatch ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("mismatch ")]
    assert lines and json.loads(summary.read_text())["mismatch"] == lines
    labels = tmp_path / "labels.bin"
    assert main(["label", gpath, "--scheme", "multi", *SKETCH_ARGS, "-o", str(labels)]) == 0
    capsys.readouterr()
    for line in lines:
        m = dict(field.split("=") for field in line.split())
        assert main(["query", str(labels), m["u"], m["v"], "--colors", m["F"]]) == 0
        assert capsys.readouterr().out.strip() == f"connected={m['got']}"
        assert int(brute_force_connected(SKETCH_GRAPH, int(m["u"]), int(m["v"]),
                                         [int(c) for c in m["F"].split(",")])) == int(m["want"])


def test_encode_balls_cli(tmp_path, capsys):
    g = gen_path(9)
    gpath = write_graph(tmp_path, g)
    assert main(["encode", "balls", gpath, "--bits", "1010",
                 "--centers", "1,7", "--decode-with", "scheme"]) == 0
    out = capsys.readouterr().out
    assert "round_trip=1" in out


def test_encode_balls_cli_without_centers(tmp_path, capsys):
    # the certificate gives k = 9 and r = 2 on the 40-path: 4 bits
    gpath = write_graph(tmp_path, gen_path(40))
    assert main(["encode", "balls", gpath, "--bits", "1101",
                 "--decode-with", "scheme"]) == 0
    out = capsys.readouterr().out
    assert "capacity=4" in out and "decoded=1101" in out and "round_trip=1" in out


@pytest.mark.parametrize("argv", [
    ["balls", "GRAPH", "--bits", "1010", "--centers", "1,7"],
    ["spider", "--f", "2", "--q", "4", "--arms", "3", "--bits", "10" * 9],
])
def test_encode_decodes_with_the_oracle_by_default(tmp_path, capsys, argv):
    argv = [write_graph(tmp_path, gen_path(9)) if a == "GRAPH" else a for a in argv]
    assert main(["encode", *argv]) == 0
    out = capsys.readouterr().out
    assert "round_trip=1" in out and "bit_accuracy=1" in out


def test_encode_spider_cli(capsys):
    assert main(["encode", "spider", "--f", "2", "--q", "4", "--arms", "3",
                 "--bits", "10" * 9, "--decode-with", "scheme", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "round_trip=1" in out


def test_cfl_seed_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CFL_SEED", "99")
    a, b = tmp_path / "a.ccg", tmp_path / "b.ccg"
    assert main(["gen", "random", "--n", "10", "--m", "15", "--C", "3", "-o", str(a)]) == 0
    assert main(["gen", "random", "--n", "10", "--m", "15", "--C", "3",
                 "--seed", "99", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_bad_cfl_seed_env_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CFL_SEED", "nine")
    argv = ["gen", "random", "--n", "10", "--m", "15", "--C", "3", "-o", str(tmp_path / "a")]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code != 0
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("argument --seed: invalid int value: 'nine'")
    assert "Traceback" not in err and not (tmp_path / "a").exists()
    # an explicit --seed does not read CFL_SEED
    assert main(argv + ["--seed", "4"]) == 0


def test_bad_graph_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.ccg"
    path.write_text("ccg 1 edge 2 1 1\n0 5 0\n")
    assert main(["label", str(path), "--scheme", "single"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["label", "{missing}", "--scheme", "single"],
    ["query", "{missing}", "0", "1", "--colors", "0"],
    ["oracle", "query", "{missing}", "0", "1", "0"],
    ["oracle", "build", "{missing}", "-o", "{out}"],
], ids=["label", "query", "oracle-query", "oracle-build"])
def test_missing_input_file_is_an_error_line(tmp_path, capsys, argv):
    missing, out = tmp_path / "missing.txt", tmp_path / "x"
    argv = [a.format(missing=missing, out=out) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.txt" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cut", [None, 0, 20], ids=["junk", "empty", "first-20-bytes"])
def test_query_of_a_file_that_is_not_labels_is_an_error_line(tmp_path, capsys, cut):
    bad = tmp_path / "bad.bin"
    if cut is None:
        bad.write_bytes(b"hello")
    else:
        labels = tmp_path / "labels.bin"
        gpath = write_graph(tmp_path, gen_path(6, coloring="uniform", C=2, seed=1))
        assert main(["label", gpath, "--scheme", "single", "-o", str(labels)]) == 0
        bad.write_bytes(labels.read_bytes()[:cut])
    capsys.readouterr()
    assert main(["query", str(bad), "0", "1", "--colors", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "bad.bin" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("data, cause", [
    (pickle.dumps([1, 2, 3]), "it holds a list"),
    (b"cno_such_module\nThing\n.", "No module named 'no_such_module'"),
    (b"cpickle\nNoSuchThing\n.", "NoSuchThing"),
], ids=["list", "missing-module", "missing-class"])
def test_query_of_a_foreign_pickle_is_an_error_line(tmp_path, capsys, data, cause):
    bad = tmp_path / "foreign.pkl"
    bad.write_bytes(data)
    assert main(["query", str(bad), "0", "1", "--colors", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad} is not a label file: ")
    assert cause in err and err.count("\n") == 1


def test_oracle_build_prints_index_words(tmp_path, capsys):
    # connected, edge mode: every non-root forest vertex is colored, so the
    # stamps and answers alone take 4 (n - 1) words; two long colors add tables
    n = 200
    g = gen_random(n, 2 * n, 2, seed=3, connected=True)
    opath = tmp_path / "oracle.bin"
    assert main(["oracle", "build", write_graph(tmp_path, g), "-o", str(opath)]) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.split())
    assert list(out) == ["bytes", "header_bits", "body_bits", "index_words", "table_colors",
                         "uncut_colors"]
    words = int(out["index_words"])
    assert words == oracle_index_words(load_oracle(opath.read_bytes()))
    assert out["table_colors"] == "2"
    assert int(out["uncut_colors"]) == oracle_uncut_colors(load_oracle(opath.read_bytes()))
    assert 4 * (n - 1) < words <= 6 * n + n / 32


def test_oracle_round_trip_on_vertex_colored_graph(tmp_path, capsys):
    gpath, opath = tmp_path / "g.ccg", tmp_path / "oracle.bin"
    assert main(["gen", "random", "--n", "14", "--m", "22", "--C", "3", "--seed", "8",
                 "--mode", "vertex", "-o", str(gpath)]) == 0
    g = parse_graph(gpath.read_text())
    assert g.mode == "vertex"
    assert main(["oracle", "build", str(gpath), "-o", str(opath)]) == 0
    capsys.readouterr()
    removed = 0
    for c in range(g.C):
        for u in range(g.n):
            for v in (0, g.n - 1):
                code = main(["oracle", "query", str(opath), str(u), str(v), str(c)])
                out = capsys.readouterr().out
                if c in (g.vertex_color(u), g.vertex_color(v)):
                    assert code == 2 and out.startswith("error=removed-vertex"), out
                    removed += 1
                else:
                    want = int(brute_force_connected(g, u, v, {c}))
                    assert code == 0 and out.strip() == f"connected={want}", (u, v, c)
    assert removed
