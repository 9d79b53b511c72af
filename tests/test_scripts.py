import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    run = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_sketch_success_report_script_reports_rates():
    lines = _run_script("sketch_success_report.py", "--sizes", "16,32", "--queries", "20")
    header = lines.index(
        "n success_rate target(1-1/n) query_p50_us brute_force_p50_us query_m/4_p50_us")
    rows = [line.split() for line in lines[header + 1:] if line.strip()]
    assert [row[0] for row in rows] == ["16", "32"]
    for _n, rate, _target, query_us, brute_us, many_us in rows:
        assert 0.0 <= float(rate) <= 1.0
        assert float(query_us) > 0 and float(brute_us) > 0 and float(many_us) > 0


def test_fingerprint_script_is_stable():
    # long-unique-build is the only workload that builds routing, and
    # many-faults-skewed the only one whose label sets carry a recursion manifest
    expected = {
        "few-colors-read": ("labels nca.label_bits_max", "oracle file",
                            "answers nca.oracle_query"),
        "long-unique-build": ("labels single_fault.label_bits_max", "routing bits",
                              "routing tables", "routes routing.route",
                              "headers routing.route"),
        "many-faults-skewed": ("labels multi_fault.label_bits_max",
                               "manifest multi_fault.label_bits_max",
                               "answers multi_fault.query"),
    }
    joined = []
    for workload, wanted in expected.items():
        single = _run_script("fingerprint.py", "--workload", workload, "--seed", "1")
        assert single[0] == f"# {workload} seed 1"
        names = [line.split("  ")[1] for line in single[1:]]
        assert all(name in names for name in wanted), (workload, names)
        joined += single
    # one run over several workloads prints the single-workload blocks in order
    assert joined == _run_script("fingerprint.py", "--workload", *expected, "--seed", "1")
    # and those blocks are the pinned seed-1 fingerprint
    assert joined == (SCRIPTS / "fingerprint-seed1.txt").read_text().splitlines()
