import subprocess
import sys
from pathlib import Path

from colorfault.schemes import SCHEMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_verify_schemes_script_reports_full_agreement():
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "verify_schemes.py"),
         "--trials", "100", "--oracle-sizes", "64"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    lines = [line for line in run.stdout.splitlines() if line.startswith("scheme=")]
    assert [line.split()[0] for line in lines] == [f"scheme={name}" for name in SCHEMES]
    for line in lines:
        agree, total = line.split("agreement=")[1].split("/")
        assert int(total) > 0 and agree == total, line
