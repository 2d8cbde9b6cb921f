"""Each script under scripts/ runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdfam

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(pdfam.__file__).resolve().parents[1])


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("argv", [
    ("expansion_sweep.py", "--max-m", "23"),
    ("expansion_sweep.py", "--base", "order32", "--max-m", "47"),
    ("hds_landscape.py", "--u", "1", "--group", "Z4"),
    ("max_unit_y.py", "Z7", "F9"),
    ("verify_rate.py", "--repeats", "1", "--round-s", "0.01"),
], ids=" ".join)
def test_script_runs(argv):
    done = run_script(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_hds_landscape_refuses_u_without_group():
    # the default sweep searched the order-16 groups for u = 1, which
    # ended in an OrderMismatchError traceback
    done = run_script("hds_landscape.py", "--u", "1")
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
