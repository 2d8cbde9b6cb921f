"""Each script under scripts/ runs to completion on a small input and refuses
malformed input the way pdfam does: exit 1 and one line on stderr."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pdfam

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(pdfam.__file__).resolve().parents[1])
# tier1_gate.py takes no arguments and runs this suite itself
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py")
                 if p.name != "tier1_gate.py")

SMOKE = [
    ("expansion_sweep.py", "--max-m", "23"),
    ("expansion_sweep.py", "--base", "order32", "--max-m", "47"),
    ("hds_landscape.py", "--u", "1", "--group", "Z4"),
    ("verify_rate.py", "--repeats", "1", "--round-s", "0.01"),
]
MALFORMED = [
    ("expansion_sweep.py", "--u", "0"),
    # the order-32 base has no u; the flag used to be ignored
    ("expansion_sweep.py", "--base", "order32", "--u", "2"),
    # the default sweep covers the order-16 groups, so only u = 2
    ("hds_landscape.py", "--u", "1"),
    ("hds_landscape.py", "--u", "0", "--group", "Z4"),
    ("hds_landscape.py", "--group", "Q8"),
    ("hds_landscape.py", "--u", "x"),
    ("hds_landscape.py", "--max-results", "0"),
    ("verify_rate.py", "--repeats", "x"),
    ("verify_rate.py", "--repeats", "0"),
]


def run_script(*argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("argv", SMOKE, ids=" ".join)
def test_script_runs(argv):
    done = run_script(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_script_refuses_malformed_input(argv):
    done = run_script(*argv)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("cases", [SMOKE, MALFORMED],
                         ids=["smoke", "malformed"])
def test_every_script_has_a_case(cases):
    assert [name for name in SCRIPTS
            if name not in {argv[0] for argv in cases}] == []


def test_expansion_sweep_covers_every_admissible_modulus():
    done = run_script("expansion_sweep.py", "--max-m", "27")
    assert done.returncode == 0, done.stderr
    lines = dict(re.findall(r"^m=\s*(\d+)\s+(.*)$", done.stdout, re.M))
    for m in ("9", "25", "27"):
        assert "single: certified" in lines[m]
    assert lines["15"] == ("skipped: maximal prime power divisor 5 "
                           "does not exceed 6")
