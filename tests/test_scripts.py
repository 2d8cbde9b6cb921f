"""Each script under scripts/ runs to completion on a small input and refuses
malformed input the way pdfam does: exit 1 and one line on stderr."""

import importlib.util
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
    # a prefix of --repeats used to be taken for it
    ("verify_rate.py", "--rep", "1"),
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


def test_hds_landscape_default_sweep_counts_the_known_sets():
    done = run_script("hds_landscape.py")
    assert done.returncode == 0, done.stderr
    lines = re.findall(r"^(\S+)\s+(\d+) normalized sets \(complete, "
                       r"\d+ nodes, .* nodes/s, .* sets/s, (\S+) MB\)$",
                       done.stdout, re.M)
    assert [line[:2] for line in lines] == [
        ("Z16", "0"), ("Z2xZ8", "12"), ("Z4xZ4", "12"),
        ("Z2xZ2xZ4", "28"), ("Z2xZ2xZ2xZ2", "28")]
    # each group's peak is the process's own so far, from VmHWM
    peaks = [peak for *_, peak in lines]
    if not Path("/proc/self/status").exists():
        assert peaks == ["n/a"] * len(lines)
        return
    peaks = [float(peak) for peak in peaks]
    assert peaks == sorted(peaks)
    assert peaks[-1] < 100


def test_verify_rate_reports_each_family_with_its_peak_rss():
    done = run_script("verify_rate.py", "--repeats", "1", "--round-s", "0.01")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[-2:] == ["peak", "MB"]
    assert [row[:22].strip() for row in rows] == [
        "order-16 search leaf", "u=1, m=499 final", "order-32, m=71 final",
        "u=2, m=41 final", "Paley q=6007"]
    v, pairs = rows[-1][22:].split()[:2]
    assert (v, pairs) == ("6007", str(6008 * 6007))
    # the process's own peak so far; its ru_maxrss would start at the
    # peak of this suite's process, which spawned it
    peaks = [row.split()[-1] for row in rows]
    if not Path("/proc/self/status").exists():
        assert peaks == ["n/a"] * len(rows)
        return
    peaks = [float(peak) for peak in peaks]
    assert peaks == sorted(peaks)
    assert peaks[-1] < 100


def _tier1_gate():
    spec = importlib.util.spec_from_file_location(
        "tier1_gate", ROOT / "scripts" / "tier1_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _junit(tmp_path, cases):
    """A JUnit XML report of (classname, name, outcome) test cases, in the
    layout pytest writes."""
    body = "".join(
        f'<testcase classname="{c}" name="{n}" time="0.1">'
        + {"passed": "", "failed": '<failure message="x">x</failure>',
           "error": '<error message="collection failure">x</error>',
           "skipped": '<skipped message="x">x</skipped>'}[outcome]
        + "</testcase>" for c, n, outcome in cases)
    path = tmp_path / "report.xml"
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites>'
                    f'<testsuite name="pytest">{body}</testsuite>'
                    "</testsuites>")
    return path


def test_tier1_gate_reads_outcomes_and_names_each_problem(tmp_path):
    gate = _tier1_gate()
    pinned = sorted(gate.FAIL_BY_DESIGN)
    module, names = zip(*(t.split("::") for t in pinned))
    ok = _junit(tmp_path, [("tests.test_x", "test_a", "passed"),
                           ("tests.test_x", "test_b", "skipped")]
                + [(m, n, "failed") for m, n in zip(module, names)])
    total, ran, failed = gate.failed_tests(ok)
    assert (total, failed) == (6, set(pinned))
    assert ran == {"tests.test_x::test_a", *pinned}
    assert gate.problems(ran, failed) == []

    # a module that fails to collect is one error case, and its tests,
    # pinned ones included, did not run
    broken = _junit(tmp_path, [("", "tests.test_acceptance", "error"),
                               ("tests.test_x", "test_a", "failed")])
    total, ran, failed = gate.failed_tests(broken)
    assert total == 2
    assert gate.problems(ran, failed) == [
        "unexpected failure: ::tests.test_acceptance",
        "unexpected failure: tests.test_x::test_a",
        *(f"pinned failure did not run: {t}" for t in pinned)]

    mixed = _junit(tmp_path, [(module[0], names[0], "passed"),
                              (module[1], names[1], "skipped"),
                              (module[2], names[2], "failed")])
    assert gate.problems(*gate.failed_tests(mixed)[1:]) == [
        f"pinned failure did not run: {pinned[1]}",
        f"pinned failure did not run: {pinned[3]}",
        f"pinned failure now passes: {pinned[0]}"]
