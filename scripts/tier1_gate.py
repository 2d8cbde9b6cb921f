#!/usr/bin/env python3
"""Run the tier-1 test suite and pass only when exactly the four tests
that fail by design fail.

Four acceptance tests are pinned to declared targets that the arithmetic
does not support (README, "Known mathematical caveats"): AC1's
exactly-one-convention claim, the AC4 and AC6 per-block completions and
AC7's maximum of three.  The gate exits 0 when these four fail and every
other test passes or is skipped.  A fifth failure fails it, and so does
one of the four passing: a pinned test turning green means its target or
the code under it changed.

    python3 scripts/tier1_gate.py
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAIL_BY_DESIGN = {
    "tests.test_acceptance::test_ac01_exactly_one_convention",
    "tests.test_acceptance::test_ac04_per_block_completion_sweep",
    "tests.test_acceptance::test_ac06_sporadic_per_block",
    "tests.test_acceptance::test_ac07_maximum_is_three",
}


def failed_tests(report: Path) -> tuple[int, set[str], set[str]]:
    """How many tests a JUnit XML report holds, the ids of those that ran
    (were not skipped) and the ids of those that failed or raised an
    error."""
    cases = [(f"{case.get('classname')}::{case.get('name')}", case)
             for case in ET.parse(report).iter("testcase")]
    return len(cases), {
        t for t, case in cases if case.find("skipped") is None}, {
        t for t, case in cases
        if case.find("failure") is not None or case.find("error") is not None}


def problems(ran: set[str], failed: set[str]) -> list[str]:
    """One line per way the run differs from the four by-design failures:
    a test that failed unexpectedly, a pinned test that did not run (its
    module failed to collect, or it was skipped), or one that passed."""
    return ([f"unexpected failure: {t}" for t in sorted(failed
                                                        - FAIL_BY_DESIGN)]
            + [f"pinned failure did not run: {t}"
               for t in sorted(FAIL_BY_DESIGN - ran)]
            + [f"pinned failure now passes: {t}"
               for t in sorted((FAIL_BY_DESIGN & ran) - failed)])


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={report}"],
            cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not report.exists():
            print(f"tier-1 gate: pytest stopped with exit code {code}")
            return 1
        total, ran, failed = failed_tests(report)
    lines = problems(ran, failed)
    for line in lines:
        print(f"tier-1 gate: {line}")
    if lines:
        return 1
    print(f"tier-1 gate: ok ({total - len(failed)} passed or skipped, "
          f"{len(failed)} failed by design)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
