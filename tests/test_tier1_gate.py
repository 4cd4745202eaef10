"""Tests for tools/tier1_gate.py on synthetic JUnit XML reports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "tier1_gate.py"
BY_DESIGN = [
    "test_example_check_accepts_start_vector_with_c_at_four",
    "test_signed_rank_tracks_exact_permutation_for_every_size_up_to_twelve",
]


def _case(name: str, outcome: str | None, module: str = "tests.test_acceptance") -> str:
    body = f'<{outcome} message="x"/>' if outcome else ""
    return f'<testcase classname="{module}" name="{name}">{body}</testcase>'


@pytest.mark.parametrize(
    ("cases", "passes"),
    [
        ([_case(n, "failure") for n in BY_DESIGN] + [_case("test_ok", None)], True),
        ([_case(n, "failure") for n in BY_DESIGN] + [_case("test_ok", "failure")], False),
        ([_case(n, "failure") for n in BY_DESIGN] + [_case("test_ok", "error")], False),
        ([_case(n, "failure") for n in BY_DESIGN] + [_case("test_ok", "skipped")], False),
        ([_case(BY_DESIGN[0], "failure"), _case(BY_DESIGN[1], None)], False),
        ([_case(n, "failure", "tests.test_other") for n in BY_DESIGN], False),
        ([], False),
    ],
    ids=["exact", "extra-failure", "error", "skipped", "one-fixed", "wrong-module", "empty"],
)
def test_gate_passes_only_the_two_by_design_failures(tmp_path, cases, passes):
    report = tmp_path / "report.xml"
    report.write_text(
        f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>',
        encoding="utf-8",
    )
    run = subprocess.run([sys.executable, str(GATE), str(report)], capture_output=True)
    assert (run.returncode == 0) == passes
