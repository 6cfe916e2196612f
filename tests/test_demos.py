"""Every demo script runs to completion against the package under test."""

from pathlib import Path

import pytest

from helpers import run

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run([], 60, script=demo, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
