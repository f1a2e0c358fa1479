"""Run the demos as scripts, so that a change that breaks one shows here.

Demos 01-04 exercise formulas, sampling, solving and the polymorphism
searches in under a second together. ``05_orbit_growth.py`` counts orbits
up to n = 5 (about 2 s) and cross-checks the grown counts against brute
force on samples, printing DISAGREE on a mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_formulas_and_templates.py",
    "02_sampling.py",
    "03_solving.py",
    "04_polymorphisms_and_set_structure.py",
    "05_orbit_growth.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert "DISAGREE" not in result.stdout
