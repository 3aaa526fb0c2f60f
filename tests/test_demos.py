"""Smoke test: the quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 04 integrates full grids (about 12 s) and stays out of the suite; 05, the
# only run of conformal_block on n = 4 whitney_c0, takes about 6 s
QUICK = [
    "01_jet_arithmetic.py",
    "02_model_spaces.py",
    "03_whitney_catalog.py",
    "05_conformal_flatness.py",
]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
