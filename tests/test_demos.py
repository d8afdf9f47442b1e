"""The demo scripts: every one runs to completion; two are checked in detail."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_order16_nonsplitting_demo():
    proc = run_demo("04_order16_nonsplitting.py")
    assert proc.returncode == 0, proc.stderr


def test_constructions_tour_demo():
    proc = run_demo("06_constructions_tour.py")
    assert proc.returncode == 0, proc.stderr
    assert "6656 consistent data,  2240 satisfy" in proc.stdout
