"""The demo scripts and the README quick start: every one runs to completion;
some are checked in detail."""

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


def test_readme_quick_start_prints_what_its_comments_say():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "classify_equivalence" in block
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    commented = [line.split("#", 1)[1].strip() for line in block.splitlines()
                 if line.startswith("print(") and "#" in line][-3:]
    assert commented == ["2", "[('7', 'S4'), ('7:3', 'D8')]", "False"]
    assert proc.stdout.splitlines()[-3:] == commented
