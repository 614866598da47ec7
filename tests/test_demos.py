"""Smoke test of the demos: each runs at its smallest size in a fresh
process, with the library on ``PYTHONPATH``, and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Each demo's arguments at its smallest size; ``{out}`` is replaced by a
#: directory under the test's temporary path.
DEMOS = {
    "hole_damage.py": ["--n", "16", "--out", "{out}"],
    "inclusion_contrast.py": ["--n", "16", "--ratios", "8", "--out", "{out}"],
    "quadrature_tour.py": ["--n", "12"],
    "convergence_study.py": ["--out", "{out}"],
    "stage_table.py": ["--one", "run", "--case", "patch", "--n", "16"],
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    args = [a.replace("{out}", str(tmp_path / "out")) for a in DEMOS[demo]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "demos" / demo), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
