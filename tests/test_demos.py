"""Smoke test of the demos: each runs at its smallest size in a fresh
process, with the library on ``PYTHONPATH``, and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    "front_profile.py": ["run", "--case", "inclusion", "--n", "16"],
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(demo, tmp_path):
    """Run ``demo`` at its smallest size; return its stdout."""
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
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_front_profile_depths_add_up_to_the_calls(tmp_path):
    """The profile's table by depth, read from the plans, adds up to its
    total row, measured from the kernel calls: the fronts (dgetrf), the
    fronts on each path to [X | w] (dgetri and dgetrs), the bytes of the
    kept [X | w] and the flops; both paths are taken."""
    lines = run_demo("front_profile.py", tmp_path).splitlines()
    head = next(i for i, line in enumerate(lines) if line.split()[0] == "depth")
    rows = [[float(v) for v in line.split()[1:]] for line in lines[head + 1 : -1]]
    total = [float(v) for v in lines[-1].split()[1:]]
    assert lines[-1].split()[0] == "total" and rows
    sums = np.sum(rows, axis=0)
    np.testing.assert_array_equal(sums[:4], total[:4])
    assert sums[4] == pytest.approx(total[4], rel=1e-12, abs=len(rows))
    assert total[1] > 0 and total[2] > 0
