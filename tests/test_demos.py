"""Smoke test of the demos: each runs at its smallest size in a fresh
process, with the library on ``PYTHONPATH``, and exits 0.  The profiler
``stage_table.py`` is also run through its parent path, and its tables
and records are checked against each other."""

import json
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
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_python(args, tmp_path, code=0):
    """Run Python on ``args`` in a fresh process with the library on
    ``PYTHONPATH``; check that it exits with ``code`` and return its
    stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-B", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout, proc.stderr


def run_demo(demo, tmp_path, args=None):
    """Run ``demo`` with ``args``, by default at its smallest size; return
    its stdout."""
    if args is None:
        args = [a.replace("{out}", str(tmp_path / "out")) for a in DEMOS[demo]]
    return run_python([str(ROOT / "demos" / demo), *args], tmp_path)[0]


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_stage_table_depths_add_up_to_the_calls(tmp_path):
    """The record of one profiled call: its rows by depth, read from the
    plans, add up to the totals measured from the kernel calls: the
    fronts (dgetrf), the fronts on each path to [X | w] (dgetri and
    dgetrs), the bytes of the kept [X | w] and the flops; both paths are
    taken."""
    record = json.loads(run_demo("stage_table.py", tmp_path, ["--one", "run", "--case", "inclusion", "--n", "16"]))
    kernels, rows = record["kernels"], list(record["depths"].values())
    assert rows
    fronts, inverse, getrs, nbytes, flops = np.sum(rows, axis=0)
    assert [fronts, inverse, getrs] == [kernels[k][0] for k in ("dgetrf", "dgetri", "dgetrs")]
    assert nbytes == record["kept"]
    kernel_flops = sum(kernels[k][2] for k in ("dgetrf", "dgetri", "dgetrs", "dgemm", "dgemv"))
    assert flops == pytest.approx(kernel_flops, rel=1e-12, abs=len(rows))
    assert inverse > 0 and getrs > 0


def test_stage_table_prints_every_table(tmp_path):
    """A command given after the flags runs alone, in fresh processes, and
    prints the stage table with its total, the kernel table and the depth
    table, whose rows add up to its total row of kernel call counts."""
    out = run_demo("stage_table.py", tmp_path, ["--repeat", "2", "run", "--case", "patch", "--n", "16"])
    lines = out.splitlines()
    assert lines[0] == "run --case patch --n 16, 2 process(es)"
    heads = [i for i, line in enumerate(lines) if line.split()[0] in ("stage", "operation", "depth")]
    stages, operations, depths = (lines[i + 1 : j] for i, j in zip(heads, [*heads[1:], len(lines)]))
    assert stages[-1].split()[0] == "total"
    calls = {f[0]: int(f[1]) for f in map(str.split, operations) if f[0].startswith("dget")}
    rows = [[int(v) for v in line.split()[1:4]] for line in depths[:-1]]
    total = [int(v) for v in depths[-1].split()[1:4]]
    assert depths[-1].split()[0] == "total" and rows
    assert np.sum(rows, axis=0).tolist() == total
    assert total == [calls[k] for k in ("dgetrf", "dgetri", "dgetrs")]


def test_stage_table_skips_the_solver_tables_without_a_solve(tmp_path):
    """A run that solves nothing prints the stage table alone."""
    out = run_demo("stage_table.py", tmp_path, ["check-quadrature", "--n", "12"])
    assert out.splitlines()[-1].split()[0] == "total"
    assert "operation" not in out and "depth" not in out


def test_stage_table_shows_why_a_command_failed(tmp_path):
    """A command the CLI rejects stops the profile, and the CLI's own
    error reaches stderr."""
    args = [str(ROOT / "demos" / "stage_table.py"), "run", "--case", "patch", "--n", "7"]
    err = run_python(args, tmp_path, code=1)[1]
    assert "error [config]" in err and "CalledProcessError" in err


@pytest.mark.parametrize("module, name", [("driver", "front_tree"), ("solver", "dgetri")])
def test_stage_table_fails_when_a_wrapped_name_is_gone(module, name, tmp_path):
    """A stage or kernel name that its module lacks stops the profile with
    an error that names it, rather than dropping its row."""
    script = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'demos')!r}); import stage_table; "
        f"from perilps import {module}; del {module}.{name}; "
        "stage_table.run_one(['run', '--case', 'patch', '--n', '12'])"
    )
    err = run_python(["-c", script], tmp_path, code=1)[1]
    assert f"AttributeError: module 'perilps.{module}' has no attribute '{name}'" in err
