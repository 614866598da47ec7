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


#: A profiled command of each precision: the uncoupled inclusion factors
#: in float64 (d), the coupled hole in float32 (s).
PRECISION_COMMANDS = {
    "d": ["run", "--case", "inclusion", "--n", "16"],
    "s": ["run", "--case", "hole", "--n", "16", "--nu", "0.495"],
}


def test_stage_table_depths_add_up_to_the_calls(tmp_path):
    """The record of one profiled call of each precision, ``kind`` d or s:
    its rows by depth, read from the plans, add up to the totals measured
    from the kernel calls of that precision: the fronts (getrf), the
    fronts on each path to [X | w] (dgetri and getrs), the kept bytes and
    the flops.  The uncoupled inclusion takes both float64 paths and keeps
    [X | w]; the coupled hole factors once in float32, keeps LU, X and
    F21, and refines by substitutions whose kernels count in their own
    row."""
    for kind, command in PRECISION_COMMANDS.items():
        record = json.loads(run_demo("stage_table.py", tmp_path, ["--one", *command]))
        kernels, rows = record["kernels"], list(record["depths"].values())
        assert rows
        fronts, inverse, getrs, bytes64, bytes32, flops = np.sum(rows, axis=0)
        assert [fronts, inverse, getrs] == [kernels[k][0] for k in (f"{kind}getrf", "dgetri", f"{kind}getrs")]
        assert [bytes64, bytes32] == [record["kept"]["float64"], record["kept"]["float32"]]
        assert (bytes32 if kind == "d" else bytes64) == 0
        names = ("getrf", "getri", "getrs", "gemm", "gemv")
        kernel_flops = sum(kernels[k][2] for k in kernels if k[1:] in names)
        assert flops == pytest.approx(kernel_flops, rel=1e-12, abs=len(rows))
        other = "s" if kind == "d" else "d"
        assert all(kernels[other + k][0] == 0 for k in ("getrf", "getrs", "gemm", "gemv"))
        if kind == "d":
            assert inverse > 0 and getrs > 0 and kernels["_substitute"][0] == 0
        else:
            assert inverse == 0 and kernels["_substitute"][0] > 0 and kernels["_substitute"][2] > 0


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
