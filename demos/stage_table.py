"""Per-stage wall time and peak memory over a fixed matrix of runs.

Every run is one CLI call in a fresh Python process, so that its peak
RSS is its own.  The stages are the library functions through which
``perilps.driver`` and ``perilps.cli`` reach each layer; for the call
they are replaced by timing wrappers.  After each stage the process's
peak RSS is read.  A stage called more than once (the sweep assembles
and solves once per ratio) shows its summed time and the peak after its
last call.  "total" is the whole CLI call, writers included.  With
``--repeat k`` each run is made in k fresh processes, and the table
shows the medians of the times and of the peaks.  Each process makes
one untimed LU solve before its call, so that the stall of a fresh
process's first threaded BLAS calls stays out of the stage times.

The matrix: the hole at nu = 0.495 at n = 64 and 128, the smooth field
at n = 96, the n = 32 contrast sweep and the quadrature check at n = 96,
which solves nothing (its total less its stages is mostly the CSV
writer); ``--full`` adds the hole and the uniform inclusion at n = 256.
The table goes to stdout only: the runs write their artifacts into a
temporary directory, and no artifact gains a timing.  To compare two checkouts, run the script once with
each one's ``src`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 demos/stage_table.py [--full] [--seed 7] [--repeat 1]
"""

import argparse
import contextlib
import functools
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

RUNS = {
    "hole nu=0.495, n=64": ["run", "--case", "hole", "--n", "64", "--nu", "0.495"],
    "hole nu=0.495, n=128": ["run", "--case", "hole", "--n", "128", "--nu", "0.495"],
    "smooth, n=96": ["run", "--case", "smooth", "--n", "96"],
    "sweep, n=32": ["sweep", "--n", "32"],
    "check-quadrature, n=96": ["check-quadrature", "--n", "96"],
}

FULL_RUNS = {
    "hole nu=0.495, n=256": ["run", "--case", "hole", "--n", "256", "--nu", "0.495"],
    "inclusion uniform, n=256": ["run", "--case", "inclusion", "--perturb", "0", "--n", "256"],
}

#: Stage name of each function the driver and the CLI call.  The table
#: lists the stages in the order of their first calls.
STAGES = {
    "generate_perturbed_lattice": "cloud",
    "build_neighborhoods": "neighbors",
    "compute_family": "quadrature",
    "break_bonds_crossing_circle": "bonds",
    "hole_removal_mask": "bonds",
    "compute_moment_tensors": "moments",
    "damage_field": "damage",
    "front_tree": "fronts",
    "assemble_system": "assembly",
    "solve": "solve",
}


def _peak_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up_blas() -> None:
    """One untimed LU solve, large enough to wake the threaded BLAS: the
    first threaded calls of a fresh process can stall, and a stall would
    land in whichever stage called BLAS first."""
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    a = np.random.default_rng(0).random((512, 512)) + 512.0 * np.eye(512)
    lu_solve(lu_factor(a), a)


def run_one(argv: list[str]) -> dict:
    """Make one CLI call with every stage timed; return its record."""
    from perilps import cli, driver

    warm_up_blas()
    rows: dict[str, list] = {}
    counts: dict[str, int] = {}

    def timed(fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            row = rows.setdefault(stage, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += seconds
            row[2] = _peak_mb()
            if stage == "neighbors":
                counts["pairs"] = out.n_pairs
            elif stage == "assembly":
                counts["unknowns"] = out.n_unknowns
            return out

        return wrapper

    for module in (driver, cli):
        for name, stage in STAGES.items():
            if hasattr(module, name):
                setattr(module, name, timed(getattr(module, name), stage))

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([*argv, "--out", out])
        total = time.perf_counter() - start
    if code != 0:
        sys.exit(code)

    rows["total"] = ["", total, _peak_mb()]
    return {"counts": counts, "rows": rows}


def print_table(records: list[dict]) -> None:
    """Print the medians over the records of one run."""
    print("  " + "  ".join(f"{k} {v:,}" for k, v in records[0]["counts"].items()))
    print(f"  {'stage':<11}{'calls':>6}{'seconds':>10}{'peak RSS MB':>13}")
    for stage, (calls, _, _) in records[0]["rows"].items():
        seconds = statistics.median(r["rows"][stage][1] for r in records)
        peak = statistics.median(r["rows"][stage][2] for r in records)
        print(f"  {stage:<11}{calls:>6}{seconds:>10.3f}{peak:>13.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="add the n = 256 runs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per run")
    parser.add_argument("--one", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(run_one(args.one)))
        return

    runs = {**RUNS, **FULL_RUNS} if args.full else RUNS
    for label, argv in runs.items():
        command = [sys.executable, __file__, "--one", *argv, "--seed", str(args.seed)]
        records = [
            json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
            for _ in range(args.repeat)
        ]
        print(f"{label}, seed {args.seed}, {args.repeat} process(es)")
        print_table(records)


if __name__ == "__main__":
    main()
