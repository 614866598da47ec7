"""Per-stage wall time and peak memory of CLI calls, and their solves by
kernel and by front-tree depth.

Every run is one CLI call in a fresh Python process, so that its peak
RSS is its own.  The stages are the library functions through which
``perilps.driver`` and ``perilps.cli`` reach each layer; the kernels are
the names that ``perilps.solver`` imports and calls: the LAPACK and BLAS
kernels ``dgetrf``, ``dgetrs``, ``dgetri``, ``dgemm`` and ``dgemv`` and
their float32 forms ``sgetrf``, ``sgetrs``, ``sgemm`` and ``sgemv``, the
symbolic pass ``_plan``, the front loop ``_multifrontal`` and the
refinement's substitution through the kept float32 factors
``_substitute``.  For the call each is replaced by one timing wrapper.
After each stage the process's peak RSS is read.  A stage called more
than once (the sweep assembles and solves once per ratio) shows its
summed time and the peak after its last call.  "total" is the whole CLI
call, writers included.
With ``--repeat k`` each run is made in k fresh processes, and the
tables show the medians of the times and of the peaks.  Each process
makes one untimed LU solve before its call, so that the stall of a fresh
process's first threaded BLAS calls stays out of the stage times.

A run that solves gets two more tables.  The table by kernel gives
calls, seconds, GFlop and GFlop/s of each kernel in the front loop,
counted from the shapes it was called with; the symbolic pass; the
substitutions, whose kernels count in their row alone; the rest of the
front loop, which is numpy moving data (zeroing the fronts, the
extend-add, the stack copies); and the rest of the solves (the
residuals and the dilatations of the uncoupled solve).  The table by
depth in the front tree, the root at depth 0, is read from the plans the
solves left in ``FrontTree.plans``: the fronts with pivots and how many
of them form [X | w] by the inverse of the pivot block or by ``getrs``,
the bytes that the fronts keep, by precision, and the flops of the
fronts.  A float64 front keeps its [X | w] for the back substitution, a
float32 front its LU, X and F21 for the substitutions.  The total row is
measured from the calls instead: the flops of the kernel table, and the
bytes of the arrays that the front loop's kernels read and the fronts
keep.  Each factorization counts its fronts: a float64 solve that
refines, or a float32 solve that falls back to float64, factors twice.

The default matrix: the hole at nu = 0.495 at n = 64 and 128, the smooth
field at n = 96, the n = 32 contrast sweep and the quadrature check at
n = 96, which solves nothing (its total less its stages is mostly the
CSV writer); ``--full`` adds the hole and the uniform inclusion at
n = 256.  ``--seed`` sets the seed of the matrix runs.  A CLI command
given after the flags is run alone, exactly as given, in place of the
matrix.  The tables go to stdout only: the runs write their artifacts
into a temporary directory, and no artifact gains a timing.  To compare
two checkouts, run the script once with each one's ``src`` on
``PYTHONPATH``:

    PYTHONPATH=src python3 demos/stage_table.py [--full] [--seed 7] [--repeat 1]
    PYTHONPATH=src python3 demos/stage_table.py --repeat 3 run --case hole --n 256 --nu 0.495
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
from collections import defaultdict

import numpy as np

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

#: Stage name of each function the driver calls; the CLI calls the first
#: three too.  The table lists the stages in the order of their first calls.
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

#: Flops of each kernel, float64 (d) and float32 (s), from its arguments,
#: as ``perilps.solver`` calls it (the inverse in float64 only);
#: ``KERNELS`` are all the names of ``perilps.solver`` that are timed.
_FLOPS = {
    "getrf": lambda a, *_, **__: 2.0 * a.shape[0] ** 3 / 3.0,
    "getri": lambda lu, *_, **__: 4.0 * lu.shape[0] ** 3 / 3.0,
    "getrs": lambda lu, ipiv, b, **__: 2.0 * lu.shape[0] ** 2 * (b.shape[1] if b.ndim == 2 else 1),
    "gemm": lambda alpha, a, b, *_, **__: 2.0 * a.shape[0] * a.shape[1] * b.shape[1],
    "gemv": lambda alpha, a, *_, **__: 2.0 * a.shape[0] * a.shape[1],
}
FLOPS = {kind + name: f for kind in "ds" for name, f in _FLOPS.items() if kind + name != "sgetri"}
KERNELS = (*FLOPS, "_plan", "_multifrontal", "_substitute")

#: The kernels whose calls the total row of the depth table counts as its
#: fronts, its fronts by the inverse and its fronts by getrs.
TOTALS = (("dgetrf", "sgetrf"), ("dgetri",), ("dgetrs", "sgetrs"))


def _peak_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up_blas() -> None:
    """One untimed LU solve, large enough to wake the threaded BLAS: the
    first threaded calls of a fresh process can stall, and a stall would
    land in whichever stage called BLAS first."""
    from scipy.linalg import lu_factor, lu_solve

    a = np.random.default_rng(0).random((512, 512)) + 512.0 * np.eye(512)
    lu_solve(lu_factor(a), a)


def front_flops(p: int, nb: int, by_inverse: bool) -> float:
    """The flops of one front of ``p`` pivots and ``nb`` boundary unknowns:
    the pivot block's LU, [X | w], the Schur product and, with a boundary,
    its share of the back substitution."""
    flops = 2.0 * p**3 / 3.0 + 2.0 * p * p * (nb + 1)
    if by_inverse:
        flops += 4.0 * p**3 / 3.0
    if nb:
        flops += 2.0 * nb * p * (nb + 1) + 2.0 * p * nb
    return flops


def depth_table(loops: list) -> dict:
    """Per depth: [fronts, by inverse, by getrs, kept float64 bytes, kept
    float32 bytes, flops]."""
    table = defaultdict(lambda: [0, 0, 0, 0, 0, 0.0])
    for tree, kinds, precision in loops:
        parent = tree.part_parent
        depth = np.zeros(parent.size, dtype=np.int64)
        for k in range(parent.size - 1, -1, -1):
            depth[k] = depth[parent[k]] + 1 if parent[k] >= 0 else 0
        for k, m, p, nb, *_, by_inverse, _ in tree.plans[kinds].fronts:
            if p:
                row = table[int(depth[k])]
                row[0] += 1
                row[1 if by_inverse else 2] += 1
                if precision == "float32":
                    row[4] += 4 * (p * p + 2 * p * nb)  # LU, X and F21
                elif nb:
                    row[3] += 8 * p * (nb + 1)  # [X | w]
                row[5] += front_flops(p, nb, by_inverse)
    return dict(sorted(table.items()))


def run_one(argv: list[str]) -> dict:
    """Make one CLI call with every stage and kernel timed; return its
    record.  A name of ``STAGES`` missing from the driver, or of
    ``KERNELS`` from the solver, raises ``AttributeError``."""
    from perilps import cli, driver, solver

    stages, kernels = {}, {name: [0, 0.0, 0.0] for name in KERNELS}
    kept = {"float64": 0, "float32": 0}
    record = {"counts": {}, "stages": stages, "kernels": kernels, "kept": kept}
    loops = []
    substituting = False

    def timed(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal substituting
            if name in FLOPS and substituting:
                kernels["_substitute"][2] += FLOPS[name](*args, **kwargs)
                return fn(*args, **kwargs)
            substituting = name == "_substitute"
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            substituting = False
            row = kernels[name] if name in kernels else stages.setdefault(name, [0, 0.0, 0.0])
            row[1] += time.perf_counter() - start
            row[0] += 1
            if name in FLOPS:
                row[2] += FLOPS[name](*args, **kwargs)
            elif name not in kernels:
                row[2] = _peak_mb()
            if name == "neighbors":
                record["counts"]["pairs"] = out.n_pairs
            elif name == "assembly":
                record["counts"]["unknowns"] = out.n_unknowns
            elif name == "dgemm" and len(args) > 3:
                kept["float64"] += args[2].nbytes  # the Schur product's [X | w]
            elif name == "sgemm":
                kept["float32"] += args[1].nbytes + args[2][:, :-1].nbytes  # F21 and X
            elif name == "sgetrf":
                kept["float32"] += args[0].nbytes  # the pivot block's LU
            elif name == "_multifrontal":
                loops.append((args[0].fronts, args[1], args[2].dtype.name))
            return out

        return wrapper

    names = [(driver, name, STAGES[name]) for name in STAGES] + [(solver, name, name) for name in KERNELS]
    names += [(cli, name, STAGES[name]) for name in STAGES if hasattr(cli, name)]
    for module, name, key in names:
        setattr(module, name, timed(getattr(module, name), key))

    warm_up_blas()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([*argv, "--out", out])
        total = time.perf_counter() - start
    if code != 0:
        sys.exit(code)
    stages["total"] = ["", total, _peak_mb()]
    record["depths"] = depth_table(loops)
    return record


def print_tables(records: list[dict]) -> None:
    """Print the medians over the records of one run."""
    first, kernels = records[0], records[0]["kernels"]

    def median(table, name, column=1):
        return statistics.median(r[table][name][column] for r in records)

    print("  " + "  ".join(f"{k} {v:,}" for k, v in first["counts"].items()))
    print(f"  {'stage':<11}{'calls':>6}{'seconds':>10}{'peak RSS MB':>13}")
    for name, (calls, _, _) in first["stages"].items():
        print(f"  {name:<11}{calls:>6}{median('stages', name):>10.3f}{median('stages', name, 2):>13.1f}")
    if "solve" not in first["stages"]:
        return
    for r in records:  # the rows of the kernel table derived from the timed ones
        k, loop, solve = r["kernels"], r["kernels"]["_multifrontal"], r["stages"]["solve"]
        k["numpy in front loop"] = [loop[0], loop[1] - sum(k[n][1] for n in (*FLOPS, "_plan"))]
        k["rest of solve"] = [solve[0], solve[1] - loop[1] - k["_substitute"][1]]
        k["solve"] = solve
    print(f"  {'operation':<22}{'calls':>7}{'seconds':>10}{'GFlop':>10}{'GFlop/s':>9}")
    for name in (*FLOPS, "_plan", "_substitute", "numpy in front loop", "rest of solve", "solve"):
        seconds = median("kernels", name)
        line = f"  {name:<22}{kernels[name][0]:>7}{seconds:>10.4f}"
        if name in FLOPS or name == "_substitute":
            flops = kernels[name][2]
            line += f"{flops / 1e9:>10.4f}{flops / seconds / 1e9 if seconds else 0.0:>9.2f}"
        print(line)
    print(
        f"  {'depth':<7}{'fronts':>7}{'inverse':>8}{'getrs':>7}"
        f"{'float64 bytes':>15}{'float32 bytes':>15}{'flop':>16}"
    )
    for depth, (fronts, inverse, getrs, bytes64, bytes32, flops) in first["depths"].items():
        print(f"  {depth:<7}{fronts:>7}{inverse:>8}{getrs:>7}{bytes64:>15}{bytes32:>15}{flops:>16.0f}")
    fronts, inverse, getrs = (sum(kernels[n][0] for n in names) for names in TOTALS)
    flops = sum(kernels[name][2] for name in FLOPS)
    bytes64, bytes32 = first["kept"]["float64"], first["kept"]["float32"]
    print(f"  {'total':<7}{fronts:>7}{inverse:>8}{getrs:>7}{bytes64:>15}{bytes32:>15}{flops:>16.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="add the n = 256 runs to the matrix")
    parser.add_argument("--seed", type=int, help="seed of the matrix runs (default 7)")
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per run")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("command", nargs=argparse.REMAINDER, help="a CLI command to run alone")
    args = parser.parse_args()
    if args.one:
        print(json.dumps(run_one(args.command)))
        return
    if args.command and (args.full or args.seed is not None):
        parser.error("--full and --seed set the matrix; a command keeps its own --seed")

    seed = 7 if args.seed is None else args.seed
    matrix = {**RUNS, **FULL_RUNS} if args.full else RUNS
    runs = {f"{label}, seed {seed}": [*argv, "--seed", str(seed)] for label, argv in matrix.items()}
    for label, argv in ({" ".join(args.command): args.command} if args.command else runs).items():
        command = [sys.executable, __file__, "--one", *argv]
        records = [
            json.loads(subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout)
            for _ in range(args.repeat)
        ]
        print(f"{label}, {args.repeat} process(es)")
        print_tables(records)


if __name__ == "__main__":
    main()
