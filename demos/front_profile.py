"""Where the multifrontal solves of one CLI call spend their time.

The call runs as the CLI makes it, with timing wrappers around the names
that ``perilps.solver`` imports and calls: the LAPACK and BLAS kernels
``dgetrf``, ``dgetrs``, ``dgetri``, ``dgemm`` and ``dgemv``, the symbolic
pass ``_plan`` and the front loop ``_multifrontal``.

The first table is by operation: calls, seconds, GFlop and GFlop/s of
each kernel, counted from the shapes it was called with; the symbolic
pass; the rest of the front loop, which is numpy moving data (zeroing
the fronts, the extend-add, the stack copies); and the rest of the
solves (the residual and the dilatations of the uncoupled solve).

The second table is by depth in the front tree, the root at depth 0,
read from the plans the solves left in ``FrontTree.plans``: the fronts
with pivots and how many of them form [X | w] by the inverse of the
pivot block or by ``dgetrs``, the bytes of the [X | w] that the fronts
keep for the back substitution, and the flops of the fronts.  Its total
row is measured from the calls instead: the flops of the first table,
and the bytes of the [X | w] that the Schur products read.  A refined
solve factors twice, so its fronts count twice.

    PYTHONPATH=src python3 demos/front_profile.py run --case hole --n 256 --nu 0.495
    PYTHONPATH=src python3 demos/front_profile.py sweep --n 64 --ratios 1
"""

import contextlib
import functools
import io
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np
from stage_table import warm_up_blas

from perilps import cli, driver, solver

#: Flops of each kernel from its arguments, as ``perilps.solver`` calls it.
FLOPS = {
    "dgetrf": lambda a, *_, **__: 2.0 * a.shape[0] ** 3 / 3.0,
    "dgetri": lambda lu, *_, **__: 4.0 * lu.shape[0] ** 3 / 3.0,
    "dgetrs": lambda lu, ipiv, b, **__: 2.0 * lu.shape[0] ** 2 * b.shape[1],
    "dgemm": lambda alpha, a, b, *_, **__: 2.0 * a.shape[0] * a.shape[1] * b.shape[1],
    "dgemv": lambda alpha, a, *_, **__: 2.0 * a.shape[0] * a.shape[1],
}


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


def profile(argv: list[str]) -> tuple[dict, list, int]:
    """Make the CLI call with the solver's names wrapped.  Returns each
    name's [calls, seconds, flops], the (tree, kinds) of every front
    loop run, and the bytes of [X | w] the Schur products read."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    loops, kept = [], [0]

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            row = rows[name]
            row[0] += 1
            row[1] += time.perf_counter() - start
            if name in FLOPS:
                row[2] += FLOPS[name](*args, **kwargs)
            if name == "dgemm" and len(args) > 3:
                kept[0] += args[2].nbytes  # the Schur product's [X | w]
            if name == "_multifrontal":
                loops.append((args[0].fronts, args[1]))
            return out

        return wrapper

    for name in (*FLOPS, "_plan", "_multifrontal"):
        setattr(solver, name, timed(name, getattr(solver, name)))
    driver.solve = timed("solve", driver.solve)
    warm_up_blas()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", out])
    if code != 0:
        sys.exit(code)
    return rows, loops, kept[0]


def depth_table(loops: list) -> dict:
    """Per depth: [fronts, by inverse, by dgetrs, kept bytes, flops]."""
    table = defaultdict(lambda: [0, 0, 0, 0, 0.0])
    for tree, kinds in loops:
        parent = tree.part_parent
        depth = np.zeros(parent.size, dtype=np.int64)
        for k in range(parent.size - 1, -1, -1):
            depth[k] = depth[parent[k]] + 1 if parent[k] >= 0 else 0
        for k, m, p, nb, *_, by_inverse, _ in tree.plans[kinds].fronts:
            if p:
                row = table[int(depth[k])]
                row[0] += 1
                row[1 if by_inverse else 2] += 1
                row[3] += 8 * p * (nb + 1) if nb else 0
                row[4] += front_flops(p, nb, by_inverse)
    return dict(sorted(table.items()))


def main() -> None:
    argv = sys.argv[1:] or ["run", "--case", "hole", "--n", "64", "--nu", "0.495"]
    rows, loops, kept = profile(argv)

    print(" ".join(argv) + f": {len(loops)} front loop run(s)")
    print(f"  {'operation':<22}{'calls':>7}{'seconds':>10}{'GFlop':>10}{'GFlop/s':>9}")
    kernels = sum(rows[name][1] for name in FLOPS)
    loop, solve = rows["_multifrontal"], rows["solve"]
    for name in FLOPS:
        calls, seconds, flops = rows[name]
        rate = flops / seconds / 1e9 if seconds else 0.0
        print(f"  {name:<22}{calls:>7}{seconds:>10.4f}{flops / 1e9:>10.4f}{rate:>9.2f}")
    for name, (calls, seconds) in {
        "_plan": rows["_plan"][:2],
        "numpy in front loop": (loop[0], loop[1] - rows["_plan"][1] - kernels),
        "rest of solve": (solve[0], solve[1] - loop[1]),
        "solve": solve[:2],
    }.items():
        print(f"  {name:<22}{calls:>7}{seconds:>10.4f}")

    print(f"  {'depth':<7}{'fronts':>7}{'inverse':>8}{'dgetrs':>7}{'[X | w] bytes':>15}{'flop':>16}")
    for depth, (fronts, inverse, getrs, nbytes, flops) in depth_table(loops).items():
        print(f"  {depth:<7}{fronts:>7}{inverse:>8}{getrs:>7}{nbytes:>15}{flops:>16.0f}")
    flops = sum(rows[name][2] for name in FLOPS)
    print(f"  {'total':<7}{rows['dgetrf'][0]:>7}{rows['dgetri'][0]:>8}{rows['dgetrs'][0]:>7}{kept:>15}{flops:>16.0f}")


if __name__ == "__main__":
    main()
