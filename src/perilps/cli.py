"""Command-line front end for benchmark runs and diagnostics.

Subcommands
-----------
run
    Solve one case at one resolution and write fields/summary.
converge
    Run a resolution ladder and write the convergence table.
check-quadrature
    Dump per-node quadrature diagnostics for a cloud.
sweep
    Inclusion contrast sweep with centerline profiles.

Exit codes: 0 on success, 2 bad configuration, 3 quadrature failure,
4 assembly failure, 5 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import driver
from .errors import EXIT_OK, PerilpsError
from .pointcloud import build_neighborhoods, generate_perturbed_lattice
from .quadrature import compute_family

__all__ = ["build_parser", "main"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _add_geometry(p: argparse.ArgumentParser) -> None:
    # Unset flags stay None and their fields at RunConfig's defaults, which the help quotes.
    default = {f.name: f.default for f in dataclasses.fields(driver.RunConfig)}
    p.add_argument("--delta-factor", type=float,
                   help=f"horizon in units of h (default {default['delta_factor']})")
    p.add_argument("--perturb", type=float, help="jitter amplitude in units of h; 0 is the "
                   f"uniform grid (default {default['perturb']})")
    p.add_argument("--seed", type=int, help=f"key of the jitter draw (default {default['seed']})")
    p.add_argument("--strict-vh", action="store_true",
                   help="drop the dilatation constraints from the quadrature")
    p.add_argument("--out", type=Path, required=True,
                   help="directory the artifacts are written to")


def _add_material(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=float,
                   help="Poisson ratio of smooth-nearinc (default 0.495) and hole (default 0.25)")
    p.add_argument("--nu1", type=float, help="Poisson ratio of the inclusion phase (default 0.25)")
    p.add_argument("--nu2", type=float, help="Poisson ratio of the matrix phase (default 0.25)")
    p.add_argument("--k1", type=float,
                   help="2D bulk modulus of the inclusion phase (default 2)")
    p.add_argument("--k2", type=float,
                   help="2D bulk modulus of the matrix phase (default 1)")


def _config_from(args: argparse.Namespace, case: str, n: int) -> driver.RunConfig:
    """A config from the flags given, the others at their defaults."""
    names = {f.name for f in dataclasses.fields(driver.RunConfig)} - {"case", "n"}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return driver.RunConfig(case=case, n=n, **flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perilps",
        description="Meshfree peridynamic benchmarks on the unit square",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one case at one resolution")
    p_run.add_argument("--case", choices=driver.CASES, required=True)
    p_run.add_argument("--n", type=int, required=True)
    _add_geometry(p_run)
    _add_material(p_run)

    p_conv = sub.add_parser("converge", help="run a resolution ladder")
    p_conv.add_argument("--case", choices=driver.CASES, required=True)
    p_conv.add_argument("--n-list", type=_int_list, required=True,
                        help="comma-separated resolutions, e.g. 24,48,96")
    _add_geometry(p_conv)
    _add_material(p_conv)

    p_chk = sub.add_parser("check-quadrature",
                           help="dump per-node quadrature diagnostics")
    p_chk.add_argument("--n", type=int, required=True)
    _add_geometry(p_chk)

    p_sw = sub.add_parser("sweep", help="inclusion shear-contrast sweep")
    p_sw.add_argument("--ratios", type=_float_list,
                      default=[0.015625, 0.125, 1.0, 8.0, 64.0],
                      help="comma-separated mu2/mu1 values")
    p_sw.add_argument("--n", type=int, default=64)
    _add_geometry(p_sw)

    return parser


def _cmd_run(args) -> int:
    config = _config_from(args, args.case, args.n)
    t0 = time.perf_counter()
    result = driver.run_case(config, out=args.out)
    seconds = time.perf_counter() - t0
    print(
        f"{config.case} n={config.n}: N_interior={result.n_interior} "
        f"rms_error={result.rms_error:.6e} "
        f"residual={result.solve_report.residual:.3e} "
        f"({seconds:.2f}s)"
    )
    return EXIT_OK


def _cmd_converge(args) -> int:
    config = _config_from(args, args.case, args.n_list[0])
    report = driver.convergence_ladder(config, args.n_list, out=args.out)
    for n, h, err in zip(report.n_values, report.h_values, report.rms_errors):
        print(f"n={n:4d} h={h:.6f} rms_error={err:.6e}")
    if report.slope is not None:
        print(f"slope={report.slope:.3f}")
    return EXIT_OK


def _cmd_check_quadrature(args) -> int:
    # The plain square: the domain of the patch case, with no hole or inclusion.
    config = _config_from(args, "patch", args.n)
    cloud = generate_perturbed_lattice(
        n=config.n,
        delta_factor=config.delta_factor,
        perturb_frac=config.perturb,
        seed=config.seed,
    )
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs, include_dilatation=not config.strict_vh)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = np.nonzero(family.computed)[0]
    # Every computed node has neighbors, so its weights are one nonempty run.
    counts = np.diff(nbrs.indptr)[ids]
    weights = family.weights[family.computed[nbrs.row_index]]
    first = np.cumsum(counts) - counts
    driver.write_csv(
        out / "quadrature_check.csv",
        "node,x,y,n_neighbors,residual,rank,min_weight,max_weight",
        [
            ids,
            cloud.positions[ids, 0],
            cloud.positions[ids, 1],
            counts,
            family.residual[ids],
            family.rank[ids],
            np.minimum.reduceat(weights, first),
            np.maximum.reduceat(weights, first),
        ],
    )

    print(
        f"nodes checked: {ids.size} / {cloud.n_points}  "
        f"max residual: {float(np.nanmax(family.residual)):.3e}  "
        f"neighbor range: [{int(counts.min())}, {int(counts.max())}]  "
        f"fallbacks: {int(family.fallback.sum())}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from(args, "inclusion", args.n)
    out = driver.sweep_contrast(config, args.ratios, out=args.out)
    for entry in out["entries"]:
        print(
            f"ratio={entry['ratio']:<12g} profile_rms={entry['profile_rms']:.6e} "
            f"max|u|={entry['max_abs_u']:.6e}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "converge": _cmd_converge,
        "check-quadrature": _cmd_check_quadrature,
        "sweep": _cmd_sweep,
    }
    try:
        driver.check_out(args.out)
        return handlers[args.command](args)
    except PerilpsError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
