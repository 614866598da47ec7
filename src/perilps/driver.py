"""Benchmark orchestration: single runs, convergence ladders, sweeps.

A run is configuration in, certified solution plus error report out,
with optional CSV/JSON artifacts.  It has two steps: a material-free
geometry step (:func:`build_discretization`: cloud, neighborhoods,
bonds, weights, moment tensors, damage, and the solver's front tree over
the dissection of the nodes; the one place that cuts a hole) and a
physics step (material, assembly, solve, error).  A contrast sweep
builds the geometry once and runs only the physics step per ratio.  All
randomness flows from the single seed in the configuration, and the
output writers format numbers with ``repr``, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analytic
from .analytic import AnalyticCase, ElasticModuli, HoleParams, InclusionParams
from .errors import ConfigError
from .model import (
    BondSet,
    Discretization,
    MaterialField,
    assemble_system,
    break_bonds_crossing_circle,
    hole_removal_mask,
    compute_moment_tensors,
    damage_field,
    front_tree,
)
from .pointcloud import (
    Disk,
    PointCloud,
    build_neighborhoods,
    generate_perturbed_lattice,
)
from .quadrature import compute_family
from .solver import SolveReport, rms_norm, solve

__all__ = [
    "CASES",
    "RunConfig",
    "RunResult",
    "ConvergenceReport",
    "build_discretization",
    "check_out",
    "run_case",
    "convergence_ladder",
    "sweep_contrast",
    "reference_errors",
]

#: The material fields each case reads, with their defaults; a
#: ``RunConfig`` that sets any other material field is rejected.
_MATERIAL = {
    "patch": {},
    "smooth": {},
    "smooth-nearinc": {"nu": 0.495},
    "hole": {"nu": 0.25},
    "inclusion": {"k1": 2.0, "k2": 1.0, "nu1": 0.25, "nu2": 0.25},
}

CASES = tuple(_MATERIAL)

#: Published RMS errors of the originating convergence study, keyed by
#: case, grid and the case's material fields in ``_MATERIAL`` order.  The
#: "uniform" tables are those of the unjittered lattice, a run with
#: ``perturb == 0``; every other run reads the "perturbed" ones.  The
#: inclusion tables hold for k1 = 2 inside and k2 = 1 outside, and the
#: smooth-nearinc table for nu = 0.495 only.  Embedded in summaries so a
#: run can be eyeballed against them.
_REFERENCE_ERRORS = {
    ("patch", "perturbed", ()): {24: 4.11e-14, 48: 2.47e-13, 96: 2.69e-12, 192: 4.01e-13},
    ("smooth", "perturbed", ()): {24: 0.02207, 48: 0.00506, 96: 0.00117, 192: 0.00028},
    ("smooth-nearinc", "perturbed", (0.495,)): {
        24: 0.13057, 48: 0.02597, 96: 0.00632, 192: 0.00158,
    },
    ("inclusion", "uniform", (2.0, 1.0, 0.25, 0.25)): {
        16: 0.00569, 32: 0.00201, 64: 0.00099, 128: 0.00045, 256: 0.00023,
    },
    ("inclusion", "uniform", (2.0, 1.0, 0.25, 0.49)): {
        16: 0.04463, 32: 0.03926, 64: 0.02260, 128: 0.01205, 256: 0.00595,
    },
    ("inclusion", "perturbed", (2.0, 1.0, 0.25, 0.25)): {
        16: 0.00661, 32: 0.00242, 64: 0.00144, 128: 0.00055, 256: 0.00044,
    },
    ("inclusion", "perturbed", (2.0, 1.0, 0.25, 0.49)): {
        16: 0.04629, 32: 0.03941, 64: 0.02304, 128: 0.01211, 256: 0.00614,
    },
}

FIELDS_HEADER = "x,y,ux,uy,theta,damage,ux_exact,uy_exact,err"

CONVERGENCE_HEADER = "n,h,N_interior,rms_error"


@dataclass(frozen=True)
class RunConfig:
    """Everything a single benchmark run depends on."""

    case: str
    n: int
    delta_factor: float = 3.5
    perturb: float = 0.2
    seed: int = 7
    nu: float | None = None
    nu1: float | None = None
    nu2: float | None = None
    k1: float | None = None
    k2: float | None = None
    strict_vh: bool = False

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; choose from {CASES}")
        unread = [
            k
            for k in ("nu", "nu1", "nu2", "k1", "k2")
            if getattr(self, k) is not None and k not in _MATERIAL[self.case]
        ]
        if unread:
            given = ", ".join(f"{k} (--{k})" for k in unread)
            raise ConfigError(f"case {self.case!r} does not read {given}")
        if self.n <= 0:
            raise ConfigError(f"n must be positive, got {self.n}")
        if not 0.0 <= self.perturb < 0.5:
            raise ConfigError(f"perturb (--perturb) must lie in [0, 0.5), got {self.perturb}")

    def material(self, name: str) -> float | None:
        """Material field ``name``, or its case's default when unset."""
        value = getattr(self, name)
        return _MATERIAL[self.case][name] if value is None else value


@dataclass
class RunResult:
    config: RunConfig
    cloud: PointCloud
    u: np.ndarray
    theta: np.ndarray
    damage: np.ndarray
    u_exact: np.ndarray
    report_mask: np.ndarray
    rms_error: float
    solve_report: SolveReport

    @property
    def n_interior(self) -> int:
        return int(self.report_mask.sum())


@dataclass
class ConvergenceReport:
    config: RunConfig
    n_values: list[int]
    h_values: list[float]
    n_interior: list[int]
    rms_errors: list[float]
    slope: float | None
    pair_orders: list[float]
    runs: list[RunResult] = field(default_factory=list)


def _inclusion_params(config: RunConfig) -> InclusionParams:
    inner = analytic.moduli_from_K_nu(config.material("k1"), config.material("nu1"))
    outer = analytic.moduli_from_K_nu(config.material("k2"), config.material("nu2"))
    return InclusionParams(inner=inner, outer=outer)


def _build_case(config: RunConfig) -> tuple[AnalyticCase, Disk | None]:
    """The analytic case of ``config`` and the hole it cuts, if any.
    ``RunConfig`` has rejected any other case name."""
    if config.case == "patch":
        return analytic.make_patch_case(), None
    if config.case == "smooth":
        moduli = ElasticModuli(lam=0.5, mu=0.5)
        case = analytic.make_smooth_case(moduli, frequency=math.pi)
        return case, None
    if config.case == "smooth-nearinc":
        moduli = analytic.moduli_from_E_nu(1.0, config.material("nu"))
        return analytic.make_smooth_case(moduli, frequency=math.pi), None
    if config.case == "hole":
        params = HoleParams(moduli=analytic.moduli_from_E_nu(1.0, config.material("nu")))
        disk = Disk(center=params.center, radius=params.radius)
        return analytic.make_hole_case(params), disk
    return analytic.make_inclusion_case(_inclusion_params(config)), None


def reference_errors(config: RunConfig) -> dict[str, float]:
    """Published errors matching this configuration, keyed by resolution."""
    grid = "perturbed" if config.perturb else "uniform"
    material = tuple(config.material(k) for k in _MATERIAL[config.case])
    table = _REFERENCE_ERRORS.get((config.case, grid, material), {})
    return {str(n): v for n, v in sorted(table.items())}


def check_out(out: Path | str | None) -> None:
    """Raise ``ConfigError`` if the output directory ``out`` is a file or
    lies under one, so that a run can reject it before any work."""
    if out is None:
        return
    out = Path(out)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ConfigError(f"--out {out} is a file or lies under one")


def build_discretization(
    config: RunConfig, hole: Disk | None = None
) -> Discretization:
    """The material-free geometry step: everything that the cloud alone fixes.

    Depends on the resolution, horizon factor, jitter, seed and
    ``strict_vh`` of ``config``, never on its material, and on ``hole``:
    bonds crossing it break and the nodes inside it are removed.
    """
    cloud = generate_perturbed_lattice(
        n=config.n,
        delta_factor=config.delta_factor,
        perturb_frac=config.perturb,
        seed=config.seed,
    )
    nbrs = build_neighborhoods(cloud)
    bonds = BondSet.intact(nbrs)
    if hole is not None:
        broken = break_bonds_crossing_circle(bonds, nbrs, cloud, hole).broken
        bonds = BondSet(broken=broken, present=~hole_removal_mask(cloud, hole))
    # Nodes removed from a hole get no weights, moment tensor or damage.
    family = compute_family(
        cloud,
        nbrs,
        include_dilatation=not config.strict_vh,
        needed=nbrs.kept & bonds.present,
    )
    weights = bonds.modified_weights(family, nbrs)
    return Discretization(
        cloud=cloud,
        nbrs=nbrs,
        family=family,
        bonds=bonds,
        weights=weights,
        correction=compute_moment_tensors(nbrs, family, weights),
        damage=damage_field(family, nbrs, weights),
        fronts=front_tree(cloud, nbrs, family, bonds, weights),
    )


def _run_physics(
    config: RunConfig, case: AnalyticCase, disc: Discretization
) -> RunResult:
    """The physics step: material, assembly, solve, error."""
    cloud = disc.cloud
    u_exact = case.displacement(cloud.positions)
    system = assemble_system(
        disc,
        MaterialField.from_case(case, cloud),
        dirichlet=u_exact,
        forcing=case.forcing(cloud.positions),
    )
    report = solve(system)
    fields = system.extract(report.x)
    u = fields[:, :2]

    mask = disc.fronts.slots[:, 0] >= 0
    return RunResult(
        config=config,
        cloud=cloud,
        u=u,
        theta=fields[:, 2],
        damage=disc.damage,
        u_exact=u_exact,
        report_mask=mask,
        rms_error=rms_norm(u[mask] - u_exact[mask]),
        solve_report=report,
    )


def run_case(config: RunConfig, out: Path | str | None = None) -> RunResult:
    """Execute one benchmark: cloud, weights, system, solve, errors.

    With ``out`` set, writes ``fields.csv`` (interior nodes) and
    ``summary.json`` into that directory.
    """
    check_out(out)
    case, hole = _build_case(config)
    result = _run_physics(config, case, build_discretization(config, hole))
    if out is not None:
        _write_run(Path(out), result)
    return result


def convergence_ladder(
    config: RunConfig, n_values: list[int], out: Path | str | None = None
) -> ConvergenceReport:
    """Run the same case over increasing resolutions and fit the rate.

    Each rung is an ordinary :func:`run_case` with the same seed (the
    jitter pattern is resolution-dependent but reproducible).  With
    ``out`` set and every rung solved, per-rung artifacts land in
    ``out/n{n}/`` and the ladder writes ``convergence.csv`` and an
    aggregate ``summary.json``.
    """
    check_out(out)
    if len(n_values) < 2:
        raise ConfigError("a convergence ladder needs at least two resolutions")
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("resolutions must be listed in strictly increasing order")

    runs = [run_case(replace(config, n=n)) for n in n_values]

    hs = [r.cloud.h for r in runs]
    errs = [r.rms_error for r in runs]
    pair_orders = [
        math.log(errs[k] / errs[k + 1]) / math.log(hs[k] / hs[k + 1])
        if errs[k + 1] > 0.0 and errs[k] > 0.0
        else math.nan
        for k in range(len(runs) - 1)
    ]
    slope = None
    if len(runs) >= 3 and all(e > 0.0 for e in errs):
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    report = ConvergenceReport(
        config=config,
        n_values=list(n_values),
        h_values=hs,
        n_interior=[r.n_interior for r in runs],
        rms_errors=errs,
        slope=slope,
        pair_orders=pair_orders,
        runs=runs,
    )
    if out is not None:
        out_path = Path(out)
        for run in runs:
            _write_run(out_path / f"n{run.config.n:03d}", run)
        _write_convergence(out_path / "convergence.csv", report)
        _write_summary(out_path / "summary.json", runs[-1], slope=slope)
    return report


def sweep_contrast(
    config: RunConfig, ratios: list[float], out: Path | str | None = None
) -> dict:
    """Inclusion runs over a range of shear contrasts, with profiles.

    The geometry is built once and shared by every ratio, which only
    changes the material.  A ratio ``r`` is the matrix phase's bulk
    modulus ``k2 = 2 r`` beside the default inclusion phase (k1 = 2, and
    nu = 1/4 in both), so it is the shear contrast mu2/mu1.  For each
    ratio the inclusion case is solved at the configured resolution and
    the x-displacement along the lattice row nearest the horizontal
    centerline is extracted next to its analytic overlay.  Nothing is
    written to ``out`` before every ratio has solved.

    Returns a dict with per-ratio profile arrays and summary numbers.
    """
    check_out(out)
    ratios = [float(r) for r in ratios]
    if not ratios or not all(r > 0.0 for r in ratios):
        raise ConfigError(f"sweep needs one or more positive contrast ratios, got {ratios}")
    given = [k for k in _MATERIAL["inclusion"] if getattr(config, k) is not None]
    if given:
        raise ConfigError(f"a contrast ratio sets both phases and would drop {', '.join(given)}")
    configs = [replace(config, case="inclusion", k2=2.0 * r) for r in ratios]
    cases = [_build_case(cfg)[0] for cfg in configs]
    disc = build_discretization(config)

    entries = []
    for ratio, cfg, case in zip(ratios, configs, cases):
        result = _run_physics(cfg, case, disc)
        profile = _centerline_profile(result)
        err = rms_norm(profile["ux"] - profile["ux_exact"])
        scale = float(np.abs(result.u_exact[result.report_mask]).max())
        entries.append(
            {
                "ratio": ratio,
                "profile": profile,
                "profile_rms": err,
                "max_abs_u": scale,
                "rms_error": result.rms_error,
            }
        )

    summary = {
        "case": "inclusion-sweep",
        "n": config.n,
        "ratios": [e["ratio"] for e in entries],
        "profile_rms": [e["profile_rms"] for e in entries],
        "max_abs_u": [e["max_abs_u"] for e in entries],
        "rms_error": [e["rms_error"] for e in entries],
    }
    if out is not None:
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        for e in entries:
            columns = [e["profile"][c] for c in ("x", "y", "ux", "ux_exact")]
            write_csv(out_path / f"profile_ratio_{e['ratio']!r}.csv", "x,y,ux,ux_exact", columns)
        with open(out_path / "sweep.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {"entries": entries, "summary": summary}


def _centerline_profile(result: RunResult) -> dict[str, np.ndarray]:
    """x-displacement along the lattice row nearest y = 1/2.

    For even ``n`` no row of unperturbed centers sits on the centerline;
    the row just above it is used.  Values are compared at the actual
    (possibly jittered) node positions.
    """
    cloud = result.cloud
    n = result.config.n
    row = n // 2
    mask = result.report_mask & (cloud.lattice_index[:, 1] == row)
    idx = np.nonzero(mask)[0]
    return {
        "x": cloud.positions[idx, 0],
        "y": cloud.positions[idx, 1],
        "ux": result.u[idx, 0],
        "ux_exact": result.u_exact[idx, 0],
    }


# ---------------------------------------------------------------------------
# output writers (repr-formatted, so reruns are byte-identical)


def write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length columns under ``header``, each value as its ``repr``.

    Columns are converted with ``tolist()``, so float columns print as
    Python floats and integer columns as Python ints.  The values are
    formatted a column at a time and then joined row by row.
    """
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    lines = [header, *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")


def _write_run(out: Path, result: RunResult) -> None:
    out.mkdir(parents=True, exist_ok=True)
    _write_fields(out / "fields.csv", result)
    _write_summary(out / "summary.json", result)


def _write_fields(path: Path, result: RunResult) -> None:
    idx = np.nonzero(result.report_mask)[0]
    pos, u, u_exact = result.cloud.positions[idx], result.u[idx], result.u_exact[idx]
    err = np.hypot(u[:, 0] - u_exact[:, 0], u[:, 1] - u_exact[:, 1])
    columns = [*pos.T, *u.T, result.theta[idx], result.damage[idx], *u_exact.T, err]
    write_csv(path, FIELDS_HEADER, columns)


def _write_summary(path: Path, result: RunResult, slope: float | None = None) -> None:
    summary = {
        "case": result.config.case,
        "n": result.config.n,
        "h": result.cloud.h,
        "delta": result.cloud.delta,
        "N_interior": result.n_interior,
        "rms_error": result.rms_error,
        "solver_residual": result.solve_report.residual,
        "paper_reference_values": reference_errors(result.config),
    }
    if slope is not None:
        summary["slope"] = slope
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_convergence(path: Path, report: ConvergenceReport) -> None:
    write_csv(
        path,
        CONVERGENCE_HEADER,
        [report.n_values, report.h_values, report.n_interior, report.rms_errors],
    )
