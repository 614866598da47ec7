"""Acceptance checks for the benchmark suite, one test per criterion.

Each test prints a single ``acceptance N (...): PASS/FAIL`` line with
the measured numbers before asserting, so a full run doubles as a
checklist.  The ladders are shared through module fixtures; the whole
module takes about 13 s on a 2-vCPU machine.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from perilps.driver import RunConfig, convergence_ladder, reference_errors, run_case, sweep_contrast
from perilps.model import (
    BondSet,
    Discretization,
    MaterialField,
    compute_moment_tensors,
    damage_field,
    front_tree,
)
from perilps.pointcloud import build_neighborhoods, generate_perturbed_lattice
from perilps.quadrature import compute_family, exact_ball_moments
from oracles import apply_operator, quadratic_field_probes


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num} ({title}): {'PASS' if ok else 'FAIL'} {detail}")


def _timed_ladder(config, n_values):
    t0 = time.perf_counter()
    report = convergence_ladder(config, n_values)
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared ladders


@pytest.fixture(scope="module")
def smooth_ladder():
    return _timed_ladder(RunConfig(case="smooth", n=24), [24, 48, 96])


@pytest.fixture(scope="module")
def nearinc_ladder():
    return _timed_ladder(RunConfig(case="smooth-nearinc", n=24), [24, 48, 96])


@pytest.fixture(scope="module")
def hole_ladders():
    out = {}
    t0 = time.perf_counter()
    for nu in (0.25, 0.495):
        out[nu], _ = _timed_ladder(RunConfig(case="hole", n=32, nu=nu), [32, 64, 128])
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def inclusion_uniform_ladders():
    out = {}
    t0 = time.perf_counter()
    for nu2 in (0.25, 0.49):
        cfg = RunConfig(case="inclusion", n=16, perturb=0.0, nu2=nu2)
        out[nu2], _ = _timed_ladder(cfg, [16, 32, 64, 128])
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def perturbed_inclusion_128():
    return run_case(RunConfig(case="inclusion", n=128))


# ---------------------------------------------------------------------------
# 1: patch exactness


def test_patch_exactness_all_seeds():
    t0 = time.perf_counter()
    errors = {}
    for seed in (1, 2, 3, 4, 5):
        result = run_case(RunConfig(case="patch", n=24, seed=seed))
        errors[seed] = result.rms_error
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, "patch exactness", ok, f"worst rms {worst:.3e} over seeds 1-5 [{elapsed:.0f}s]")
    assert worst <= 1e-10, f"patch rms {worst:.3e} exceeds 1e-10: {errors}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2: smooth manufactured solution


def test_smooth_convergence_envelope(smooth_ladder):
    report, elapsed = smooth_ladder
    refs = reference_errors(report.config)
    ratios = [report.rms_errors[k] / refs[str(n)] for k, n in enumerate(report.n_values)]
    ok = max(ratios) <= 3.0 and report.slope >= 1.8 and elapsed < 300.0
    _report(
        2, "smooth convergence", ok,
        f"slope {report.slope:.3f}, error/reference in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] [{elapsed:.0f}s]",
    )
    for k, n in enumerate(report.n_values):
        assert report.rms_errors[k] <= 3.0 * refs[str(n)], (
            f"n={n}: rms {report.rms_errors[k]:.4e} above 3x reference {refs[str(n)]:.4e}"
        )
    assert report.slope >= 1.8, f"slope {report.slope:.3f} below 1.8"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 3: near-incompressible smooth


def test_nearly_incompressible_convergence(nearinc_ladder):
    report, elapsed = nearinc_ladder
    refs = reference_errors(report.config)
    ratios = [report.rms_errors[k] / refs[str(n)] for k, n in enumerate(report.n_values)]
    drops = [
        report.rms_errors[k] / report.rms_errors[k + 1]
        for k in range(len(report.rms_errors) - 1)
    ]
    ok = max(ratios) <= 3.0 and min(drops) >= 3.5 and elapsed < 300.0
    _report(
        3, "near-incompressible smooth", ok,
        f"successive drops {['%.2f' % d for d in drops]}, error/reference in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] [{elapsed:.0f}s]",
    )
    for k, n in enumerate(report.n_values):
        assert report.rms_errors[k] <= 3.0 * refs[str(n)], (
            f"n={n}: rms {report.rms_errors[k]:.4e} above 3x reference {refs[str(n)]:.4e}"
        )
    assert min(drops) >= 3.5, f"successive error drop {min(drops):.2f} below 3.5"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4: hole in plate with broken bonds


def test_hole_first_order_both_poisson(hole_ladders):
    ladders, elapsed = hole_ladders
    slopes = {nu: ladders[nu].slope for nu in (0.25, 0.495)}
    ok = all(s >= 0.8 for s in slopes.values()) and elapsed < 900.0
    _report(
        4, "hole first-order", ok,
        f"slopes nu=0.25: {slopes[0.25]:.3f}, nu=0.495: {slopes[0.495]:.3f} "
        f"(required >= 0.8) [{elapsed:.0f}s]",
    )
    for nu, slope in slopes.items():
        assert slope >= 0.8, (
            f"nu={nu}: fitted slope {slope:.3f} on the 32/64/128 ladder is below "
            f"0.8.  Successive pair orders are "
            f"{['%.2f' % p for p in ladders[nu].pair_orders]}.  The README's "
            f"hole-ladder table extends the ladder to n=384 at one seed: the "
            f"128/192/256 window fits 1.02 at both Poisson ratios, but past 256 "
            f"the pair orders at nu=0.495 are 0.17 and 0.49, and the 256/320/384 "
            f"window fits 0.31 (0.68 at nu=0.25).  The slow decay is not "
            f"confined to the coarsest rung, where the horizon (0.109) spans "
            f"half the hole radius; a seed ensemble (ROADMAP item 2) is to "
            f"settle the rate."
        )
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 5: two-phase inclusion on uniform grids


def test_inclusion_uniform_envelope_and_rate(inclusion_uniform_ladders):
    ladders, elapsed = inclusion_uniform_ladders
    details = []
    all_ratios = {}
    for nu2 in (0.25, 0.49):
        report = ladders[nu2]
        refs = reference_errors(report.config)
        ratios = [
            report.rms_errors[k] / refs[str(n)] for k, n in enumerate(report.n_values)
        ]
        all_ratios[nu2] = ratios
        details.append(
            f"nu2={nu2}: slope {report.slope:.3f}, error/reference in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}]"
        )
    ok = (
        max(max(r) for r in all_ratios.values()) <= 2.0
        and ladders[0.25].slope >= 0.9
        and elapsed < 900.0
    )
    _report(5, "inclusion uniform", ok, "; ".join(details) + f" [{elapsed:.0f}s]")
    for nu2 in (0.25, 0.49):
        report = ladders[nu2]
        refs = reference_errors(report.config)
        for k, n in enumerate(report.n_values):
            assert report.rms_errors[k] <= 2.0 * refs[str(n)], (
                f"nu2={nu2}, n={n}: rms {report.rms_errors[k]:.4e} above "
                f"2x reference {refs[str(n)]:.4e}"
            )
    assert ladders[0.25].slope >= 0.9, f"slope {ladders[0.25].slope:.3f} below 0.9"
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 6: perturbed-grid inclusion stays near the uniform-grid error


def test_inclusion_perturbed_stagnation_bound(
    inclusion_uniform_ladders, perturbed_inclusion_128
):
    ladders, _ = inclusion_uniform_ladders
    uniform_err = ladders[0.25].rms_errors[-1]
    result = perturbed_inclusion_128
    ratio = result.rms_error / uniform_err
    ok = ratio <= 3.0
    _report(
        6, "inclusion perturbed", ok,
        f"n=128 perturbed/uniform error ratio {ratio:.3f} (bound 3)",
    )
    assert ratio <= 3.0, (
        f"perturbed rms {result.rms_error:.4e} vs uniform {uniform_err:.4e}"
    )


# ---------------------------------------------------------------------------
# 7: quadrature certificates


def _polar_moment(a: int, b: int, s: int, delta: float) -> float:
    value, _ = dblquad(
        lambda r, phi: math.cos(phi) ** a * math.sin(phi) ** b * r ** (a + b + 1 - s),
        0.0, 2.0 * math.pi,
        0.0, delta,
        epsabs=1e-13, epsrel=1e-13,
    )
    return value


def test_quadrature_certificates():
    t0 = time.perf_counter()
    cloud = generate_perturbed_lattice(24, perturb_frac=0.2, seed=7)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)

    worst_residual = float(np.nanmax(family.residual[family.computed]))

    basis = exact_ball_moments(cloud.delta)
    scale = math.pi * cloud.delta**2
    worst_moment = max(
        abs(moment - _polar_moment(a, b, s, cloud.delta)) / scale
        for (a, b, s), moment in zip(basis.functions, basis.function_moments)
    )

    probe = max(quadratic_field_probes(family, cloud, nbrs, probe_count=100, seed=0).values())
    elapsed = time.perf_counter() - t0
    ok = (
        worst_residual <= 1e-11
        and worst_moment <= 1e-10
        and probe <= 1e-10
        and elapsed < 60.0
    )
    _report(
        7, "quadrature certificates", ok,
        f"constraint residual {worst_residual:.2e}, moment oracle gap "
        f"{worst_moment:.2e}, probe residual {probe:.2e} "
        f"[{elapsed:.0f}s]",
    )
    assert worst_residual <= 1e-11
    assert worst_moment <= 1e-10
    assert probe <= 1e-10
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8: moment tensors and corrected dilatation


def test_dilatation_correction_exactness():
    t0 = time.perf_counter()
    cloud = generate_perturbed_lattice(16, perturb_frac=0.2, seed=3)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)

    corr = compute_moment_tensors(
        nbrs, family, BondSet.intact(nbrs).modified_weights(family, nbrs)
    )
    identity_gap = float(np.abs(corr.tensors[family.computed] - np.eye(2)).max())

    # Sever a random share of each node's bonds, up to half.
    rng = np.random.Generator(np.random.Philox(key=5))
    frac = rng.uniform(0.0, 0.5, size=cloud.n_points)
    broken = rng.random(nbrs.n_pairs) < frac[nbrs.row_index]
    damaged = BondSet(broken=broken, present=np.ones(cloud.n_points, dtype=bool))
    weights = damaged.modified_weights(family, nbrs)
    corr_d = compute_moment_tensors(nbrs, family, weights)
    assert corr_d.invertible[family.computed].all()
    disc = Discretization(
        cloud=cloud,
        nbrs=nbrs,
        family=family,
        bonds=damaged,
        weights=weights,
        correction=corr_d,
        damage=damage_field(family, nbrs, weights),
        fronts=front_tree(cloud, nbrs, family, damaged, weights),
    )

    mat = MaterialField(
        lam=np.full(cloud.n_points, 0.5), mu=np.full(cloud.n_points, 0.5)
    )
    worst_affine = 0.0
    for _ in range(100):
        G = rng.uniform(-1.0, 1.0, size=(2, 2))
        shift = rng.uniform(-1.0, 1.0, size=2)
        u = cloud.positions @ G.T + shift
        _, theta = apply_operator(disc, mat, u)
        worst_affine = max(
            worst_affine, float(np.abs(theta[family.computed] - np.trace(G)).max())
        )
    elapsed = time.perf_counter() - t0
    ok = identity_gap <= 1e-12 and worst_affine <= 1e-12 and elapsed < 60.0
    _report(
        8, "dilatation correction", ok,
        f"|M - I| {identity_gap:.2e} intact, affine dilatation gap "
        f"{worst_affine:.2e} over 100 fields with bonds severed [{elapsed:.0f}s]",
    )
    assert identity_gap <= 1e-12
    assert worst_affine <= 1e-12
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9: shear contrast sweep


def test_contrast_sweep_profiles():
    t0 = time.perf_counter()
    ratios = [2.0**-6, 2.0**-3, 1.0, 2.0**3, 2.0**6]
    out = sweep_contrast(RunConfig(case="inclusion", n=64), ratios)
    elapsed = time.perf_counter() - t0
    rel = {
        e["ratio"]: e["profile_rms"] / e["max_abs_u"] for e in out["entries"]
    }
    worst = max(rel.values())
    ok = worst <= 0.05 and elapsed < 600.0
    _report(
        9, "contrast sweep", ok,
        f"profile rms / max|u| worst {worst:.4f} over ratios 1/64..64 [{elapsed:.0f}s]",
    )
    for ratio, value in rel.items():
        assert value <= 0.05, f"ratio {ratio}: profile error {value:.4f} above 5%"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# frozen measurements


PINNED_ERRORS = {
    "smooth": [0.01452066802902066, 0.0033960778087404977, 0.0008183143595588576],
    "smooth-nearinc": [0.08121128192569138, 0.01758830642501996, 0.004073968155045812],
    ("inclusion", 0.25): [
        0.0017337918893144733, 0.0008970517616919085,
        0.0003406142359204208, 0.00010721462121490895,
    ],
    ("inclusion", 0.49): [
        0.017711429535123953, 0.01025219430482572,
        0.0044872976623442735, 0.0023528581882184697,
    ],
    ("hole", 0.25): [0.007844555839374599, 0.005109621319235403, 0.0025753013341525844],
    ("hole", 0.495): [0.004071132036115882, 0.0026776189804649775, 0.0014611227367186887],
    "inclusion-perturbed-128": 0.00014400332687686574,
}


def test_measured_regression_pins(
    smooth_ladder, nearinc_ladder, hole_ladders, inclusion_uniform_ladders,
    perturbed_inclusion_128,
):
    """Error values measured on this exact configuration, frozen.

    The envelope checks above leave headroom; these pins catch silent
    accuracy drift.  The tolerance allows for platform-level numerics
    (BLAS, libm), nothing more.  A legitimate method change that moves
    these numbers should re-freeze them deliberately.
    """
    np.testing.assert_allclose(
        smooth_ladder[0].rms_errors, PINNED_ERRORS["smooth"], rtol=1e-4
    )
    np.testing.assert_allclose(
        nearinc_ladder[0].rms_errors, PINNED_ERRORS["smooth-nearinc"], rtol=1e-4
    )
    ladders, _ = hole_ladders
    for nu in (0.25, 0.495):
        np.testing.assert_allclose(
            ladders[nu].rms_errors, PINNED_ERRORS[("hole", nu)], rtol=1e-4
        )
    uniform, _ = inclusion_uniform_ladders
    for nu2 in (0.25, 0.49):
        np.testing.assert_allclose(
            uniform[nu2].rms_errors, PINNED_ERRORS[("inclusion", nu2)], rtol=1e-4
        )
    np.testing.assert_allclose(
        perturbed_inclusion_128.rms_error,
        PINNED_ERRORS["inclusion-perturbed-128"],
        rtol=1e-4,
    )
