"""Optimization-based quadrature: moments, weights, certificates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from perilps import quadrature
from perilps.driver import RunConfig, run_case
from perilps.errors import EXIT_QUADRATURE, QuadratureError
from perilps.model import hole_removal_mask
from perilps.pointcloud import Disk, Neighborhoods, build_neighborhoods, generate_perturbed_lattice
from perilps.quadrature import (
    RESIDUAL_TOL,
    ball_monomial_moment,
    compute_family,
    exact_ball_moments,
    weighted_volume,
)

from oracles import (
    assemble_constraints,
    full_neighborhoods,
    least_norm_weights,
    neighborhood_arrays,
    quadratic_field_probes,
)

CONFIGS = dict(
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45, exclude_max=True),
    delta_factor=st.floats(3.0, 5.0),
)


def family_or_error(*args, **kwargs):
    """``compute_family``'s result, or the message of its ``QuadratureError``."""
    try:
        return compute_family(*args, **kwargs)
    except QuadratureError as exc:
        return str(exc)


def assert_same_outcome(x, y):
    """Two ``family_or_error`` outcomes are the same error or bitwise the same family."""
    if isinstance(x, str) or isinstance(y, str):
        assert x == y
        return
    for field in ("weights", "residual", "rank", "fallback"):
        a, b = getattr(x, field), getattr(y, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def numeric_ball_moment(a, b, s, delta):
    """Polar quadrature of z1^a z2^b / |z|^s over the delta-ball."""

    def integrand(r, t):
        return r ** (a + b + 1 - s) * math.cos(t) ** a * math.sin(t) ** b

    val, err = integrate.dblquad(
        integrand, 0.0, 2.0 * math.pi, 0.0, delta, epsabs=1e-13, epsrel=1e-13
    )
    return val


def test_weighted_volume_closed_form():
    assert weighted_volume(0.35) == pytest.approx(2 * math.pi * 0.35**3 / 3)


def test_nonpositive_horizon_rejected():
    with pytest.raises(QuadratureError, match="horizon must be positive"):
        exact_ball_moments(0.0)


def test_simple_moments_by_hand():
    d = 0.5
    assert ball_monomial_moment(0, 0, 0, d) == pytest.approx(math.pi * d**2)
    # int z1^2 / |z|^3 = pi * delta (radial integral of r^0 times pi)
    assert ball_monomial_moment(2, 0, 3, d) == pytest.approx(math.pi * d)
    # odd angular moments vanish
    assert ball_monomial_moment(1, 0, 0, d) == 0.0
    assert ball_monomial_moment(1, 2, 1, d) == 0.0


def test_nonintegrable_moment_rejected():
    with pytest.raises(ValueError):
        ball_monomial_moment(0, 0, 3, 0.2)


def test_all_basis_moments_against_numeric_oracle():
    """Every closed-form moment agrees with adaptive polar quadrature."""
    delta = 0.21875  # 3.5/16, a realistic horizon
    basis = exact_ball_moments(delta)
    scale = math.pi * delta**2
    for (a, b, s), moment in zip(basis.functions, basis.function_moments):
        numeric = numeric_ball_moment(a, b, s, delta)
        assert moment == pytest.approx(numeric, abs=1e-10 * scale), (a, b, s)
    np.testing.assert_array_equal(basis.moments, basis.function_moments[basis.rows])


def test_basis_row_counts():
    """36 rows (P 6, S 20, D 10) name 22 distinct functions, 19 solved for;
    the strict family's 26 rows name 15, all solved for."""
    full = exact_ball_moments(0.1)
    strict = exact_ball_moments(0.1, include_dilatation=False)
    assert full.rows.size == 36
    assert strict.rows.size == 26
    groups = {0: "P", 3: "S", 1: "D"}
    by_group = {}
    for k in full.rows:
        g = groups[full.functions[k][2]]
        by_group[g] = by_group.get(g, 0) + 1
    assert by_group == {"P": 6, "S": 20, "D": 10}
    assert not any(strict.functions[k][2] == 1 for k in strict.rows)
    assert len(full.functions) == len(set(full.functions)) == 22
    assert len(strict.functions) == len(set(strict.functions)) == 15
    assert sorted(set(full.rows.tolist())) == list(range(22))
    assert quadrature._independent(full).size == 19
    assert quadrature._independent(strict).tolist() == list(range(15))


def test_constraint_rows_match_formula():
    """Every row of ``assemble_constraints`` is its function ``z1^a z2^b / |z|^s``."""
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.7, 0.7, size=(50, 2))
    r = np.hypot(z[:, 0], z[:, 1])
    for include_dilatation in (True, False):
        basis = exact_ball_moments(1.0, include_dilatation)
        B, g = assemble_constraints(basis, z, r)
        assert B.shape == (basis.rows.size, 50)
        np.testing.assert_array_equal(g, basis.moments)
        for row, k in enumerate(basis.rows):
            a, b, s = basis.functions[k]
            expected = z[:, 0] ** a * z[:, 1] ** b / r**s
            np.testing.assert_allclose(B[row], expected, rtol=1e-13)


def test_least_norm_weights_hand_cases():
    # one constraint, two symmetric columns: weights split evenly
    w, diag = least_norm_weights(np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(w, [1.0, 1.0])
    assert diag["residual"] < 1e-14
    assert diag["rank"] == 1

    # duplicated consistent rows collapse to rank one
    w, diag = least_norm_weights(
        np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0])
    )
    np.testing.assert_allclose(w, [1.0, 1.0])
    assert diag["rank"] == 1
    assert diag["residual"] < 1e-14

    # duplicated inconsistent rows leave a certified residual
    w, diag = least_norm_weights(
        np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0])
    )
    assert diag["residual"] > 0.1

    # identity system returns the right-hand side itself
    w, diag = least_norm_weights(np.eye(3), np.array([3.0, -1.0, 2.0]))
    np.testing.assert_allclose(w, [3.0, -1.0, 2.0])


def test_constraint_matrix_shape_and_content():
    cloud = generate_perturbed_lattice(8, seed=1)
    nbrs = build_neighborhoods(cloud)
    basis = exact_ball_moments(cloud.delta)
    i = int(np.argmin(cloud.center_distance_to_domain()))
    sl = nbrs.pair_slice(i)
    B, g = assemble_constraints(basis, nbrs.offsets[sl], nbrs.distances[sl])
    assert B.shape == (36, sl.stop - sl.start)
    np.testing.assert_allclose(g, basis.moments)
    # spot-check one row against its function
    a, b, s = basis.functions[basis.rows[7]]
    z, r = nbrs.offsets[sl], nbrs.distances[sl]
    np.testing.assert_allclose(B[7], z[:, 0] ** a * z[:, 1] ** b / r**s, rtol=1e-13)


@pytest.fixture(scope="module")
def small_family():
    cloud = generate_perturbed_lattice(12, seed=2)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)
    return cloud, nbrs, family


def test_residual_certificates(small_family):
    cloud, nbrs, family = small_family
    near = cloud.center_distance_to_domain() <= cloud.delta * (1 + 1e-12)
    np.testing.assert_array_equal(family.computed, near)
    assert np.nanmax(family.residual[family.computed]) <= 1e-11
    assert np.all(np.isnan(family.weights[~family.computed[nbrs.row_index]]))
    assert not np.any(np.isnan(family.weights[family.computed[nbrs.row_index]]))


def test_weight_sums_reproduce_ball_area(small_family):
    cloud, nbrs, family = small_family
    sums = np.bincount(nbrs.row_index, weights=np.nan_to_num(family.weights), minlength=nbrs.n_points)
    area = math.pi * cloud.delta**2
    good = family.computed
    np.testing.assert_allclose(sums[good], area, rtol=1e-11)
    assert np.all(np.isnan(family.weights[~good[nbrs.row_index]]))


def test_quadratic_field_probes(small_family):
    cloud, nbrs, family = small_family
    report = quadratic_field_probes(family, cloud, nbrs, probe_count=100, seed=5)
    assert report["tensor"] <= 1e-10
    assert report["dilatation"] <= 1e-10


def test_strict_family_skips_dilatation_probe():
    cloud = generate_perturbed_lattice(10, seed=4)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs, include_dilatation=False)
    assert family.basis.rows.size == 26
    report = quadratic_field_probes(family, cloud, nbrs, probe_count=40, seed=0)
    assert report["tensor"] <= 1e-10
    # Without its rows the dilatation integrand of a quadratic field is
    # not reproduced on a jittered cloud.
    assert report["dilatation"] > 1e-6


def test_uniform_grid_weights_match_strict_family():
    """Stencil symmetry satisfies the dilatation rows for free."""
    cloud = generate_perturbed_lattice(10, perturb_frac=0.0, seed=0)
    nbrs = build_neighborhoods(cloud)
    full = compute_family(cloud, nbrs)
    strict = compute_family(cloud, nbrs, include_dilatation=False)
    sel = full.computed[nbrs.row_index]
    np.testing.assert_allclose(
        full.weights[sel], strict.weights[sel], atol=1e-13
    )


def test_translation_invariance():
    """Weights depend on bond offsets only, not absolute position."""
    cloud = generate_perturbed_lattice(8, seed=6)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)

    shifted = dataclasses.replace(cloud, positions=cloud.positions + 2.0)
    nbrs2 = build_neighborhoods(shifted)
    family2 = compute_family(
        shifted, nbrs2, needed=family.computed.copy()
    )
    np.testing.assert_array_equal(nbrs2.indices, nbrs.indices)
    sel = family.computed[nbrs.row_index]
    np.testing.assert_allclose(family2.weights[sel], family.weights[sel], atol=1e-12)


def test_scaling_covariance():
    """Scaling geometry by s scales every weight by s^2."""
    cloud = generate_perturbed_lattice(8, seed=7)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)

    s = 3.0
    scaled = dataclasses.replace(
        cloud, positions=cloud.positions * s, h=cloud.h * s, delta=cloud.delta * s
    )
    # The same bonds, scaled with the geometry: the scaled cloud keeps its
    # lattice metadata on the unit square, so the search would keep other rows.
    nbrs2 = Neighborhoods(
        **neighborhood_arrays(scaled.positions, nbrs.row_index, nbrs.indices),
        kept=nbrs.kept,
        delta=scaled.delta,
    )
    family2 = compute_family(
        scaled, nbrs2, needed=family.computed.copy()
    )
    sel = family.computed[nbrs.row_index]
    np.testing.assert_allclose(
        family2.weights[sel], s**2 * family.weights[sel], rtol=1e-9
    )


def test_rotation_symmetry_on_uniform_grid():
    """A quarter turn permutes the stencil, so sorted weights agree."""
    cloud = generate_perturbed_lattice(10, perturb_frac=0.0, seed=0)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)
    # pick an interior node and its quarter-turned bond multiset
    i = int(np.argmin(np.sum((cloud.positions - 0.5) ** 2, axis=1)))
    sl = nbrs.pair_slice(i)
    z = nbrs.offsets[sl]
    rotated = np.column_stack([-z[:, 1], z[:, 0]])
    # the rotated offsets are the same multiset as the originals
    a = np.array(sorted(map(tuple, np.round(z / cloud.h).astype(int))))
    b = np.array(sorted(map(tuple, np.round(rotated / cloud.h).astype(int))))
    np.testing.assert_array_equal(a, b)
    # weights of symmetric bonds agree pairwise
    order = np.lexsort((z[:, 1], z[:, 0]))
    order_rot = np.lexsort((rotated[:, 1], rotated[:, 0]))
    np.testing.assert_allclose(
        family.weights[sl][order], family.weights[sl][order_rot], atol=1e-13
    )


def test_truncated_ball_raises(monkeypatch):
    """Corner collar nodes cannot satisfy full-ball moments.

    The search keeps no row for them, so the test hands the quadrature
    every node's row, built by brute force.  With two failing corners in different lanes the error names the
    lower one, as a serial loop over the nodes would, whichever lane
    holds it: here the lower corner is the only block of lane 1 and the
    higher one a later block of lane 0.
    """
    cloud = generate_perturbed_lattice(8, seed=3)
    nbrs = full_neighborhoods(cloud)
    distance = cloud.center_distance_to_domain()
    needed = np.zeros(cloud.n_points, dtype=bool)
    corner = int(np.argmax(distance))
    needed[corner] = True
    with pytest.raises(QuadratureError, match=f"node {corner} failed the exactness"):
        compute_family(cloud, nbrs, needed=needed)

    low, high = np.sort(np.argsort(distance)[-4:])[-2:]
    passing = np.nonzero(cloud.interior)[0][0]
    assert passing < low < high
    needed = np.zeros(cloud.n_points, dtype=bool)
    needed[[passing, low, high]] = True
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 1)
    monkeypatch.setattr(quadrature, "_lanes", lambda: 2)
    with pytest.raises(QuadratureError, match=f"node {low} failed the exactness"):
        compute_family(cloud, nbrs, needed=needed)


def test_empty_neighborhood_raises():
    """Caught before the block gather, which would read the next node's pairs."""
    cloud = generate_perturbed_lattice(8, seed=3)
    nbrs = build_neighborhoods(cloud)
    lonely = int(np.nonzero(cloud.interior)[0][0])
    keep = nbrs.row_index != lonely
    counts = np.bincount(nbrs.row_index[keep], minlength=cloud.n_points)
    stripped = Neighborhoods(
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        indices=nbrs.indices[keep],
        row_index=nbrs.row_index[keep],
        offsets=nbrs.offsets[keep],
        distances=nbrs.distances[keep],
        kept=nbrs.kept,
        delta=nbrs.delta,
    )
    needed = np.zeros(cloud.n_points, dtype=bool)
    needed[[lonely, lonely + 1]] = True
    with pytest.raises(QuadratureError, match=f"node {lonely} has an empty neighborhood"):
        compute_family(cloud, stripped, needed=needed)


def test_kept_node_without_neighbors_raises():
    """At delta = h a collar node the search keeps may have no node within
    its horizon: the quadrature names it with the typed error (exit 3)."""
    cloud = generate_perturbed_lattice(8, delta_factor=1.0, seed=1)
    nbrs = build_neighborhoods(cloud)
    lonely = np.nonzero(nbrs.kept & (np.diff(nbrs.indptr) == 0))[0]
    assert lonely.size and not cloud.interior[lonely].any()
    with pytest.raises(QuadratureError, match=f"node {lonely[0]} has an empty neighborhood") as exc:
        compute_family(cloud, nbrs)
    assert exc.value.exit_code == EXIT_QUADRATURE


def test_failed_batched_node_is_solved_again_and_counted(small_family, monkeypatch):
    """The victim's batched weights are spoiled in whichever block holds
    them, found by their values, so the lanes may run in any order."""
    cloud, nbrs, family = small_family
    assert not family.fallback.any()
    victim = int(np.nonzero(family.computed)[0][3])
    sl = nbrs.pair_slice(victim)
    good = family.weights[sl]
    solve = quadrature._gram_weights
    spoiled = []

    def spoil_victim(S, g):
        w = solve(S, g)
        hit = (w[:, :good.size] == good).all(axis=1)
        w[hit] = np.nan
        spoiled.append(int(hit.sum()))
        return w

    monkeypatch.setattr(quadrature, "_gram_weights", spoil_victim)
    again = compute_family(cloud, nbrs)
    assert sum(spoiled) == 1
    assert np.nonzero(again.fallback)[0].tolist() == [victim]
    np.testing.assert_allclose(again.weights[sl], good, rtol=1e-10)
    assert again.residual[victim] <= RESIDUAL_TOL
    assert again.rank[victim] == family.rank[victim]


def test_singular_gram_sends_its_whole_block_to_the_fallback(small_family, monkeypatch):
    """A batched solve that finds a singular Gram matrix spoils its whole
    block: every node of that block, and only those, is solved again.
    One lane takes the blocks in order, so the k-th batched solve is
    block k."""
    cloud, nbrs, family = small_family
    nodes = np.nonzero(family.computed)[0]
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 7)
    monkeypatch.setattr(quadrature, "_lanes", lambda: 1)
    # The block that holds the middle node, a full one.
    hit = nodes.size // 2 // 7
    block = nodes[7 * hit:7 * (hit + 1)]
    assert block.size == 7
    solve = np.linalg.solve
    sizes = []

    def singular_block(a, b):
        sizes.append(a.shape[0])
        if len(sizes) == hit + 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_block)
    again = compute_family(cloud, nbrs)
    assert sum(sizes) == nodes.size and sizes[hit] == 7
    np.testing.assert_array_equal(np.nonzero(again.fallback)[0], block)
    spoiled = again.fallback[nbrs.row_index]
    np.testing.assert_allclose(again.weights[spoiled], family.weights[spoiled], rtol=1e-10)
    kept = family.computed[nbrs.row_index] & ~spoiled
    np.testing.assert_array_equal(again.weights[kept], family.weights[kept])
    assert again.residual[block].max() <= RESIDUAL_TOL


#: Clouds below a horizon of 3h where the batched solve fails one node
#: at n = 12 and the in-block rescue solves it (node 411 with 19
#: neighbors, node 123 with 15).
RESCUED = [
    dict(seed=8, perturb=0.45, delta_factor=2.8, include_dilatation=True),
    dict(seed=3, perturb=0.3, delta_factor=2.5, include_dilatation=False),
]


@given(**CONFIGS, include_dilatation=st.booleans())
@example(**RESCUED[0])
@example(**RESCUED[1])
def test_batched_weights_match_per_node_lstsq(
    seed, perturb, delta_factor, include_dilatation
):
    """Batched weights equal the per-node least-norm solve, or both fail."""
    cloud = generate_perturbed_lattice(
        12, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    nbrs = build_neighborhoods(cloud)
    basis = exact_ball_moments(cloud.delta, include_dilatation)
    needed = nbrs.kept
    reference = {}
    for i in np.nonzero(needed)[0]:
        sl = nbrs.pair_slice(i)
        B, g = assemble_constraints(basis, nbrs.offsets[sl], nbrs.distances[sl])
        reference[i] = least_norm_weights(B, g)
    try:
        family = compute_family(cloud, nbrs, include_dilatation=include_dilatation)
    except QuadratureError as exc:
        assert exc.exit_code == EXIT_QUADRATURE
        assert max(diag["residual"] for _, diag in reference.values()) > RESIDUAL_TOL
        return
    assert family.residual[needed].max() <= RESIDUAL_TOL
    for i, (w, diag) in reference.items():
        got = family.weights[nbrs.pair_slice(i)]
        assert np.linalg.norm(got - w) <= 1e-10 * np.linalg.norm(w), i
        assert family.rank[i] == diag["rank"], i


@given(**CONFIGS, include_dilatation=st.booleans())
# 320 needed nodes: the last block is partial at 7 nodes a block and at
# the default size.
@example(seed=0, perturb=0.3, delta_factor=3.0, include_dilatation=True)
@example(**RESCUED[0])
@example(**RESCUED[1])
def test_weights_do_not_depend_on_block_size(seed, perturb, delta_factor, include_dilatation):
    """One node a block, seven and the default give bitwise the same
    family, or the same error: no padded slot leaks into a sum."""
    cloud = generate_perturbed_lattice(
        12, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    nbrs = build_neighborhoods(cloud)
    outcomes = []
    for size in (1, 7, quadrature._BLOCK_NODES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK_NODES", size)
            outcomes.append(
                family_or_error(cloud, nbrs, include_dilatation=include_dilatation)
            )
    for other in outcomes[1:]:
        assert_same_outcome(outcomes[0], other)


@given(**CONFIGS, n=st.integers(16, 24))
# Found on a hole cloud: with each block padded to its own widest node,
# skipping the removed nodes moved kept weights by up to 2.6e-15.
@example(seed=3, perturb=0.45, delta_factor=3.0, n=24)
def test_weights_do_not_depend_on_block_members(seed, perturb, delta_factor, n):
    """A node's weights are bitwise the same whichever nodes share its
    solve block: here with and without the nodes a hole removes."""
    cloud = generate_perturbed_lattice(
        n, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    nbrs = build_neighborhoods(cloud)
    needed = nbrs.kept
    kept = needed & ~hole_removal_mask(cloud, Disk((0.5, 0.5), 0.2))
    full = compute_family(cloud, nbrs, needed=needed)
    part = compute_family(cloud, nbrs, needed=kept)
    sel = kept[nbrs.row_index]
    np.testing.assert_array_equal(part.weights[sel], full.weights[sel])
    np.testing.assert_array_equal(part.residual[kept], full.residual[kept])


#: A cloud whose needed nodes fill at least two blocks, so that more than
#: one lane runs: 320 nodes.
MULTI_BLOCK = dict(seed=0, perturb=0.3, delta_factor=3.0, n=12)


# n >= 11 leaves room for the collar at every drawn horizon factor.
@given(**CONFIGS, n=st.integers(11, 40), empty=st.booleans())
@example(**MULTI_BLOCK, empty=False)
@example(seed=0, perturb=0.3, delta_factor=3.0, n=24, empty=True)
def test_weights_do_not_depend_on_lane_count(seed, perturb, delta_factor, n, empty):
    """One lane and three lanes give bitwise the same family, or the
    same error."""
    cloud = generate_perturbed_lattice(
        n, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    nbrs = build_neighborhoods(cloud)
    needed = nbrs.kept & (not empty)
    if dict(seed=seed, perturb=perturb, delta_factor=delta_factor, n=n) == MULTI_BLOCK:
        assert needed.sum() > quadrature._BLOCK_NODES
    outcomes = []
    for lanes in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_lanes", lambda: lanes)
            outcomes.append(family_or_error(cloud, nbrs, needed=needed))
    assert_same_outcome(*outcomes)


@given(**CONFIGS)
def test_patch_exact_across_configurations(seed, perturb, delta_factor):
    result = run_case(
        RunConfig(
            case="patch", n=12, seed=seed, perturb=perturb, delta_factor=delta_factor
        )
    )
    assert result.rms_error <= 1e-10


def test_needed_mask_controls_scope(small_family):
    cloud, nbrs, _ = small_family
    needed = np.zeros(cloud.n_points, dtype=bool)
    needed[np.nonzero(cloud.interior)[0][:5]] = True
    family = compute_family(cloud, nbrs, needed=needed)
    np.testing.assert_array_equal(family.computed, needed)
