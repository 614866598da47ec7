"""Point cloud generation and neighbor search."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from perilps.errors import ConfigError
from perilps.model import hole_removal_mask
from perilps.pointcloud import Disk, build_neighborhoods, generate_perturbed_lattice
from oracles import dilatation_rule, kept_pairs, neighborhood_arrays


def test_counts_at_n24():
    cloud = generate_perturbed_lattice(24, seed=1)
    assert cloud.n_points == 38 * 38 == 1444
    assert cloud.n_interior == 576
    assert cloud.h == pytest.approx(1.0 / 24)
    assert cloud.delta == pytest.approx(3.5 / 24)


def test_roles_follow_unperturbed_centers():
    """Interior means the cell center is in the open unit square."""
    cloud = generate_perturbed_lattice(12, seed=3)
    centers = cloud.unperturbed_centers()
    inside = np.all((centers > 0.0) & (centers < 1.0), axis=1)
    np.testing.assert_array_equal(cloud.interior, inside)


def test_interior_positions_stay_inside():
    # Jitter is at most 0.2 h per coordinate while the nearest center
    # sits 0.5 h from the boundary, leaving a 0.3 h margin.
    cloud = generate_perturbed_lattice(16, seed=5)
    pos = cloud.positions[cloud.interior]
    margin = 0.3 * cloud.h - 1e-12
    assert np.all(pos > margin)
    assert np.all(pos < 1.0 - margin)


def test_zero_perturbation_reproduces_centers():
    cloud = generate_perturbed_lattice(10, perturb_frac=0.0, seed=9)
    np.testing.assert_array_equal(cloud.positions, cloud.unperturbed_centers())


def test_same_seed_is_bitwise_identical():
    a = generate_perturbed_lattice(10, seed=42)
    b = generate_perturbed_lattice(10, seed=42)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_different_seeds_differ():
    a = generate_perturbed_lattice(10, seed=0)
    b = generate_perturbed_lattice(10, seed=1)
    assert np.any(a.positions != b.positions)


def test_jitter_amplitude_bounded():
    cloud = generate_perturbed_lattice(20, perturb_frac=0.2, seed=11)
    offsets = cloud.positions - cloud.unperturbed_centers()
    assert np.abs(offsets).max() < 0.2 * cloud.h


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 7},
        {"n": 10, "perturb_frac": 0.5},
        {"n": 10, "perturb_frac": -0.1},
        {"n": 10, "delta_factor": 0.0},
        {"n": 8, "delta_factor": 4.0},
    ],
)
def test_invalid_configurations_raise(kwargs):
    with pytest.raises(ConfigError):
        generate_perturbed_lattice(**kwargs)


def test_disk_requires_positive_radius():
    with pytest.raises(ConfigError):
        Disk((0.0, 0.0), 0.0)


def test_disk_signed_distance():
    disk = Disk((0.5, 0.5), 0.2)
    pts = np.array([[0.5, 0.5], [0.7, 0.5], [0.9, 0.5]])
    np.testing.assert_allclose(
        disk.signed_distance(pts), [-0.2, 0.0, 0.2], atol=1e-15
    )


def test_hole_flags_strict_interior_centers():
    """A hole removes the nodes whose lattice center lies strictly inside
    it, plus the jittered strays whose position does."""
    disk = Disk((0.5, 0.5), 0.2)
    # At this jitter one node of each kind straddles the circle.
    cloud = generate_perturbed_lattice(16, perturb_frac=0.45, seed=4)
    centers = (cloud.lattice_index + 0.5) * cloud.h
    by_center = np.hypot(centers[:, 0] - 0.5, centers[:, 1] - 0.5) < 0.2
    pos = cloud.positions
    by_position = np.hypot(pos[:, 0] - 0.5, pos[:, 1] - 0.5) < 0.2
    assert (by_center & ~by_position).any() and (by_position & ~by_center).any()
    np.testing.assert_array_equal(
        hole_removal_mask(cloud, disk), by_center | by_position
    )


def _assert_kept_rows_match_brute_force(cloud, nbrs):
    """Every kept row, and each bond's row index, equals brute force bit
    for bit, the kept rows are the rule's nodes and every other row is
    empty."""
    i, j, keep = kept_pairs(cloud)
    _assert_neighborhoods_equal(nbrs, {**neighborhood_arrays(cloud.positions, i, j), "kept": keep})


def test_neighborhoods_match_brute_force():
    cloud = generate_perturbed_lattice(8, seed=4)
    nbrs = build_neighborhoods(cloud)
    _assert_kept_rows_match_brute_force(cloud, nbrs)
    # At this horizon every kept node has neighbors: the nonempty rows
    # are the rule's nodes, and they leave out the outer collar.
    keep = nbrs.kept
    np.testing.assert_array_equal(np.diff(nbrs.indptr) > 0, keep)
    assert 0 < keep.sum() < cloud.n_points


@given(
    n=st.integers(11, 16),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45, exclude_max=True),
    delta_factor=st.floats(3.0, 5.0),
)
# On an unjittered grid with an integer horizon factor a ring of pairs
# sits exactly on the horizon, at the stencil's outer offsets, where a
# search that rounds its reach can drop them.
@example(n=13, seed=0, perturb=0.0, delta_factor=3.0)
@example(n=11, seed=0, perturb=0.0, delta_factor=3.0)
@example(n=11, seed=0, perturb=0.0, delta_factor=4.0)
@example(n=11, seed=0, perturb=0.0, delta_factor=5.0)
# Jitter just below h/2 gives the widest stencil the lattice allows.
@example(n=11, seed=7, perturb=0.4999, delta_factor=3.5)
@example(n=11, seed=7, perturb=0.4999, delta_factor=5.0)
def test_neighborhoods_match_brute_force_everywhere(n, seed, perturb, delta_factor):
    cloud = generate_perturbed_lattice(
        n, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    _assert_kept_rows_match_brute_force(cloud, build_neighborhoods(cloud))


def _assert_neighborhoods_equal(nbrs, expected):
    for name, want in expected.items():
        np.testing.assert_array_equal(getattr(nbrs, name), want, err_msg=name, strict=True)


@given(
    n=st.integers(11, 40),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45, exclude_max=True),
    delta_factor=st.floats(2.2, 5.0),
    layout=st.sampled_from(["lattice", "translated", "scaled", "moved"]),
    node=st.integers(0, 2**16),
    direction=st.sampled_from([(1.0, 0.0), (0.0, -1.0), (-0.6, 0.8), (0.8, 0.6)]),
)
# Scaled by 3 with an integer horizon factor and no jitter, many pairs sit
# on the horizon, where a search that rounds its reach can drop them.
@example(n=13, seed=0, perturb=0.0, delta_factor=3.0, layout="scaled", node=0, direction=(1.0, 0.0))
def test_neighborhoods_match_brute_force_off_the_lattice(
    n, seed, perturb, delta_factor, layout, node, direction
):
    """Every array of the neighborhoods equals brute force on the kept
    rows bit for bit on clouds moved off the unit square, scaled with
    their horizon, or with one node placed a horizon away from another."""
    cloud = generate_perturbed_lattice(
        n, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    if layout == "translated":
        cloud = dataclasses.replace(cloud, positions=cloud.positions + 2.0)
    elif layout == "scaled":
        cloud = dataclasses.replace(
            cloud, positions=cloud.positions * 3.0, h=cloud.h * 3.0, delta=cloud.delta * 3.0
        )
    elif layout == "moved":
        pos = cloud.positions.copy()
        k = node % (cloud.n_points - 1)
        pos[k + 1] = pos[k] + cloud.delta * np.asarray(direction)
        cloud = dataclasses.replace(cloud, positions=pos)
    _assert_kept_rows_match_brute_force(cloud, build_neighborhoods(cloud))


@pytest.mark.parametrize("perturb", [0.0, 0.2, 0.45 - 1e-9])
def test_neighborhoods_match_kdtree_at_n64(perturb):
    """At a benchmark size the search equals scipy's k-d tree query, with
    the same exact test on ``x_j - x_i``, bit for bit on the kept rows,
    and keeps the rows of the rule's nodes."""
    from scipy.spatial import cKDTree

    cloud = generate_perturbed_lattice(64, perturb_frac=perturb, seed=7)
    pos, radius = cloud.positions, cloud.delta
    i, j = cKDTree(pos).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray").T
    diff = pos[j] - pos[i]
    d2 = np.einsum("ij,ij->i", diff, diff)
    hit = (d2 <= radius * radius) & (d2 > 0.0)
    i, j = np.r_[i[hit], j[hit]], np.r_[j[hit], i[hit]]
    perm = np.lexsort((j, i))
    i, j = i[perm], j[perm]
    keep = dilatation_rule(cloud, i, j)
    nbrs = build_neighborhoods(cloud)
    expected = neighborhood_arrays(pos, i[keep[i]], j[keep[i]])
    _assert_neighborhoods_equal(nbrs, {**expected, "kept": keep})


def test_neighborhoods_are_symmetric():
    """A bond between two kept rows is in both; a bond from a kept row
    to a dropped one is in the kept row only."""
    cloud = generate_perturbed_lattice(9, seed=6)
    nbrs = build_neighborhoods(cloud)
    keep = nbrs.kept
    pairs = set(zip(nbrs.row_index.tolist(), nbrs.indices.tolist()))
    assert all(keep[i] for i, _ in pairs)
    assert all(((j, i) in pairs) == keep[j] for i, j in pairs)
    assert not all(keep[j] for _, j in pairs)


def test_uniform_grid_interior_stencil_has_36_neighbors():
    """At delta = 3.5 h an unjittered node sees exactly 36 others."""
    offsets = [
        (di, dj)
        for di in range(-3, 4)
        for dj in range(-3, 4)
        if 0 < di * di + dj * dj <= 3.5**2
    ]
    assert len(offsets) == 36

    cloud = generate_perturbed_lattice(12, perturb_frac=0.0, seed=0)
    nbrs = build_neighborhoods(cloud)
    near = cloud.center_distance_to_domain() <= cloud.delta
    counts = np.diff(nbrs.indptr)
    assert np.all(counts[near] == 36)


def test_offsets_and_distances_consistent():
    cloud = generate_perturbed_lattice(8, seed=8)
    nbrs = build_neighborhoods(cloud)
    i, j = nbrs.row_index, nbrs.indices
    np.testing.assert_allclose(
        nbrs.offsets, cloud.positions[j] - cloud.positions[i], atol=0.0
    )
    np.testing.assert_allclose(
        nbrs.distances, np.hypot(nbrs.offsets[:, 0], nbrs.offsets[:, 1])
    )
    assert nbrs.distances.min() > 0.0
    assert nbrs.distances.max() <= cloud.delta * (1 + 1e-15)


def test_horizon_is_inclusive():
    """A pair at exactly the horizon distance is kept, in both rows: the
    pair is two interior nodes, whose rows the search keeps."""
    cloud = generate_perturbed_lattice(8, perturb_frac=0.0, seed=0)
    pos = cloud.positions.copy()
    # move node k + 1 to exactly delta to the right of interior node k
    k = int(np.nonzero(cloud.interior)[0][0])
    assert cloud.interior[k + 1]
    pos[k + 1] = pos[k] + [cloud.delta, 0.0]
    moved = dataclasses.replace(cloud, positions=pos)
    nbrs = build_neighborhoods(moved)
    assert k + 1 in nbrs.indices[nbrs.pair_slice(k)]
    assert k in nbrs.indices[nbrs.pair_slice(k + 1)]


def test_search_rejects_nodes_out_of_lattice_order():
    """The search reads the lattice from the node order, so a cloud whose
    nodes are not row-major by lattice index is refused, not searched
    wrongly."""
    cloud = generate_perturbed_lattice(8, seed=3)
    swap = np.arange(cloud.n_points)
    swap[[0, 1]] = [1, 0]
    for moved in (
        dataclasses.replace(cloud, positions=cloud.positions[swap], lattice_index=cloud.lattice_index[swap]),
        dataclasses.replace(cloud, positions=cloud.positions[1:], lattice_index=cloud.lattice_index[1:]),
    ):
        with pytest.raises(ConfigError, match="row-major"):
            build_neighborhoods(moved)


def test_pair_slice_matches_neighbors():
    cloud = generate_perturbed_lattice(8, seed=12)
    nbrs = build_neighborhoods(cloud)
    for i in (0, 17, cloud.n_points - 1):
        sl = nbrs.pair_slice(i)
        np.testing.assert_array_equal(nbrs.indices[sl], nbrs.indices[nbrs.indptr[i] : nbrs.indptr[i + 1]])
        np.testing.assert_array_equal(nbrs.row_index[sl], i)


def test_separation_bound_under_jitter():
    """Per-coordinate jitter of 0.2 h keeps nodes at least 0.6 h apart."""
    cloud = generate_perturbed_lattice(12, seed=13)
    nbrs = build_neighborhoods(cloud)
    assert nbrs.distances.min() >= 0.6 * cloud.h - 1e-12

