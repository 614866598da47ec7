"""Tests for the discrete solid model: bond bookkeeping, bond breaking,
the moment-tensor dilatation correction, and operator/assembly agreement.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from perilps.analytic import (
    InclusionParams,
    make_inclusion_case,
    make_patch_case,
    make_smooth_case,
    moduli_from_K_nu,
)
from perilps.driver import RunConfig, _build_case, build_discretization
from perilps.errors import AssemblyError, ConfigError
from perilps.model import (
    APPLY_CHUNK,
    C_ALPHA,
    C_BETA,
    DIM,
    BondSet,
    Discretization,
    MaterialField,
    assemble_system,
    break_bonds_crossing_circle,
    compute_moment_tensors,
    damage_field,
    front_tree,
    hole_removal_mask,
)
from perilps.pointcloud import (
    Disk,
    Neighborhoods,
    PointCloud,
    build_neighborhoods,
    generate_perturbed_lattice,
)
from perilps.quadrature import compute_family, weighted_volume
from perilps.solver import solve

from oracles import apply_operator, kept_pairs, unknown_layout


def _discretize(cloud, nbrs, family, bonds):
    """A Discretization over the given bonds, built as the driver's geometry step does."""
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


@pytest.fixture(scope="module")
def uniform16():
    cloud = generate_perturbed_lattice(16, perturb_frac=0.0, seed=0)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)
    return cloud, nbrs, family


@pytest.fixture(scope="module")
def perturbed12():
    cloud = generate_perturbed_lattice(12, perturb_frac=0.2, seed=3)
    nbrs = build_neighborhoods(cloud)
    family = compute_family(cloud, nbrs)
    return cloud, nbrs, family


# ---------------------------------------------------------------------------
# constants and material fields


def test_plane_strain_constants():
    assert (C_ALPHA, C_BETA, DIM) == (2.0, 16.0, 2)
    delta = 0.35
    assert weighted_volume(delta) == pytest.approx(
        2.0 * np.pi * delta**3 / 3.0
    )


def test_material_field_validation():
    MaterialField(lam=np.zeros(3), mu=np.ones(3))  # lam = 0 is allowed
    with pytest.raises(ConfigError):
        MaterialField(lam=np.ones(3), mu=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ConfigError):
        MaterialField(lam=np.array([-0.1, 1.0, 1.0]), mu=np.ones(3))


def test_material_field_from_inclusion_case_is_piecewise():
    """Nodes take the phase of their perturbed position, not their center."""
    params = InclusionParams(
        inner=moduli_from_K_nu(2.0, 0.25), outer=moduli_from_K_nu(1.0, 0.25)
    )
    case = make_inclusion_case(params)
    cloud = generate_perturbed_lattice(16, perturb_frac=0.2, seed=5)
    mat = MaterialField.from_case(case, cloud)
    d = cloud.positions - np.array([0.5, 0.5])
    inside = np.hypot(d[:, 0], d[:, 1]) < 0.2
    inner, outer = params.inner, params.outer
    np.testing.assert_allclose(mat.lam[inside], inner.lam)
    np.testing.assert_allclose(mat.lam[~inside], outer.lam)
    np.testing.assert_allclose(mat.mu[inside], inner.mu)
    np.testing.assert_allclose(mat.mu[~inside], outer.mu)


# ---------------------------------------------------------------------------
# bond sets


def test_intact_bondset_shapes(perturbed12):
    cloud, nbrs, _ = perturbed12
    bonds = BondSet.intact(nbrs)
    assert bonds.broken.shape == (nbrs.n_pairs,)
    assert not bonds.broken.any()
    assert bonds.present.all()
    assert bonds.present.shape == (cloud.n_points,)


def test_modified_weights_zero_broken_and_absent(perturbed12):
    cloud, nbrs, family = perturbed12
    bonds = BondSet.intact(nbrs)
    w0 = bonds.modified_weights(family, nbrs)
    assert np.isfinite(w0).all()

    # NaN weights of out-of-scope rows become zeros, never propagate.
    uncomputed = np.nonzero(~family.computed)[0]
    assert uncomputed.size > 0
    k = uncomputed[0]
    sl = nbrs.pair_slice(k)
    assert np.isnan(family.weights[sl]).all()
    assert (w0[sl] == 0.0).all()

    # Breaking a directed pair zeroes exactly that entry.
    i = int(np.nonzero(cloud.interior)[0][0])
    sl_i = nbrs.pair_slice(i)
    broken = np.zeros(nbrs.n_pairs, dtype=bool)
    broken[sl_i.start] = True
    wb = BondSet(broken=broken, present=bonds.present).modified_weights(family, nbrs)
    assert wb[sl_i.start] == 0.0
    np.testing.assert_array_equal(np.delete(wb, sl_i.start), np.delete(w0, sl_i.start))

    # An absent node kills its bonds in both directions.
    j = int(nbrs.indices[sl_i.start])
    present = bonds.present.copy()
    present[j] = False
    wa = BondSet(broken=np.zeros(nbrs.n_pairs, bool), present=present).modified_weights(
        family, nbrs
    )
    assert (wa[nbrs.pair_slice(j)] == 0.0).all()
    assert (wa[nbrs.indices == j] == 0.0).all()


# ---------------------------------------------------------------------------
# bond breaking against a circle


def _two_node_geometry(p0, p1):
    """A two-node cloud joined by its directed bond pair, horizon huge."""
    pos = np.array([p0, p1], dtype=float)
    off = pos[[1, 0]] - pos
    nbrs = Neighborhoods(
        indptr=np.array([0, 1, 2]),
        indices=np.array([1, 0]),
        row_index=np.array([0, 1]),
        offsets=off,
        distances=np.hypot(off[:, 0], off[:, 1]),
        kept=np.ones(2, dtype=bool),
        delta=100.0,
    )
    cloud = PointCloud(
        positions=pos,
        h=1.0,
        delta=100.0,
        interior=np.ones(2, dtype=bool),
        lattice_index=np.zeros((2, 2), dtype=np.int64),
    )
    return cloud, nbrs


@pytest.mark.parametrize(
    "p0,p1,expect_broken",
    [
        ((0.5, 0.0), (2.0, 0.0), True),  # endpoints on opposite sides
        ((-2.0, 0.5), (2.0, 0.5), True),  # both outside, chord dips through
        ((-2.0, 1.5), (2.0, 1.5), False),  # passes cleanly above
        ((-0.3, 0.0), (0.3, 0.0), False),  # both strictly inside stay bonded
        ((2.0, 0.0), (4.0, 0.0), False),  # colinear with center but outside
        ((-2.0, 1.0), (2.0, 1.0), False),  # grazing tangent does not break
    ],
)
def test_break_bonds_hand_cases(p0, p1, expect_broken):
    circle = Disk(center=(0.0, 0.0), radius=1.0)
    cloud, nbrs = _two_node_geometry(p0, p1)
    bonds = break_bonds_crossing_circle(BondSet.intact(nbrs), nbrs, cloud, circle)
    assert bonds.broken.tolist() == [expect_broken, expect_broken]


def _crossing_oracle(nbrs, cloud, circle):
    """The bond-breaking predicate evaluated on every pair."""
    pos = cloud.positions
    i, j = nbrs.row_index, nbrs.indices
    di = circle.signed_distance(pos[i])
    dj = circle.signed_distance(pos[j])
    straddle = (di < 0.0) != (dj < 0.0)
    center = np.asarray(circle.center)
    seg = nbrs.offsets
    rel = center - pos[i]
    t = np.clip(np.einsum("pc,pc->p", rel, seg) / nbrs.distances**2, 0.0, 1.0)
    nearest = pos[i] + t[:, None] * seg
    dip = (di > 0.0) & (dj > 0.0) & (np.hypot(*(nearest - center).T) < circle.radius)
    return straddle | dip


@given(
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45),
    delta_factor=st.floats(3.0, 5.0),
)
def test_break_bonds_matches_per_pair_predicate(seed, perturb, delta_factor):
    """Testing for double crossings only where di < |z| loses no bond."""
    cloud = generate_perturbed_lattice(
        24, delta_factor=delta_factor, perturb_frac=perturb, seed=seed
    )
    nbrs = build_neighborhoods(cloud)
    circle = Disk(center=(0.5, 0.5), radius=0.2)
    bonds = break_bonds_crossing_circle(BondSet.intact(nbrs), nbrs, cloud, circle)
    assert bonds.broken.any()
    np.testing.assert_array_equal(bonds.broken, _crossing_oracle(nbrs, cloud, circle))


def test_break_bonds_idempotent(perturbed12):
    cloud, nbrs, _ = perturbed12
    circle = Disk(center=(0.5, 0.5), radius=0.2)
    once = break_bonds_crossing_circle(BondSet.intact(nbrs), nbrs, cloud, circle)
    assert once.broken.any()
    twice = break_bonds_crossing_circle(once, nbrs, cloud, circle)
    np.testing.assert_array_equal(once.broken, twice.broken)


def test_hole_removal_mask_covers_strays():
    """Removal drops center-inside nodes and position-inside strays alike.

    Centers are ``(lattice_index + 1/2) h``; each position lies within
    ``h/2`` of its center per coordinate, as a jittered lattice's does.
    """
    circle = Disk(center=(0.0, 0.0), radius=1.0)
    h = 0.5
    index = np.array([[0, 0], [1, 0], [1, 1], [2, 0]])
    pos = np.array(
        [
            [0.2, 0.1],  # center (0.25, 0.25) and position inside
            [0.99, 0.3],  # center (0.75, 0.25) inside, position outside
            [0.6, 0.6],  # stray: center (0.75, 0.75) outside, position inside
            [1.3, 0.2],  # center (1.25, 0.25) and position outside
        ]
    )
    assert np.abs(pos - (index + 0.5) * h).max() < h / 2
    cloud = PointCloud(
        positions=pos,
        h=h,
        delta=3.5 * h,
        interior=np.ones(4, dtype=bool),
        lattice_index=index,
    )
    np.testing.assert_array_equal(
        hole_removal_mask(cloud, circle), [True, True, True, False]
    )


# ---------------------------------------------------------------------------
# damage


def test_damage_intact_and_uncomputed(perturbed12):
    cloud, nbrs, family = perturbed12
    weights = BondSet.intact(nbrs).modified_weights(family, nbrs)
    damage = damage_field(family, nbrs, weights)
    np.testing.assert_allclose(damage[family.computed], 0.0, atol=1e-15)
    assert np.isnan(damage[~family.computed]).all()


def test_damage_ratios(perturbed12):
    cloud, nbrs, family = perturbed12
    i = int(np.nonzero(cloud.interior)[0][10])
    sl = nbrs.pair_slice(i)

    broken = np.zeros(nbrs.n_pairs, dtype=bool)
    broken[sl] = True
    present = np.ones(cloud.n_points, bool)
    all_gone = damage_field(
        family, nbrs, BondSet(broken=broken, present=present).modified_weights(family, nbrs)
    )
    assert all_gone[i] == pytest.approx(1.0)

    # A single severed directed bond removes exactly its weight share,
    # and only on its own row.
    one = np.zeros(nbrs.n_pairs, dtype=bool)
    one[sl.start] = True
    partial = damage_field(
        family, nbrs, BondSet(broken=one, present=present).modified_weights(family, nbrs)
    )
    share = abs(family.weights[sl.start]) / np.abs(family.weights[sl]).sum()
    assert partial[i] == pytest.approx(share, rel=1e-12)
    j = int(nbrs.indices[sl.start])
    assert partial[j] == pytest.approx(0.0, abs=1e-15)

    ok = ~np.isnan(partial)
    assert ((partial[ok] >= 0.0) & (partial[ok] <= 1.0)).all()


# ---------------------------------------------------------------------------
# moment tensors and the corrected dilatation


@pytest.mark.parametrize("fixture_name", ["uniform16", "perturbed12"])
def test_moment_tensor_identity_on_intact_balls(fixture_name, request):
    """With every bond alive the weighted second moment is the identity.

    The weight family reproduces the kernel moments of the full ball
    exactly, so this holds on perturbed clouds too, not just uniform
    lattices.
    """
    cloud, nbrs, family = request.getfixturevalue(fixture_name)
    corr = _discretize(cloud, nbrs, family, BondSet.intact(nbrs)).correction
    dev = np.abs(corr.tensors[family.computed] - np.eye(2)).max()
    assert dev < 1e-12
    assert corr.invertible[family.computed].all()
    assert not corr.computed[~family.computed].any()


def test_corrected_dilatation_affine_exact_with_damage(perturbed12):
    """Randomly severing 30 percent of bonds leaves affine fields exact.

    The inverse moment tensor restores theta = tr(G) for u = G x + c by
    similarity invariance of the trace, whatever the surviving stencil.
    """
    cloud, nbrs, family = perturbed12
    rng = np.random.default_rng(11)
    bonds = BondSet(
        broken=rng.random(nbrs.n_pairs) < 0.3,
        present=np.ones(cloud.n_points, dtype=bool),
    )
    disc = _discretize(cloud, nbrs, family, bonds)
    assert disc.correction.invertible[family.computed].all()

    G = np.array([[0.3, -1.2], [0.7, 2.1]])
    u = cloud.positions @ G.T + np.array([0.4, -0.2])
    mat = MaterialField(lam=np.full(cloud.n_points, 0.5), mu=np.full(cloud.n_points, 0.5))
    _, theta = apply_operator(disc, mat, u)
    np.testing.assert_allclose(theta[family.computed], np.trace(G), atol=1e-12)


# ---------------------------------------------------------------------------
# operator application


def test_operator_reproduces_patch_forcing(perturbed12):
    """Quadratic displacement: momentum equals the constant forcing (3, 12)
    and the dilatation equals the local divergence 2x + 8y."""
    cloud, nbrs, family = perturbed12
    disc = _discretize(cloud, nbrs, family, BondSet.intact(nbrs))
    case = make_patch_case()
    mat = MaterialField.from_case(case, cloud)
    u = case.displacement(cloud.positions)
    mom, theta = apply_operator(disc, mat, u)

    f = case.forcing(cloud.positions)
    assert np.abs(mom[cloud.interior] - f[cloud.interior]).max() < 1e-11
    div = 2.0 * cloud.positions[:, 0] + 8.0 * cloud.positions[:, 1]
    assert np.abs(theta[family.computed] - div[family.computed]).max() < 1e-12
    assert np.isnan(mom[~cloud.interior]).all()
    assert np.isnan(theta[~family.computed]).all()


def test_operator_annihilates_constants(perturbed12):
    cloud, nbrs, family = perturbed12
    disc = _discretize(cloud, nbrs, family, BondSet.intact(nbrs))
    mat = MaterialField(lam=np.full(cloud.n_points, 0.5), mu=np.full(cloud.n_points, 0.5))
    u = np.tile([0.7, -1.3], (cloud.n_points, 1))
    mom, theta = apply_operator(disc, mat, u)
    np.testing.assert_allclose(mom[cloud.interior], 0.0, atol=1e-13)
    np.testing.assert_allclose(theta[family.computed], 0.0, atol=1e-13)


@given(
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45, exclude_max=True),
    delta_factor=st.floats(3.0, 5.0),
    n=st.integers(16, 24),
)
def test_hole_geometry_skips_removed_nodes(seed, perturb, delta_factor, n):
    """The geometry step gives removed hole nodes no weights, moment tensor
    or damage, so no moment tensor needs a pseudo-inverse, and the
    assembled dilatation unknowns are exactly the nodes with weights."""
    config = RunConfig(
        case="hole", n=n, delta_factor=delta_factor, perturb=perturb, seed=seed
    )
    disc = build_discretization(config, Disk(center=(0.5, 0.5), radius=0.2))
    removed = ~disc.bonds.present
    assert removed.any()
    assert not disc.family.computed[removed].any()
    assert np.isnan(disc.damage[removed]).all()
    corr = disc.correction
    assert not (corr.computed & ~corr.invertible).any()
    # No kept node loses all of its weight.
    damage = disc.damage[disc.cloud.interior & disc.bonds.present]
    assert np.all(np.isfinite(damage) & (damage < 1.0))
    ones, zeros = np.ones(disc.cloud.n_points), np.zeros((disc.cloud.n_points, 2))
    system = assemble_system(
        disc, MaterialField(lam=ones, mu=ones), dirichlet=zeros, forcing=zeros
    )
    np.testing.assert_array_equal(system.fronts.slots[:, 2] >= 0, disc.family.computed)


@given(
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45),
    delta_factor=st.floats(3.0, 5.0),
    n=st.integers(16, 24),
)
@example(seed=0, perturb=0.25, delta_factor=3.0, n=16)
def test_hole_damage_is_a_share(seed, perturb, delta_factor, n):
    """Damage lies in [0, 1] on every kept node of a hole cloud, also
    where lost bonds carry negative weight (the signed share gave -0.093
    at the example)."""
    config = RunConfig(case="hole", n=n, delta_factor=delta_factor, perturb=perturb, seed=seed)
    disc = build_discretization(config, Disk(center=(0.5, 0.5), radius=0.2))
    damage = disc.damage[disc.bonds.present & disc.family.computed]
    assert np.all((damage >= 0.0) & (damage <= 1.0))


@given(
    case=st.sampled_from(["hole", "inclusion", "smooth"]),
    n=st.integers(12, 20),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45, exclude_max=True),
    delta_factor=st.floats(3.0, 4.5),
)
# At this jitter the rule keeps two nodes whose centers lie beyond delta.
@example(case="hole", n=16, seed=3, perturb=0.45 - 1e-9, delta_factor=3.5)
def test_geometry_decides_each_fact_once(case, n, seed, perturb, delta_factor):
    """The geometry step's kept mask and row index are the brute-force
    search's bit for bit, its front tree's layout is the one stated node
    by node, and every material assembled on it reads that one tree:
    lam = mu and lam != mu, whose solves make both of the tree's plans."""
    config = RunConfig(case=case, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor)
    disc = build_discretization(config, _build_case(config)[1])
    i, j, keep = kept_pairs(disc.cloud)
    for name, want in (("kept", keep), ("row_index", i), ("indices", j)):
        np.testing.assert_array_equal(getattr(disc.nbrs, name), want, err_msg=name, strict=True)
    slots = disc.fronts.slots
    np.testing.assert_array_equal(slots, unknown_layout(disc), strict=True)

    pos = disc.cloud.positions
    u = np.column_stack([np.sin(3.0 * pos[:, 0]), np.cos(2.0 * pos[:, 1])])
    for lam in (1.0, 4.0):
        mat = MaterialField(lam=np.full(len(pos), lam), mu=np.ones(len(pos)))
        system = assemble_system(disc, mat, dirichlet=u, forcing=np.zeros_like(u))
        assert system.fronts is disc.fronts and system.n_unknowns == (slots >= 0).sum()
        fields = system.extract(solve(system).x)
        np.testing.assert_array_equal(np.isnan(fields), slots < 0)
    assert sorted(disc.fronts.plans) == [2, 3]


def _case_discretization(case, nu, nu1, n, seed, perturb, delta_factor):
    """The driver's geometry and material for a case; ``nu`` is the Poisson
    ratio of the hole and smooth cases and of the inclusion's outer phase,
    ``nu1`` that of its inner phase."""
    config = RunConfig(
        case=case, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor,
        **(dict(nu1=nu1, nu2=nu) if case == "inclusion" else dict(nu=nu)),
    )
    analytic_case, hole = _build_case(config)
    disc = build_discretization(config, hole)
    return analytic_case, disc, MaterialField.from_case(analytic_case, disc.cloud)


#: Poisson ratios of the property test's materials: lam = mu at 0.25, up
#: to lam / mu = 5,000 at 0.4999.
POISSON = [0.25, 0.3, 0.45, 0.495, 0.4999]


@given(
    case=st.sampled_from(["hole", "inclusion", "smooth-nearinc"]),
    nu=st.sampled_from(POISSON),
    nu1=st.sampled_from(POISSON),
    n=st.integers(16, 24),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45),
    delta_factor=st.floats(3.0, 5.0),
)
@example(case="hole", nu=0.25, nu1=0.25, n=24, seed=3, perturb=0.2, delta_factor=3.5)
@example(case="inclusion", nu=0.3, nu1=0.3, n=16, seed=0, perturb=0.0, delta_factor=3.0)
@example(case="inclusion", nu=0.4999, nu1=0.25, n=16, seed=1, perturb=0.3, delta_factor=3.5)
def test_assembly_property_matches_matrix_free_application(
    case, nu, nu1, n, seed, perturb, delta_factor
):
    """For any displacement w with consistent dilatation values, A x - b
    must equal the matrix-free momentum residual (and zero on the
    dilatation rows).  The geometry is the driver's, so collar data is
    folded in next to broken bonds and removed nodes.  Poisson ratio 0.25
    makes lam = mu, where the u-theta coupling vanishes: on every bond
    where it is the ratio of the whole material, and on the inner phase's
    bonds only for an inclusion with just ``nu1`` = 0.25."""
    analytic_case, disc, mat = _case_discretization(case, nu, nu1, n, seed, perturb, delta_factor)
    lam_equals_mu = nu == 0.25 and (case != "inclusion" or nu1 == 0.25)
    _check_assembly_matches_matrix_free(analytic_case, disc, mat, lam_equals_mu=lam_equals_mu)


@pytest.mark.parametrize("geometry", ["intact", "hole"])
def test_assembly_matches_matrix_free_application(geometry, perturbed12):
    """The same check on two fixed geometries: an intact perturbed cloud
    and the driver's hole geometry at n=24 seed 3, with broken bonds and
    removed nodes next to the collar.  nu = 0.25 gives lam = mu."""
    if geometry == "intact":
        cloud, nbrs, family = perturbed12
        disc = _discretize(cloud, nbrs, family, BondSet.intact(nbrs))
    else:
        hole = Disk(center=(0.5, 0.5), radius=0.2)
        disc = build_discretization(RunConfig(case="hole", n=24, seed=3), hole)
        assert disc.bonds.broken.any() and not disc.bonds.present.all()
    analytic_case = make_smooth_case(moduli_from_K_nu(1.0, 0.25), frequency=2.0)
    mat = MaterialField.from_case(analytic_case, disc.cloud)
    _check_assembly_matches_matrix_free(analytic_case, disc, mat, lam_equals_mu=True)


def _check_assembly_matches_matrix_free(analytic_case, disc, mat, lam_equals_mu):
    """Assert A x - b equals the matrix-free residual for a smooth w, that
    the u-theta coupling is empty exactly when lam = mu, and that the
    blocks hold nothing for unknowns a node does not carry."""
    pos = disc.cloud.positions
    w = np.column_stack([np.sin(3.0 * pos[:, 0]), np.cos(2.0 * pos[:, 1])])
    f = analytic_case.forcing(pos)

    system = assemble_system(disc, mat, dirichlet=w, forcing=f)
    mom, theta = apply_operator(disc, mat, w)

    slots = system.fronts.slots
    np.testing.assert_array_equal(slots, unknown_layout(disc))
    has = slots >= 0
    x = np.zeros(system.n_unknowns)
    x[slots[has]] = np.column_stack((w, theta))[has]

    residual = system.matrix @ x - system.rhs
    expected = np.zeros_like(residual)
    ids = np.nonzero(has[:, 0])[0]
    expected[slots[ids, :2]] = mom[ids] - f[ids]
    # Each momentum row sums bond terms of size lam or mu times |w|.
    scale = max(1.0, float(np.abs(mat.lam).max() + np.abs(mat.mu).max()))
    assert np.abs(residual - expected).max() < 1e-11 * scale
    n_u = 2 * ids.size
    coupled = np.abs(system.matrix[:n_u, n_u:]).sum()
    assert (coupled == 0.0) == lam_equals_mu
    # The blocks hold nothing in the rows and columns of unknowns a node
    # does not carry.
    absent = (slots[system.row_index][:, :, None] < 0) | (slots[system.indices][:, None, :] < 0)
    assert not system.blocks[absent].any()
    assert not system.diag[(slots[:, :, None] < 0) | (slots[:, None, :] < 0)].any()


@pytest.mark.parametrize("nu", [0.25, 0.495])
def test_block_product_matches_scalar_matrix(nu):
    """The solver's residual, computed from the blocks, is the scalar
    matrix's A x - b, in both the coupled and the uncoupled system."""
    analytic_case, disc, mat = _case_discretization("hole", nu, nu, 24, 3, 0.3, 3.5)
    pos = disc.cloud.positions
    system = assemble_system(
        disc, mat, dirichlet=analytic_case.displacement(pos), forcing=analytic_case.forcing(pos)
    )
    x = np.random.default_rng(4).standard_normal(system.n_unknowns)
    expected = system.matrix @ x - system.rhs
    np.testing.assert_allclose(
        system.apply(x) - system.rhs, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max()
    )


@pytest.mark.parametrize("nu", [0.25, 0.495])
def test_chunked_block_product_is_the_one_pass_product_bit_for_bit(nu):
    """``BlockSystem.apply`` forms the bond product over chunks of whole
    rows; on a cloud of several chunks every bit of it equals the product
    of one pass over all pairs."""
    analytic_case, disc, mat = _case_discretization("hole", nu, nu, 40, 3, 0.3, 3.5)
    pos = disc.cloud.positions
    system = assemble_system(
        disc, mat, dirichlet=analytic_case.displacement(pos), forcing=analytic_case.forcing(pos)
    )
    assert system.row_index.size > 4 * APPLY_CHUNK
    x = np.random.default_rng(5).standard_normal(system.n_unknowns)
    xs = system.extract(x, 0.0)
    bonds = np.einsum("pab,pb->pa", system.blocks, np.take(xs, system.indices, axis=0))
    y = np.einsum("iab,ib->ia", system.diag, xs)
    for a in range(3):
        y[:, a] += np.bincount(system.row_index, weights=bonds[:, a], minlength=xs.shape[0])
    slots = system.fronts.slots
    expected = np.empty(system.n_unknowns)
    expected[slots[slots >= 0]] = y[slots >= 0]
    np.testing.assert_array_equal(system.apply(x).view(np.int64), expected.view(np.int64))


#: How many per-bond float64 arrays the assembly may hold beside the
#: system it returns: three factors, one entry and the temporaries of
#: summing it.  Holding all eight entries at once needs about 12.6.
ASSEMBLY_SCRATCH_ARRAYS = 7.5


@pytest.mark.parametrize("config", [
    RunConfig(case="hole", n=32, nu=0.495, seed=7),
    RunConfig(case="inclusion", n=32, seed=7),
], ids=["hole", "inclusion"])
def test_assembly_holds_each_entry_alone(config):
    """The assembly's allocation peak exceeds the system it returns by at
    most ``ASSEMBLY_SCRATCH_ARRAYS`` per-bond arrays: each block entry is
    summed and written before the next is formed."""
    analytic_case, hole = _build_case(config)
    disc = build_discretization(config, hole)
    pos = disc.cloud.positions
    mat = MaterialField.from_case(analytic_case, disc.cloud)
    u, f = analytic_case.displacement(pos), analytic_case.forcing(pos)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = assemble_system(disc, mat, dirichlet=u, forcing=f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = system.blocks.nbytes + system.diag.nbytes + system.rhs.nbytes
    scratch = (peak - before - returned) / (8 * disc.nbrs.n_pairs)
    assert scratch <= ASSEMBLY_SCRATCH_ARRAYS, scratch


def test_ill_conditioned_moment_tensor_is_rejected(uniform16):
    """A node whose surviving bonds all lie on one line has a singular
    moment tensor: a typed error, not a pseudo-inverse."""
    cloud, nbrs, family = uniform16
    node = int(np.flatnonzero(cloud.interior)[0])
    off_line = np.abs(nbrs.offsets[:, 1]) > 0.5 * cloud.h
    bonds = BondSet(
        broken=(nbrs.row_index == node) & off_line,
        present=np.ones(cloud.n_points, dtype=bool),
    )
    with pytest.raises(AssemblyError, match="ill-conditioned"):
        compute_moment_tensors(nbrs, family, bonds.modified_weights(family, nbrs))


def test_assembly_stores_no_zeros_when_lam_equals_mu(perturbed12):
    """With lam = mu everywhere every u-theta coupling is exactly zero,
    and none of those zeros may be stored in the matrix."""
    cloud, nbrs, family = perturbed12
    disc = _discretize(cloud, nbrs, family, BondSet.intact(nbrs))
    mat = MaterialField(lam=np.full(cloud.n_points, 0.5), mu=np.full(cloud.n_points, 0.5))
    u = np.zeros((cloud.n_points, 2))
    system = assemble_system(disc, mat, dirichlet=u, forcing=u)
    assert system.matrix.nnz == system.matrix.count_nonzero()


def test_block_system_roundtrip(perturbed12):
    cloud, nbrs, family = perturbed12
    disc = _discretize(cloud, nbrs, family, BondSet.intact(nbrs))
    case = make_patch_case()
    mat = MaterialField.from_case(case, cloud)
    u = case.displacement(cloud.positions)
    system = assemble_system(disc, mat, dirichlet=u, forcing=case.forcing(cloud.positions))
    slots = unknown_layout(disc)
    np.testing.assert_array_equal(system.fronts.slots, slots)
    assert system.n_unknowns == (slots >= 0).sum() == 2 * cloud.n_interior + family.computed.sum()
    # The bonds are the neighbor lists' own arrays, not copies.
    assert system.row_index is nbrs.row_index and system.indices is nbrs.indices

    x = np.arange(system.n_unknowns, dtype=float)
    back = system.extract(x)
    has = slots >= 0
    np.testing.assert_array_equal(back[has], x[slots[has]])
    assert np.isnan(back[~has]).all()


def test_assembly_rejects_missing_weights(perturbed12):
    """Weights restricted to the square interior cannot serve the collar
    dilatation rows."""
    cloud, nbrs, family = perturbed12
    small_family = compute_family(cloud, nbrs, needed=cloud.interior)
    disc = _discretize(cloud, nbrs, small_family, BondSet.intact(nbrs))
    case = make_patch_case()
    mat = MaterialField.from_case(case, cloud)
    u = case.displacement(cloud.positions)
    with pytest.raises(AssemblyError):
        assemble_system(disc, mat, dirichlet=u, forcing=case.forcing(cloud.positions))

