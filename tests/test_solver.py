"""Solve-path tests: norm definition, failure modes, certificates, the
dissection tree and both solve paths."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given
from hypothesis import strategies as st

from perilps import solver
from perilps.analytic import make_patch_case, moduli_from_E_nu
from perilps.driver import RunConfig, _build_case, _run_physics, build_discretization, run_case
from perilps.errors import SolveError
from perilps.model import BlockSystem, FrontTree, MaterialField, assemble_system, dissection_order
from perilps.solver import RESIDUAL_CERT, rms_norm, solve

from oracles import divergence_free_case


def test_rms_norm_vector_field():
    assert rms_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert rms_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(12.5))


def test_rms_norm_scalar_field():
    assert rms_norm(np.array([1.0, 2.0, 2.0])) == pytest.approx(np.sqrt(3.0))
    assert rms_norm(np.zeros(5)) == 0.0


def _toy_system(dense, u_index, theta_index, part_end=None, part_parent=None):
    """A hand-built system over the scalar unknowns of ``dense``, in the
    ``FrontTree.slots`` layout of the nodes' displacement and dilatation
    numbers ``u_index`` and ``theta_index`` (-1 where absent); by default
    one part holds every node.  Every two nodes are neighbors, and a
    pair whose block holds an entry of ``dense`` couples them."""
    u_index, theta_index = np.asarray(u_index), np.asarray(theta_index)
    n, n_u = u_index.size, int((u_index >= 0).sum())
    slots = np.column_stack((2 * u_index, 2 * u_index + 1, 2 * n_u + theta_index))
    slots[u_index < 0, :2] = -1
    slots[theta_index < 0, 2] = -1

    def block(i, j):
        out = np.zeros((3, 3))
        a, b = slots[i] >= 0, slots[j] >= 0
        out[np.ix_(a, b)] = dense[np.ix_(slots[i][a], slots[j][b])]
        return out

    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    blocks = np.array([block(i, j) for i, j in zip(rows, cols)]).reshape(-1, 3, 3)
    fronts = FrontTree(
        order=np.arange(n),
        part_end=np.array([n] if part_end is None else part_end),
        part_parent=np.array([-1] if part_parent is None else part_parent),
        pairs=np.flatnonzero(blocks.any(axis=(1, 2))),
        slots=slots,
    )
    return BlockSystem(
        row_index=rows,
        indices=cols,
        blocks=blocks,
        diag=np.array([block(i, i) for i in range(n)]),
        rhs=np.ones(dense.shape[0]),
        fronts=fronts,
    )


def test_toy_system_holds_the_dense_matrix():
    dense = np.arange(1.0, 10.0).reshape(3, 3)
    system = _toy_system(dense, u_index=[0, -1], theta_index=[-1, 0])
    np.testing.assert_array_equal(system.matrix.toarray(), dense)


def test_zero_row_is_rejected_up_front():
    dense = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(SolveError, match="empty row"):
        solve(_toy_system(dense, u_index=[0, -1], theta_index=[-1, 0]))


def test_singular_matrix_is_rejected():
    dense = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolveError):
        solve(_toy_system(dense, u_index=[0], theta_index=[-1]))


def test_singular_pivot_block_is_rejected():
    """Pivoting stays inside each front's pivot block, so a singular leaf
    block (node 0's displacements) fails even though the whole matrix
    (determinant -1) is regular."""
    dense = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    system = _toy_system(dense, [0, -1], [-1, 0], part_end=[1, 2], part_parent=[1, -1])
    with pytest.raises(SolveError, match="singular"):
        solve(system)


def test_entry_joining_sibling_parts_is_rejected():
    """Nodes 0 and 1 are two leaves under the separator node 2; the entry
    coupling them means the tree is no dissection of the matrix."""
    nodes = np.array([[2.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    tree = dict(part_end=[1, 2, 3], part_parent=[2, 2, -1])
    with pytest.raises(SolveError, match="sibling"):
        solve(_toy_system(np.kron(nodes, np.eye(2)), [0, 1, 2], [-1, -1, -1], **tree))
    nodes[0, 1] = 0.0
    dense = np.kron(nodes, np.eye(2))
    report = solve(_toy_system(dense, [0, 1, 2], [-1, -1, -1], **tree))
    np.testing.assert_allclose(dense @ report.x, np.ones(6), atol=1e-15)


@pytest.fixture(scope="module")
def patch_system():
    disc = build_discretization(RunConfig(case="patch", n=12, seed=3))
    cloud = disc.cloud
    case = make_patch_case()
    u_true = case.displacement(cloud.positions)
    system = assemble_system(
        disc,
        MaterialField.from_case(case, cloud),
        dirichlet=u_true,
        forcing=case.forcing(cloud.positions),
    )
    return cloud, system, u_true


def test_direct_solve_is_certified(patch_system):
    _, system, _ = patch_system
    report = solve(system)
    assert report.residual <= 1e-10
    # The certificate is recomputed from the original operator.
    manual = np.linalg.norm(system.matrix @ report.x - system.rhs) / np.linalg.norm(
        system.rhs
    )
    assert report.residual == pytest.approx(manual, rel=1e-12)


def test_patch_system_reproduces_quadratic_displacement(patch_system):
    """Collar data from the quadratic field drives the interior solution
    back to that same field to round-off."""
    cloud, system, u_true = patch_system
    u = system.extract(solve(system).x)[:, :2]
    interior = cloud.interior
    assert np.abs(u[interior] - u_true[interior]).max() < 1e-12


def _case_system(config, disc=None):
    """The driver's discretization and block system for ``config``; the
    discretization is built unless one is given."""
    case, hole = _build_case(config)
    disc = build_discretization(config, hole) if disc is None else disc
    pos = disc.cloud.positions
    system = assemble_system(
        disc,
        MaterialField.from_case(case, disc.cloud),
        dirichlet=case.displacement(pos),
        forcing=case.forcing(pos),
    )
    return disc, system


def _factored_sizes(monkeypatch):
    """Record the unknown count of every system the solver factors."""
    sizes = []
    factor = solver._multifrontal

    def spy(system, kinds, y):
        sizes.append(y.size)
        return factor(system, kinds, y)

    monkeypatch.setattr(solver, "_multifrontal", spy)
    return sizes


#: Where SuperLU pivoting on the diagonal with threshold 0 left a residual
#: of 5.8e-12 (the default LU: 3.3e-15); pivoting inside each front's
#: pivot block must keep it at round-off.
PIVOT_CORNER = dict(case="hole", nu=0.495, n=24, seed=2, perturb=0.45, delta_factor=3.0)


#: Poisson ratios of the property tests' materials: lam = mu at 0.25, up
#: to lam / mu = 5,000 at 0.4999.
POISSON = [0.25, 0.3, 0.45, 0.495, 0.4999]


def _check_plan(system, kinds, plan):
    """The plan's fronts for the first ``kinds`` of each node's unknowns
    against the tree they expand.

    The fronts' pivots tile the unknowns in elimination order, and each
    front lists its pivots, then later unknowns only.  Every entry of its
    nodes' diagonal blocks and of its pairs' blocks lands on the front's
    row and column of its two unknowns, or on a dummy where a node does
    not carry one.  The update a front reads at a stack offset is that of
    the front that last wrote there, and it lands on the same unknowns in
    this front.  The fronts take every pair of the tree once, and no
    other pair's block holds an entry."""
    tree = system.fronts
    solved = tree.slots[:, :kinds] >= 0
    # The elimination index of each node's unknowns, -1 where absent.
    elim = np.full(solved.shape, -1)
    ordered = solved[tree.order]
    elim[tree.order] = np.where(ordered, np.cumsum(ordered).reshape(ordered.shape) - 1, -1)
    written, pivots, taken = {}, [], []
    for k, m, p, nb, piv, diag_at, pairs, pair_at, y_at, bnd, at, by_inverse, children in plan.fronts:
        unknowns = np.r_[y_at.start : y_at.stop, bnd]
        assert unknowns.size == m and y_at.stop - y_at.start == p
        assert by_inverse == (kinds == 2 and 0 < solver.INVERSE_SHAPE * p <= nb)
        sizes = [c_nb for _, c_nb, _, _ in children]
        assert sizes == sorted(sizes, reverse=True)
        assert np.all(np.diff(unknowns) > 0)
        pivots.append(unknowns[:p])
        taken.append(pairs)
        nodes = tree.order[piv]
        for index, i, j in (
            (diag_at, nodes, nodes),
            (pair_at, system.row_index[pairs], system.indices[pairs]),
        ):
            index = index.reshape(-1, kinds, kinds)
            upper, lower = index < p * (m + 2), index - p * (m + 2)
            row = np.where(upper, index % max(p, 1), p + lower % max(nb, 1))
            col = np.where(upper, index // max(p, 1), lower // max(nb, 1))
            rows = np.broadcast_to(elim[i][:, :, None], index.shape)
            cols = np.broadcast_to(elim[j][:, None, :], index.shape)
            carried = (rows >= 0) & (cols >= 0)
            np.testing.assert_array_equal((index == m * (m + 2)) | (col == m + 1), ~carried)
            np.testing.assert_array_equal(unknowns[row[carried]], rows[carried])
            np.testing.assert_array_equal(unknowns[col[carried]], cols[carried])
        for c_at, c_nb, to_column, spans in children:
            child = written.pop(c_at)
            assert child.size == c_nb
            np.testing.assert_array_equal(unknowns[to_column], child)
            for a0, a1, in_upper, row0 in spans:
                row0 += 0 if in_upper else p
                np.testing.assert_array_equal(unknowns[row0 : row0 + a1 - a0], child[a0:a1])
        if nb:
            written[at] = bnd
    np.testing.assert_array_equal(np.sort(np.concatenate(pivots)), np.arange(solved.sum()))
    taken = np.concatenate(taken)
    np.testing.assert_array_equal(np.sort(taken), tree.pairs)
    assert not np.delete(system.blocks, taken, axis=0).any()


@given(
    case=st.sampled_from(["hole", "smooth-nearinc", "inclusion"]),
    nu=st.sampled_from(POISSON),
    nu1=st.sampled_from(POISSON),
    n=st.integers(16, 24),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45),
    delta_factor=st.floats(3.0, 5.0),
)
@example(**PIVOT_CORNER, nu1=0.25)
@example(case="inclusion", nu=0.4999, nu1=0.25, n=16, seed=1, perturb=0.3, delta_factor=3.5)
def test_dissection_solve_matches_default_lu(case, nu, nu1, n, seed, perturb, delta_factor):
    """The node order is a bijection, the parts tile it in postorder, no
    bond joins the two sides of any separator, the solver's plan expands
    that tree faithfully (``_check_plan``), and the multifrontal solve
    over it agrees with SuperLU's default (COLAMD, partial pivoting)
    solve.  ``nu`` is the Poisson ratio of the hole and smooth
    cases and of the inclusion's outer phase, ``nu1`` that of its inner
    phase, so an inclusion may mix lam = mu bonds with lam != mu ones."""
    config = RunConfig(
        case=case, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor,
        **(dict(nu1=nu1, nu2=nu) if case == "inclusion" else dict(nu=nu)),
    )
    disc, system = _case_system(config)
    n_points = disc.cloud.n_points
    tree = disc.fronts
    np.testing.assert_array_equal(np.sort(tree.order), np.arange(n_points))

    order, part_end, part_parent = dissection_order(disc.cloud.positions, disc.cloud.delta)
    np.testing.assert_array_equal(order, tree.order)
    assert part_end[-1] == n_points and np.all(np.diff(part_end) >= 0)
    assert part_parent[-1] == -1
    # Postorder: the subtrees of a separator's two sides tile the order
    # just before it.  A subtree starts where its first leaf does.
    start = np.r_[0, part_end[:-1]]
    first = start.copy()
    cuts = []
    for k in range(len(part_end)):
        kids = np.flatnonzero(part_parent == k)
        if kids.size:
            left, right = kids
            assert part_end[left] == first[right] and part_end[right] == start[k]
            first[k] = first[left]
            cuts.append((first[left], part_end[left], part_end[right]))
    assert len(cuts) > 0
    # Every pair within the horizon, so every live bond among them.
    i, j = disc.nbrs.row_index, disc.nbrs.indices
    for lo, mid, hi in cuts:
        side = np.zeros(n_points, dtype=np.int8)
        side[order[lo:mid]] = 1
        side[order[mid:hi]] = 2
        assert not np.any((side[i] == 1) & (side[j] == 2))

    report = solve(system)
    assert system.fronts is tree and tree.plans
    for kinds, plan in tree.plans.items():
        _check_plan(system, kinds, plan)
    reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert np.linalg.norm(report.x - reference) <= 1e-10 * np.linalg.norm(reference)
    assert report.residual <= RESIDUAL_CERT
    if dict(case=case, nu=nu, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor) == PIVOT_CORNER:
        assert report.residual <= 1e-12


#: A two-kind geometry some of whose fronts have no pivots.
PIVOTLESS = dict(case="patch", n=24, seed=7, perturb=0.2, delta_factor=3.5)


def _replay_stack(plan, part_parent):
    """The deepest the pending updates reach when ``plan``'s fronts are
    taken in order, replayed from the tree apart from the plan's offsets.

    The updates that wait for their parents lie packed on the stack in the
    order they were pushed.  Each front takes its children's updates,
    which must be the top of the stack, then pushes its own where the
    first of them began.  Asserts that the plan places every update where
    the replay does and lists a front's children largest first, that each
    front reads each child's update at the offset where the child wrote
    it, and that no two pending updates overlap."""
    pending, deepest = {}, 0
    for k, m, p, nb, *_, at, _, children in plan.fronts:
        kids = [c for c in pending if part_parent[c] == k]
        assert list(pending)[len(pending) - len(kids) :] == kids
        largest_first = sorted(kids, key=lambda c: -pending[c][1])
        assert [(c_at, c_nb) for c_at, c_nb, *_ in children] == [pending[c][:2] for c in largest_first]
        for c in kids:
            del pending[c]
        if nb:
            assert at == sum(size for *_, size in pending.values())
            pending[k] = at, nb, nb * (nb + 1) if p else nb * m
        spans = sorted((start, start + size) for start, _, size in pending.values())
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        deepest = max(deepest, spans[-1][1] if spans else 0)
    return deepest


@given(
    case=st.sampled_from(["patch", "smooth", "hole"]),
    n=st.integers(16, 24),
    seed=st.integers(0, 2**32 - 1),
    perturb=st.floats(0.0, 0.45),
    delta_factor=st.floats(3.0, 5.0),
)
@example(**PIVOTLESS)
@example(case="hole", n=24, seed=7, perturb=0.2, delta_factor=3.5)
def test_front_workspace_and_update_stack_fit_the_fronts(case, n, seed, perturb, delta_factor):
    """The plan's ``work`` is the largest front buffer, and its update
    offsets and ``stack`` are those of an independent replay of the
    postorder (``_replay_stack``).  Patch and smooth solve the
    displacements alone (two kinds) and the hole at nu = 0.495 all three.
    A front may have no pivots and push its whole front; ``PIVOTLESS`` has
    some, while some geometries of either kind have none (patch n = 18 at
    zero jitter and delta / h = 4.75) and others of three kinds have some
    (hole n = 16, jitter 0.25, delta / h = 4.25).  The solve over those
    two arrays agrees with SuperLU, and one entry less of stack fails
    loudly."""
    config = RunConfig(
        case=case, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor,
        **(dict(nu=0.495) if case == "hole" else {}),
    )
    _, system = _case_system(config)
    report = solve(system)
    reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
    assert np.linalg.norm(report.x - reference) <= 1e-10 * np.linalg.norm(reference)

    [(kinds, plan)] = system.fronts.plans.items()
    assert kinds == (3 if case == "hole" else 2)
    assert plan.work == max(m * (m + 2) + 1 for _, m, *_ in plan.fronts)
    assert plan.stack == _replay_stack(plan, system.fronts.part_parent)
    if dict(case=case, n=n, seed=seed, perturb=perturb, delta_factor=delta_factor) == PIVOTLESS:
        assert any(p == 0 for _, _, p, *_ in plan.fronts)

    system.fronts.plans[kinds] = replace(plan, stack=plan.stack - 1)
    with pytest.raises(ValueError):
        solve(system)


def test_uncoupled_system_factors_the_displacement_block_alone(monkeypatch):
    """With lam = mu no momentum row has a dilatation column: only the
    2 n_u displacement unknowns are factored, and the dilatations then
    satisfy their own rows to round-off."""
    _, system = _case_system(RunConfig(case="smooth", n=24))
    n_u = int((system.fronts.slots[:, :2] >= 0).sum())
    assert system.matrix[:n_u, n_u:].nnz == 0
    sizes = _factored_sizes(monkeypatch)
    report = solve(system)
    assert sizes == [n_u]
    theta_rows = system.matrix[n_u:] @ report.x - system.rhs[n_u:]
    assert np.abs(theta_rows).max() <= 1e-14 * np.abs(report.x).max()


def test_coupled_system_factors_all_unknowns(monkeypatch):
    _, system = _case_system(RunConfig(case="hole", n=24, nu=0.495))
    n_u = int((system.fronts.slots[:, :2] >= 0).sum())
    assert system.matrix[:n_u, n_u:].nnz > 0
    sizes = _factored_sizes(monkeypatch)
    report = solve(system)
    assert sizes == [system.n_unknowns]
    assert report.residual <= RESIDUAL_CERT


@pytest.mark.parametrize("nu", [0.495, 0.4999])
def test_coupled_solve_never_inverts_a_pivot_block(nu, monkeypatch):
    """The coupled (u, theta) solve forms every [X | w] by dgetrs: near
    nu = 1/2 the inverse of a pivot block raised the residual of the hole
    at n = 64 from 1.25e-13 to 5.2e-11.  It certifies without refinement."""

    def no_inverse(*args, **kwargs):
        raise AssertionError("dgetri called on the coupled solve")

    monkeypatch.setattr(solver, "dgetri", no_inverse)
    _, system = _case_system(RunConfig(case="hole", n=24, nu=nu))
    report = solve(system)
    [kinds] = system.fronts.plans
    assert kinds == 3
    assert report.refinement_steps == 0 and report.residual <= RESIDUAL_CERT


#: The contrast sweep's ratios mu2 / mu1 and two beyond them.
CONTRASTS = [1e-3, 1 / 64, 1 / 8, 1.0, 8.0, 64.0, 1e3]


def test_uncoupled_solve_takes_both_paths_to_x():
    """On the inclusion of every contrast the uncoupled solve forms [X | w]
    by the inverse on the fronts whose boundary is at least
    ``INVERSE_SHAPE`` times their pivots, and by dgetrs on the others, the
    root among them.  Each solution agrees with SuperLU's without
    refinement."""
    base = RunConfig(case="inclusion", n=24)
    disc, _ = _case_system(base)
    for ratio in CONTRASTS:
        _, system = _case_system(replace(base, k2=2.0 * ratio), disc)
        report = solve(system)
        reference = spla.splu(system.matrix.tocsc()).solve(system.rhs)
        assert np.linalg.norm(report.x - reference) <= 1e-10 * np.linalg.norm(reference)
        assert report.refinement_steps == 0 and report.residual <= RESIDUAL_CERT
    [(kinds, plan)] = disc.fronts.plans.items()
    assert kinds == 2
    paths = {by_inverse for _, _, p, _, *_, by_inverse, _ in plan.fronts if p}
    assert paths == {True, False}


def test_solves_on_one_geometry_match_solves_on_fresh_ones():
    """The fronts' plans are made once per geometry and set of unknowns:
    coupled, uncoupled and coupled again on one discretization, each
    solution is bit for bit that of the same system on a fresh one."""
    base = RunConfig(case="hole", n=24, seed=5)
    shared, _ = _case_system(base)
    for nu in (0.495, 0.25, 0.495):
        config = replace(base, nu=nu)
        x = solve(_case_system(config, shared)[1]).x
        np.testing.assert_array_equal(x, solve(_case_system(config)[1]).x)
    assert sorted(shared.fronts.plans) == [2, 3]


def test_dissection_order_fills_less_than_default_lu():
    """The reported LU fill of the near-incompressible hole is below that
    of SuperLU's default ordering (1.36M against 1.63M at seed 7)."""
    _, system = _case_system(RunConfig(case="hole", n=32, nu=0.495))
    report = solve(system)
    assert report.lu_nnz < spla.splu(system.matrix.tocsc()).nnz


@pytest.mark.parametrize("nu", [0.495, 0.4999, 0.49999, 0.499999])
def test_near_incompressible_hole_is_certified(nu):
    """The hole at n = 64 solves within the unchanged certificate up to
    lambda / mu = 5e5; at nu = 0.499999 the first pass alone missed it
    and one refinement step mended it, at nu = 0.495 none was taken."""
    report = run_case(RunConfig(case="hole", n=64, nu=nu)).solve_report
    assert report.residual <= RESIDUAL_CERT
    steps = {0.495: 0, 0.499999: 1}
    if nu in steps:
        assert report.refinement_steps == steps[nu]


@pytest.mark.parametrize("n", [24, 48])
def test_divergence_free_field_is_certified_towards_incompressibility(n):
    """The divergence-free field, whose forcing stays bounded as lambda
    grows, solves within the unchanged certificate on one geometry from
    nu = 0.25 to lambda / mu = 5e5.  Its errors are not bounded here: they
    leave their plateau past lambda / mu = 5e3, which is the finding this
    oracle records."""
    config = RunConfig(case="smooth", n=n, seed=7)
    disc = build_discretization(config)
    for nu in (0.25, 0.4999, 0.49999, 0.499999):
        result = _run_physics(config, divergence_free_case(moduli_from_E_nu(1.0, nu)), disc)
        assert result.solve_report.residual <= RESIDUAL_CERT, nu
        assert np.isfinite(result.rms_error), nu


def test_refinement_step_mends_an_inexact_first_solve(monkeypatch, patch_system):
    """A first solution off by a relative 1e-8 misses the certificate; one
    refinement step through the same fronts brings it back to round-off."""
    _, system, _ = patch_system
    calls = []
    factor = solver._multifrontal

    def spy(system, solved, y):
        y, lu_nnz = factor(system, solved, y)
        calls.append(y.size)
        return (y * (1.0 + 1e-8) if len(calls) == 1 else y), lu_nnz

    monkeypatch.setattr(solver, "_multifrontal", spy)
    report = solve(system)
    assert len(calls) == 2
    assert report.residual <= 1e-13
    assert report.refinement_steps == 1

