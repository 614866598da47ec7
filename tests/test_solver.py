"""Solve-path tests: norm definition, failure modes, certificates."""

import numpy as np
import pytest
import scipy.sparse as sp

from perilps import (
    MaterialField,
    RunConfig,
    SolveError,
    assemble_system,
    build_discretization,
    make_patch_case,
    rms_norm,
    solve,
)
from perilps.model import BlockSystem


def test_rms_norm_vector_field():
    assert rms_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    assert rms_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(12.5))


def test_rms_norm_scalar_field():
    assert rms_norm(np.array([1.0, 2.0, 2.0])) == pytest.approx(np.sqrt(3.0))
    assert rms_norm(np.zeros(5)) == 0.0


def _toy_system(dense, n_u_points, n_theta):
    n = dense.shape[0]
    return BlockSystem(
        matrix=sp.csr_matrix(dense),
        rhs=np.ones(n),
        u_index=np.array([0, -1]),
        theta_index=np.array([-1, 0]),
        n_u_points=n_u_points,
        n_theta=n_theta,
    )


def test_zero_row_is_rejected_up_front():
    dense = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(SolveError, match="empty row"):
        solve(_toy_system(dense, n_u_points=1, n_theta=1))


def test_singular_matrix_is_rejected():
    dense = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolveError):
        solve(_toy_system(dense, n_u_points=1, n_theta=0))


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
    u = system.extract_u(solve(system).x)
    interior = cloud.interior
    assert np.abs(u[interior] - u_true[interior]).max() < 1e-12
