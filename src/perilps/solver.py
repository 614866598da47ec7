"""Linear solve with a residual certificate, plus the error norm.

The block systems are nonsymmetric and moderately conditioned (the
near-incompressible cases push the dilatation coupling hard), so they
are solved by a sparse LU factorization (SuperLU).  The factor takes
the unknowns in the system's own order, a geometric nested dissection
that keeps each node's (ux, uy, theta) together, and pivots on the
diagonal unless a diagonal entry falls below ``DIAG_PIVOT_THRESH`` of
its column.

Where no momentum row has a dilatation column (lambda = mu on every
live bond), the displacement block is factored alone and the
dilatations follow from their own rows, which hold an identity
diagonal and displacement columns only.  Either way the relative
residual of the solution is recomputed from the full matrix and
right-hand side and must pass a fixed certificate before the solution
is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolveError
from .model import BlockSystem

__all__ = ["SolveReport", "solve", "rms_norm"]

#: Acceptable relative residual |A x - b| / |b| of a certified solution.
RESIDUAL_CERT = 1e-10

#: A diagonal entry stays the pivot unless it is below this fraction of
#: the largest entry of its column.
DIAG_PIVOT_THRESH = 1e-3


@dataclass
class SolveReport:
    """The certified solution, its residual, and the LU fill: the stored
    entries of both factors, ``L.nnz + U.nnz``."""

    x: np.ndarray
    residual: float
    lu_nnz: int


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by sparse LU and certify the residual.

    Raises
    ------
    SolveError
        On an empty row, a failed factorization, or a residual above
        the certificate threshold.
    """
    A = system.matrix.tocsc()
    b = system.rhs

    zero_rows = np.flatnonzero(np.abs(A).sum(axis=1).A1 == 0.0)
    if zero_rows.size:
        raise SolveError(f"matrix has an empty row (first: {zero_rows[0]})")

    n_u = 2 * system.n_u_points
    coupled = A[:n_u, n_u:].nnz > 0
    order = system.order if coupled else system.order[system.order < n_u]
    block = A if coupled else A[:n_u, :n_u]
    try:
        lu = spla.splu(
            block[order][:, order],
            permc_spec="NATURAL",
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SolveError(f"sparse LU factorization failed: {exc}") from exc
    x = np.empty_like(b)
    x[order] = lu.solve(b[order])
    if not coupled:
        x[n_u:] = b[n_u:] - A[n_u:, :n_u] @ x[:n_u]

    bn = np.linalg.norm(b)
    residual = float(np.linalg.norm(A @ x - b) / (bn if bn > 0.0 else 1.0))
    if not np.isfinite(residual) or residual > RESIDUAL_CERT:
        raise SolveError(
            f"solution residual {residual:.3e} violates the certificate "
            f"({RESIDUAL_CERT:g}); the system is singular or badly scaled"
        )
    # lu.nnz is L.nnz + U.nnz, read without copying the factors out.
    return SolveReport(x=x, residual=residual, lu_nnz=lu.nnz)


def rms_norm(values: np.ndarray) -> float:
    """Root mean square of per-node magnitudes.

    ``values`` is (N,) or (N, d); rows are nodes.  The norm divides by
    the number of nodes, so fields sampled on different clouds compare
    on equal footing.
    """
    v = np.asarray(values)
    if v.ndim == 1:
        sq = v**2
    else:
        sq = np.sum(v**2, axis=1)
    return float(np.sqrt(np.mean(sq)))
