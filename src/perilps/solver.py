"""Linear solve with a residual certificate, plus the error norm.

The block systems are nonsymmetric and moderately conditioned (the
near-incompressible cases push the dilatation coupling hard), so they
are solved by a sparse LU factorization (SuperLU).  The relative
residual of the solution is then recomputed from the original matrix
and right-hand side and must pass a fixed certificate before the
solution is accepted.
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


@dataclass
class SolveReport:
    x: np.ndarray
    residual: float


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

    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise SolveError(f"sparse LU factorization failed: {exc}") from exc
    x = lu.solve(b)

    bn = np.linalg.norm(b)
    residual = float(np.linalg.norm(A @ x - b) / (bn if bn > 0.0 else 1.0))
    if not np.isfinite(residual) or residual > RESIDUAL_CERT:
        raise SolveError(
            f"solution residual {residual:.3e} violates the certificate "
            f"({RESIDUAL_CERT:g}); the system is singular or badly scaled"
        )
    return SolveReport(x=x, residual=residual)


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
