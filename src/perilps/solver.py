"""Linear solve with a residual certificate, plus the error norm.

The block systems are nonsymmetric and moderately conditioned (the
near-incompressible cases push the dilatation coupling hard).  They are
solved by a multifrontal LU over the system's geometric nested-dissection
tree: each part of the tree (a leaf or a separator) is one dense front
over its own unknowns (the pivots) and the later unknowns its entries
and its children's updates reach (its boundary).  The pivot block is
factored by LAPACK with partial pivoting inside it, and the Schur
complement of the boundary is added into the parent's front.  The system
has one right-hand side, so it rides as one more column of each front:
the forward substitution runs during the factorization and each front
keeps only ``[X | w] = F11^-1 [F12 | y_p]`` for the back substitution.

Where no momentum row has a dilatation column (lambda = mu on every
live bond), the displacement block is solved alone over the same tree
and the dilatations follow from their own rows, which hold an identity
diagonal and displacement columns only.  Either way the relative
residual of the solution is recomputed from the full matrix and
right-hand side and must pass a fixed certificate before the solution
is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The front loop calls scipy's BLAS and LAPACK only, never numpy's matmul:
# the two load separate OpenBLAS thread pools, and alternating between
# them inside the loop made the dense kernels several times slower.
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import SolveError
from .model import BlockSystem

__all__ = ["SolveReport", "solve", "rms_norm"]

#: Acceptable relative residual |A x - b| / |b| of a certified solution.
RESIDUAL_CERT = 1e-10


@dataclass
class SolveReport:
    """The certified solution, its residual, and the LU fill: the entries
    of the dense fronts' factors, sum of ``p**2 + 2 p nb`` over fronts of
    ``p`` pivots and ``nb`` boundary unknowns."""

    x: np.ndarray
    residual: float
    lu_nnz: int


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by multifrontal LU and certify the residual.

    Raises
    ------
    SolveError
        On an empty row, a singular pivot block, an entry joining two
        sibling parts of the tree, or a residual above the certificate
        threshold.
    """
    A = system.matrix.tocsc()
    b = system.rhs

    live = np.zeros(A.shape[0], dtype=bool)
    live[A.indices[A.data != 0.0]] = True
    if not live.all():
        raise SolveError(f"matrix has an empty row (first: {np.argmin(live)})")

    n_u = 2 * system.n_u_points
    coupled = np.any(A.indices[A.indptr[n_u]:] < n_u)
    order, part_end = system.order, system.part_end
    if not coupled:
        keep = order < n_u
        order, part_end = order[keep], np.cumsum(np.r_[0, keep])[part_end]
    x = np.zeros_like(b)
    x[order], lu_nnz = _multifrontal(A, b, order, part_end, system.part_parent)
    if not coupled:
        x[n_u:] = b[n_u:] - (A @ x)[n_u:]

    bn = np.linalg.norm(b)
    residual = float(np.linalg.norm(A @ x - b) / (bn if bn > 0.0 else 1.0))
    if not np.isfinite(residual) or residual > RESIDUAL_CERT:
        raise SolveError(
            f"solution residual {residual:.3e} violates the certificate "
            f"({RESIDUAL_CERT:g}); the system is singular or badly scaled"
        )
    return SolveReport(x=x, residual=residual, lu_nnz=lu_nnz)


def _multifrontal(A, b, order, part_end, part_parent) -> tuple[np.ndarray, int]:
    """Solve ``A[order][:, order] y = b[order]`` over the dissection tree.

    Part ``k`` pivots on positions ``part_end[k - 1]:part_end[k]`` of
    ``order``; its parent part comes later.  Entries are read through the
    inverse permutation, rows from a CSR copy and columns from ``A``
    (CSC).  Returns ``y`` and the fronts' LU entry count.
    """
    rows = A.tocsr()
    pos = np.full(A.shape[0], -1, dtype=np.int64)
    pos[order] = np.arange(order.size)
    part_start = np.r_[0, part_end[:-1]]
    children = [[] for _ in part_end]
    for k, parent in enumerate(part_parent):
        if parent >= 0:
            children[parent].append(k)

    def gather(mat, k):
        """Part ``k``'s rows of ``rows`` (columns of ``A``): each stored
        entry's pivot number, the position of its other index (-1 where
        that index is not solved for) and its offset in ``mat.data``."""
        lines = order[part_start[k] : part_end[k]]
        start = mat.indptr[lines]
        count = mat.indptr[lines + 1] - start
        line = np.repeat(np.arange(lines.size), count)
        at = np.arange(line.size) + (start - np.cumsum(count) + count)[line]
        return line, pos[mat.indices[at]], at

    # Symbolic pass: each front's boundary, in increasing position.
    boundary = []
    for k, (s, e) in enumerate(zip(part_start, part_end)):
        col_pos, row_pos = gather(rows, k)[1], gather(A, k)[1]
        reach = [col_pos[col_pos >= e], row_pos[row_pos >= e]]
        for c in children[k]:
            if boundary[c].size and boundary[c][0] < s:
                raise SolveError(
                    f"an entry joins part {c} to a sibling subtree of part {k}; "
                    "the order is not a nested dissection of the matrix"
                )
            reach.append(boundary[c][boundary[c] >= e])
        boundary.append(np.unique(np.concatenate(reach)))

    n_piv = part_end - part_start
    n_bnd = np.array([bnd.size for bnd in boundary], dtype=np.int64)
    lu_nnz = int(np.sum(n_piv**2 + 2 * n_piv * n_bnd))
    # Each front keeps its own [X | w] (p rows, nb + 1 columns).  Small
    # arrays fit the holes of the heap the assembly has just freed; one
    # buffer for all of them (about 25 MB at hole n=64) needs one hole
    # that large, and where the heap has none it adds its whole size to
    # the peak RSS, so the peak would change from one process to the next.
    xws = [None] * len(boundary)

    # Numeric pass.  Each front is column-major, as LAPACK takes it, with
    # one more column for the right-hand side: y_p on the pivot rows.
    y = b[order]
    local = np.empty(order.size, dtype=np.int64)
    updates = {}
    for k, (s, e, bnd) in enumerate(zip(part_start, part_end, boundary)):
        p, nb = e - s, bnd.size
        m = p + nb
        if m == 0:
            continue
        local[s:e] = np.arange(p)
        local[bnd] = np.arange(p, m)
        front = np.zeros((m, m + 1), order="F")
        flat = front.reshape(-1, order="F")
        # Each matrix entry once, in the front of the earlier of its row
        # and column: rows at and past the first pivot, columns below the
        # pivot block.
        line, col_pos, at = gather(rows, k)
        keep = col_pos >= s
        flat[line[keep] + m * local[col_pos[keep]]] = rows.data[at[keep]]
        line, row_pos, at = gather(A, k)
        keep = row_pos >= e
        flat[local[row_pos[keep]] + m * line[keep]] = A.data[at[keep]]
        for c in children[k]:
            update = updates.pop(c, None)
            if update is not None:
                idx = local[boundary[c]]
                flat[(idx[:, None] * m + idx).ravel()] += update.ravel(order="F")
        if p == 0:
            updates[k] = front[:, :m]
            continue
        front[:p, m] = y[s:e]
        lu, piv, info = dgetrf(front[:p, :p])
        if info != 0:
            raise SolveError(f"pivot block of part {k} is singular (LAPACK info {info})")
        # [X | w] = F11^-1 [F12 | y_p], then [F22 | 0] -= F21 [X | w]:
        # the Schur update for the parent and -F21 w for y on the boundary.
        xw = xws[k] = np.array(front[:p, p:], order="F")
        dgetrs(lu, piv, xw, overwrite_b=True)
        y[s:e] = xw[:, nb]
        if nb:
            update = dgemm(-1.0, front[p:, :p], xw, 1.0, front[p:, p:])
            y[bnd] += update[:, nb]
            updates[k] = update[:, :nb]

    # Back substitution, root first: y_p = w - X y_bnd.
    for k in reversed(range(len(boundary))):
        if n_piv[k] and n_bnd[k]:
            s, e = part_start[k], part_end[k]
            y[s:e] = dgemv(-1.0, xws[k][:, :-1], y[boundary[k]], 1.0, y[s:e])
    return y, lu_nnz


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
