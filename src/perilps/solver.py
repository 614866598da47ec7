"""Linear solve with a residual certificate, plus the error norm.

The block systems are nonsymmetric and moderately conditioned (the
near-incompressible cases push the dilatation coupling hard).  They are
solved by a multifrontal LU over the discretization's nested-dissection
tree (``model.front_tree``: the node order, its parts, the pairs whose
blocks may hold an entry and the layout of the unknowns).  One symbolic
pass goes from that tree straight to the plan the front loop reads.
Each part (a leaf or a separator) is one dense front over its own nodes
(the pivots) and the later nodes that its pairs and its children's
updates reach (its boundary).  A node's unknowns sit together in every
front, so whole bond blocks are scattered in, and a child's update goes
in run by run, where a run is a stretch of its boundary that lies
consecutive in the parent's front.  The largest update is assigned into
the zeroed front, which spares it the gather and the add; the blocks,
then the other updates, are added to it.  The pass depends on the geometry
alone: the first solve on a tree makes it and keeps it there
(``FrontTree.plans``), once per number of unknown kinds solved for, so
every later solve, for any material, only moves numbers.  The pivot
block is factored by LAPACK with partial pivoting inside it, and the
Schur complement of the boundary goes into the parent's front.  The
system has one right-hand side, so it rides as one more column of each
front: the forward substitution runs during the factorization, and a
float64 front keeps only ``[X | w] = F11^-1 [F12 | y_p]`` for the back
substitution.  ``getrs`` forms it from the LU factors, except on the
uncoupled solve below, where a front with a wide boundary multiplies by
the inverse of its pivot block (``INVERSE_SHAPE``).  Every front is a
prefix of one workspace, and the updates that wait for their parents
sit on one stack.  The symbolic pass sizes both and places every update
on the stack, so the front loop only reads and writes at its offsets.

The front loop runs in the precision of the right-hand side it is given.
Where a momentum row has a dilatation column, the coupled (u, theta)
system is factored in float32 (``sgetrf``, ``sgetrs``, ``sgemm``), and
each front keeps its factors: the LU of its pivot block with its pivots,
its ``F21`` and its ``X``, ``lu_nnz`` entries in all.  The solution is
then refined in float64 (Buttari et al., ACM TOMS 34(4), 2008; Carson &
Higham, SISC 40(2), 2018): each step recomputes the residual of the full
system and solves for the correction through the kept factors, a forward
and a back substitution (``_substitute``), never a new factorization.
The steps go on until the relative residual reaches ``REFINE_TARGET``,
or until a step cuts it by less than ``REFINE_CONTRACTION``.  Where the
float32 solve still misses the certificate (near nu = 1/2 its
refinement stalls), or a pivot block is singular in float32 only, the
system is factored again in float64, as the uncoupled solve is.

Where no momentum row has a dilatation column (lambda = mu on every
live bond), the displacement block is solved alone over the same tree,
in float64, with the 2x2 displacement blocks, and the dilatations follow
from their own rows, which hold an identity diagonal and displacement
columns only (``BlockSystem.theta_rows``: no other row of the product is
formed).  A float64 solve keeps only each front's ``[X | w]``.  Its
relative residual is recomputed from the full system's blocks and
right-hand side; where it misses the certificate, one step of iterative
refinement solves for the residual by factoring the same fronts again.
Every solution must pass the same certificate before it is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The solve calls scipy's BLAS and LAPACK only, never numpy's (matmul,
# dot, linalg.norm): the two load separate OpenBLAS thread pools, and a
# numpy call before or inside the front loop left the other pool's
# threads competing with the dense kernels, up to several times slower.
from scipy.linalg.blas import dgemm, dgemv, sgemm, sgemv
from scipy.linalg.lapack import dgetrf, dgetri, dgetrs, sgetrf, sgetrs

from .errors import SolveError
from .model import BlockSystem

__all__ = ["SolveReport", "solve", "rms_norm"]

#: Acceptable relative residual |A x - b| / |b| of a certified solution.
RESIDUAL_CERT = 1e-10

#: On the uncoupled solve, a front whose boundary holds at least this
#: many times its pivots forms [X | w] by the inverse of its pivot block,
#: ``dgemm(dgetri(lu), [F12 | y_p])``, in place of ``dgetrs``.  The
#: inverse costs 4 p^3 / 3 more flops but runs them as one matrix
#: product.  On a 2-vCPU VM (OpenBLAS) it took 0.3-0.8x the time of
#: dgetrs over the fronts of the inclusion at n = 32 and 64 and the hole
#: at n = 128, almost all of which have nb >= 2 p; on random pivot blocks
#: of p = 100-600 it took 0.6-0.9x at nb = 2 p and 0.9-1.6x at nb = p.
#: The coupled (u, theta) solve keeps dgetrs on every front: near
#: nu = 1/2 the inverse raised the residual of the hole at n = 64,
#: nu = 0.4999, from 1.25e-13 to 5.2e-11, against the 1e-10 certificate
#: (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992, on when such an
#: inverse is safe).
INVERSE_SHAPE = 2

#: dgetri's workspace per pivot, its block size: with the default of 3
#: the inversion of p = 300 ran 1.3x slower.
INVERSE_LWORK = 64

#: The float32 solve refines until its relative residual reaches this
#: round-off target, well below the certificate.  On the hole at n = 64,
#: nu = 0.495, seeds 1-12 (2-vCPU VM, OpenBLAS), the float32 first pass
#: read 2.3-2.7e-6 and one step 3.6-6.3e-11, within 3x of the
#: certificate, where rounding would decide whether a solve passes; the
#: second step reached 1.6-1.8e-15, below the float64 solve's 4.9e-15
#: (seed 7).  At nu = 0.4999 three steps went 6.1e-5, 1.9e-8, 8.9e-12,
#: 4.9e-15.
REFINE_TARGET = 1e-13

#: A refinement step that cuts the residual by less than this factor
#: ends the float32 refinement; the solve then keeps its best iterate,
#: and factors in float64 if that misses the certificate.  The steps
#: above cut it by 1,800-50,000x.  On the same hole at nu = 0.49999 the
#: first step cut it by 4.7x only (4.7e-3 to 9.9e-4), and at nu =
#: 0.499999 the residual grew (0.14 to 0.26), where the float32 pivot
#: blocks lose too many digits.
REFINE_CONTRACTION = 10.0


@dataclass
class SolveReport:
    """The certified solution, its residual, the LU fill (the entries of
    the dense fronts' factors, sum of ``p**2 + 2 p nb`` over fronts of
    ``p`` pivots and ``nb`` boundary unknowns), the precision of the
    factorization that certified it, ``"float32"`` or ``"float64"``, and
    the refinement steps it took: the correction solves through the kept
    float32 factors, or in float64 0 or 1 new factorizations."""

    x: np.ndarray
    residual: float
    lu_nnz: int
    refinement_steps: int
    precision: str


def solve(system: BlockSystem) -> SolveReport:
    """Solve the block system by multifrontal LU and certify the residual.

    Raises
    ------
    SolveError
        On an empty row, a pair joining two sibling subtrees of the front
        tree, a singular pivot block, or a residual above the certificate
        threshold after the refinement of the float64 solve.
    """
    slots = system.fronts.slots
    has = slots >= 0
    empty = has & ~(system.diag != 0.0).any(axis=2)
    if empty.any():
        # A row with nothing on the diagonal may still hold bond entries.
        entries = (system.blocks != 0.0).any(axis=2)
        for a in range(3):
            held = np.bincount(system.row_index, weights=entries[:, a], minlength=has.shape[0])
            empty[:, a] &= held == 0.0
        if empty.any():
            raise SolveError(f"matrix has an empty row (first: {slots[empty].min()})")

    coupled = system.blocks[:, :2, 2].any() or system.diag[:, :2, 2].any()
    kinds = 3 if coupled else 2
    order = system.fronts.order
    unknowns = slots[order, :kinds][has[order, :kinds]]
    theta = slots[has[:, 2], 2]

    b = system.rhs
    bn = _norm(b)
    bn = bn if bn > 0.0 else 1.0
    if coupled:
        try:
            report = _solve_single(system, unknowns, bn)
        except SolveError:  # a pivot block singular in float32 only
            report = None
        if report is not None and report.residual <= RESIDUAL_CERT:
            return report

    def solve_for(b):
        x = np.zeros_like(b)
        x[unknowns], lu_nnz, _ = _multifrontal(system, kinds, b[unknowns])
        if not coupled:
            x[theta] = b[theta] - system.theta_rows(x)
        return x, lu_nnz

    x, lu_nnz = solve_for(b)
    r = b - system.apply(x)
    refined = not _norm(r) <= RESIDUAL_CERT * bn
    if refined:
        x += solve_for(r)[0]
        r = b - system.apply(x)
    residual = _norm(r) / bn
    if not np.isfinite(residual) or residual > RESIDUAL_CERT:
        raise SolveError(
            f"solution residual {residual:.3e} violates the certificate "
            f"({RESIDUAL_CERT:g}); the system is singular or badly scaled"
        )
    return SolveReport(x=x, residual=residual, lu_nnz=lu_nnz, refinement_steps=int(refined), precision="float64")


def _solve_single(system: BlockSystem, unknowns: np.ndarray, bn: float) -> SolveReport:
    """The coupled system factored in float32 and refined in float64
    through the kept factors; the report of the best iterate, which the
    caller certifies.  ``unknowns`` are the slots in elimination order
    and ``bn`` the norm of the right-hand side."""
    b = system.rhs
    x = np.zeros_like(b)
    x[unknowns], lu_nnz, kept = _multifrontal(system, 3, b[unknowns].astype(np.float32))
    r = b - system.apply(x)
    rn = _norm(r)
    steps = 0
    while rn > REFINE_TARGET * bn:
        # The residual goes to float32 at unit norm, far from underflow.
        d = _substitute(kept, (r[unknowns] / rn).astype(np.float32))
        x_next = x.copy()
        x_next[unknowns] += d.astype(np.float64) * rn
        r_next = b - system.apply(x_next)
        rn_next = _norm(r_next)
        steps += 1
        stalled = not rn_next * REFINE_CONTRACTION <= rn
        if rn_next < rn:
            x, r, rn = x_next, r_next, rn_next
        if stalled:
            break
    return SolveReport(x=x, residual=rn / bn, lu_nnz=lu_nnz, refinement_steps=steps, precision="float32")


def _norm(v: np.ndarray) -> float:
    """The 2-norm, without numpy's BLAS (see the import above)."""
    return float(np.sqrt(np.sum(v * v)))


@dataclass
class _Plan:
    """The symbolic pass over a front tree for the first ``kinds`` of each
    node's unknowns, as the front loop reads it.

    ``fronts`` lists, for every front with entries: its part ``k``; its
    ``m``, ``p`` and ``nb`` unknowns (all, pivots, boundary); its pivots'
    rows of the ordered diagonal blocks and the buffer index of each of
    their entries; its pairs and the buffer index of each entry of their
    blocks; its pivots' slice of the right-hand side; the slots of its
    boundary unknowns; the offset of its own update on the stack; whether
    it forms [X | w] by the inverse of its pivot block (``INVERSE_SHAPE``);
    and, for each child that pushes an update, the largest update first,
    that update's offset and the child's ``nb``, this front's column of
    each of the child's boundary unknowns, and the child's runs: the
    update's rows ``a0:a1``, whether they go to this front's pivot rows,
    and the first of those rows.  The diagonal and pair entries of a
    front all differ but for its dummies, so they may be added as well as
    assigned.

    ``work`` is the largest front buffer, ``m * (m + 2) + 1`` entries.
    The offsets replay the postorder: each front pops its children's
    updates, which lie at the top of the stack, then pushes its own of
    ``nb * (nb + 1)`` entries (``nb * m`` without pivots) where the first
    of them began; a front's update is read as its leading ``nb * nb``
    entries.  ``stack`` is the deepest the pending updates reach.
    """

    fronts: list
    lu_nnz: int
    work: int
    stack: int


def _plan(system: BlockSystem, kinds: int) -> _Plan:
    """The symbolic pass of the multifrontal LU over the system's front
    tree, for the first ``kinds`` of each node's (ux, uy, theta) that the
    tree's ``slots`` hold.  It reads the tree and the neighbor lists only,
    so every material on the geometry shares it.

    Raises
    ------
    SolveError
        If a pair joins two sibling subtrees, so that the order is no
        nested dissection of the pairs.
    """
    tree = system.fronts
    order, part_end, part_parent = tree.order, tree.part_end, tree.part_parent
    solved = tree.slots[:, :kinds] >= 0
    n, n_parts = order.size, part_end.size
    part_start = np.r_[0, part_end[:-1]]
    n_piv = part_end - part_start
    part_of = np.repeat(np.arange(n_parts), n_piv)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    children = [[] for _ in range(n_parts)]
    for c, parent in enumerate(part_parent.tolist()):
        if parent >= 0:
            children[parent].append(c)

    # A pair's block goes into the front of the earlier of its two nodes;
    # ``a`` and ``b`` are the positions in the order of its row and column.
    a, b = pos[system.row_index[tree.pairs]], pos[system.indices[tree.pairs]]
    front = part_of[np.minimum(a, b)]
    # A key of 16 bits or fewer gets numpy's radix sort for the stable order.
    by_front = np.argsort(front.astype(np.min_scalar_type(n_parts)), kind="stable")
    pairs, a, b, front = tree.pairs[by_front], a[by_front], b[by_front], front[by_front]
    pair_end = np.searchsorted(front, np.arange(n_parts), side="right")

    # Each front's reach beyond its own part, as sorted keys front * n + position.
    far = np.maximum(a, b)
    out = far >= part_end[front]
    reach = np.unique(front[out] * n + far[out])
    reach_end = np.searchsorted(reach, (np.arange(n_parts) + 1) * n)
    # Front k lists its pivots, then its boundary: the later positions that
    # its pairs and its children's boundaries reach, increasing.
    boundary = []
    for k, (s, e) in enumerate(zip(part_start.tolist(), part_end.tolist())):
        reached = [reach[(reach_end[k - 1] if k else 0) : reach_end[k]] - k * n]
        for c in children[k]:
            if boundary[c].size and boundary[c][0] < s:
                raise SolveError(
                    f"a pair joins part {c} to a sibling subtree of part {k}; "
                    "the order is not a nested dissection of the pairs"
                )
            reached.append(boundary[c][boundary[c] >= e])
        boundary.append(np.unique(np.concatenate(reached)))
    # An entry is a node of a front: the keys front * n + position of all
    # entries are sorted, front by front.
    listed = zip(part_start, part_end, boundary)
    keys = np.concatenate([np.r_[s:e, bnd] + k * n for k, (s, e, bnd) in enumerate(listed)])
    front_of, position = np.divmod(keys, n)
    nodes = order[position]
    n_bnd = np.array([bnd.size for bnd in boundary], dtype=np.int64)
    node_end = np.cumsum(n_piv + n_bnd)
    bnd_start = node_end - n_bnd
    node_start = bnd_start - n_piv
    # A pivot's entry is its position plus its part's shift.
    shift = node_start - part_start

    # The entries of each pair's nodes.  The nearer is a pivot of the
    # pair's front, and so is the farther unless it lies beyond the part.
    near = shift[front] + np.minimum(a, b)
    beyond = shift[front] + far
    beyond[out] = np.searchsorted(keys, front[out] * n + far[out])
    pair_rows, pair_cols = np.where(a < b, near, beyond), np.where(a < b, beyond, near)

    # A boundary sits in the parent's front in runs of consecutive entries,
    # each among the parent's pivots or among its boundary.  Runs end
    # where the parent's front skips a node or its pivots end.
    src = np.flatnonzero(position >= part_end[front_of])
    kid = front_of[src]
    dst = np.searchsorted(keys, part_parent[kid] * n + position[src])
    parent_bnd = bnd_start[part_parent[kid]]
    starts = np.flatnonzero(
        (np.diff(kid, prepend=-1) != 0) | (np.diff(dst, prepend=-2) != 1) | (dst == parent_bnd)
    )
    run_from, run_to, run_part = src[starts], dst[starts], kid[starts]
    run_len = np.diff(np.r_[starts, src.size])

    # Each entry expands to its node's unknowns: ``at`` running over all
    # fronts, ``loc`` within its front.
    count = solved.sum(axis=1)
    at = np.r_[0, np.cumsum(count[nodes])]
    m = at[node_end] - at[node_start]
    p = at[bnd_start] - at[node_start]
    nb = m - p
    loc = (at[:-1] - at[node_start][front_of])[:, None] + np.cumsum(solved[nodes], axis=1) - 1
    # Front k is column-major, as LAPACK takes it, in two arrays over one
    # buffer: the pivot rows [F11 | F12 | y_p | dummy] (p rows, m + 2
    # columns), then the boundary rows [F21 | F22 | 0 | dummy], then one
    # dummy entry.  Row i, column j sits at ``offset[i] + stride[i] * j``;
    # the dummies take the blocks' entries for unknowns their nodes do not
    # carry, so every other entry goes where it belongs.  Fronts hold far
    # fewer than 46k unknowns, so int32 indexes them.
    fm, fp, fnb = m[front_of, None], p[front_of, None], nb[front_of, None]
    has = solved[nodes]
    pivot_row = loc < fp
    offset = np.where(has, np.where(pivot_row, loc, fp * (fm + 2) + loc - fp), fm * (fm + 2))
    stride = np.where(has, np.where(pivot_row, fp, fnb), 0)
    column = np.where(has, loc, fm + 1)
    # Kind-major, so that gathers and products run along long rows.
    offset, stride, column = (np.ascontiguousarray(v.T, dtype=np.int32) for v in (offset, stride, column))

    def targets(rows, cols):
        """Buffer index of each block entry of the (row, column) entries."""
        o, s, c = (np.take(v, i, axis=1) for v, i in ((offset, rows), (stride, rows), (column, cols)))
        index = np.empty((rows.size, kinds, kinds), dtype=np.int32)
        for a in range(kinds):
            for b in range(kinds):
                np.multiply(s[a], c[b], out=index[:, a, b])
                index[:, a, b] += o[a]
        return index

    pivots = np.arange(n) + shift[part_of]
    diag_at = targets(pivots, pivots)
    pair_at = targets(pair_rows, pair_cols)

    # Slots in elimination order of every front's unknowns, and where each
    # front's pivots start among them.
    first = np.empty(count.size, dtype=np.int64)
    first[order] = np.cumsum(count[order]) - count[order]
    slot = np.repeat(first[nodes] - at[:-1], count[nodes]) + np.arange(at[-1])
    y_start = np.r_[0, np.cumsum(p)]

    # Replay the postorder: a front's children's updates lie at the top
    # of the stack, and its own update replaces them, from the first
    # child's offset on.
    pushed = np.where(p > 0, nb * (nb + 1), nb * m).tolist()
    tops, offsets = [0], []
    for kids, size in zip(children, pushed):
        del tops[len(tops) - len(kids) :]
        offsets.append(tops[-1])
        tops.append(tops[-1] + size)
    stack = max(start + size for start, size in zip(offsets, pushed))

    # A child's update adds into this front run by run: its rows r0:r1 go
    # to this front's pivot rows (upper) or boundary rows (lower) from
    # ``row`` on.
    run_parent = part_parent[run_part]
    child_bnd = at[bnd_start][run_part]
    r0 = at[run_from] - child_bnd
    r1 = at[run_from + run_len] - child_bnd
    to = at[run_to] - at[node_start][run_parent]
    upper_row = to < p[run_parent]
    row = np.where(upper_row, to, to - p[run_parent])
    spans = list(zip(r0.tolist(), r1.tolist(), upper_row.tolist(), row.tolist()))
    run_end = np.searchsorted(run_part, np.arange(n_parts), side="right").tolist()
    # This front's column of each boundary unknown of each child.
    nb_start = np.r_[0, np.cumsum(nb)]
    to_column = np.repeat(to - r0 - nb_start[run_part], r1 - r0) + np.arange(nb_start[-1])
    run_start = [0, *run_end[:-1]]
    nbs = nb.tolist()
    # The largest update first: the front loop assigns it, and adds the rest.
    updates = [
        [
            (offsets[c], nbs[c], to_column[nb_start[c] : nb_start[c + 1]], spans[run_start[c] : run_end[c]])
            for c in sorted(kids, key=lambda c: -nbs[c])
            if nbs[c]
        ]
        for kids in children
    ]

    ends = (m, p, nb, part_start, part_end, np.r_[0, pair_end[:-1]], pair_end, y_start, at[node_start])
    fronts = [
        (
            k, m_k, p_k, nb_k,
            slice(d0, d1), diag_at[d0:d1].ravel(),
            pairs[q0:q1], pair_at[q0:q1].ravel(),
            slice(y0, y0 + p_k), slot[a0 + p_k : a0 + m_k],
            offsets[k], kinds == 2 and 0 < INVERSE_SHAPE * p_k <= nb_k, updates[k],
        )
        for k, (m_k, p_k, nb_k, d0, d1, q0, q1, y0, a0) in enumerate(zip(*(v.tolist() for v in ends)))
        if m_k
    ]
    work = int(np.max(m * (m + 2) + 1))
    return _Plan(fronts=fronts, lu_nnz=int(np.sum(p * p + 2 * p * nb)), work=work, stack=stack)


def _multifrontal(system: BlockSystem, kinds: int, y: np.ndarray) -> tuple[np.ndarray, int, list | None]:
    """Solve over the system's front tree for the first ``kinds`` of each
    node's (ux, uy, theta), in the precision of ``y``.

    ``y`` is the right-hand side in elimination order: part by part, node
    by node, each node's unknowns together.  Returns the solution in that
    order, the fronts' LU entry count and, in float32, each front's kept
    factors, with which ``_substitute`` solves again (``None`` in
    float64).  The tree's plan for ``kinds`` is made on the first call and
    read by every later one.
    """
    tree = system.fronts
    plan = tree.plans.get(kinds)
    if plan is None:
        plan = tree.plans[kinds] = _plan(system, kinds)
    single = y.dtype == np.float32
    getrf, getrs, gemm, gemv = (sgetrf, sgetrs, sgemm, sgemv) if single else (dgetrf, dgetrs, dgemm, dgemv)
    diag = system.diag[tree.order, :kinds, :kinds]
    blocks = system.blocks[:, :kinds, :kinds]

    # Every front is a prefix of ``work``; each update waits for its
    # parent on ``stack``, F-ordered from the offset the plan gives it.
    work, stack = np.empty(plan.work, y.dtype), np.empty(plan.stack, y.dtype)
    kept = []
    for k, m_k, p_k, nb_k, piv, diag_at, pairs, pair_at, y_at, bnd, at, by_inverse, children in plan.fronts:
        buf = work[: m_k * (m_k + 2) + 1]
        buf.fill(0.0)
        upper = buf[: p_k * (m_k + 2)].reshape((p_k, m_k + 2), order="F")
        lower = buf[p_k * (m_k + 2) : -1].reshape((nb_k, m_k + 2), order="F")
        # The largest update is assigned; the blocks and the other updates
        # are added to it.
        if children:
            c_at, c_nb, cols, spans = children[0]
            update = stack[c_at : c_at + c_nb * c_nb].reshape((c_nb, c_nb), order="F")
            for a0, a1, in_upper, row in spans:
                (upper if in_upper else lower)[row : row + a1 - a0, cols] = update[a0:a1]
        buf[diag_at] += diag[piv].ravel()
        buf[pair_at] += blocks[pairs].ravel()
        for c_at, c_nb, cols, spans in children[1:]:
            update = stack[c_at : c_at + c_nb * c_nb].reshape((c_nb, c_nb), order="F")
            for a0, a1, in_upper, row in spans:
                (upper if in_upper else lower)[row : row + a1 - a0, cols] += update[a0:a1]
        if p_k == 0:
            stack[at : at + nb_k * m_k].reshape((nb_k, m_k), order="F")[:] = lower[:, :m_k]
            continue
        ys = y[y_at]
        upper[:, m_k] = ys
        lu, ipiv, info = getrf(upper[:, :p_k], overwrite_a=True)
        if info != 0:
            raise SolveError(f"pivot block of part {k} is singular (LAPACK info {info})")
        # [X | w] = F11^-1 [F12 | y_p], then [F22 | 0] -= F21 [X | w]:
        # the Schur update for the parent and -F21 w for y on the boundary.
        if by_inverse:
            inverse, _ = dgetri(lu, ipiv, lwork=INVERSE_LWORK * p_k, overwrite_lu=True)
            xw = dgemm(1.0, inverse, upper[:, p_k : m_k + 1])
        else:
            xw = upper[:, p_k : m_k + 1]
            getrs(lu, ipiv, xw, overwrite_b=True)
        ys[:] = xw[:, nb_k]
        if nb_k:
            # The update leaves the front for the stack, where the next
            # front cannot overwrite it; gemm writes it in place only
            # because the slice is F-contiguous.
            update = stack[at : at + nb_k * (nb_k + 1)].reshape((nb_k, nb_k + 1), order="F")
            update[:] = lower[:, p_k : m_k + 1]
            gemm(-1.0, lower[:, :p_k], xw, 1.0, update, overwrite_c=True)
            y[bnd] += update[:, nb_k]
        # Each front keeps its own arrays: small arrays fit the holes of
        # the heap the assembly has just freed, where one buffer for all
        # of them needs one hole that large.
        if single:
            # [LU | X] lie together at the front's start.
            lux = buf[: p_k * m_k].copy()
            factors = lux[: p_k * p_k].reshape((p_k, p_k), order="F"), ipiv, np.array(lower[:, :p_k], order="F")
            kept.append((lux[p_k * p_k :].reshape((p_k, nb_k), order="F"), y_at, bnd, factors))
        elif nb_k:
            kept.append(((xw if by_inverse else np.array(xw, order="F"))[:, :nb_k], y_at, bnd, None))
    _back_substitute(kept, y, gemv)
    return y, plan.lu_nnz, kept if single else None


def _back_substitute(kept: list, y: np.ndarray, gemv) -> None:
    """Back substitution in place, root first: y_p = w - X y_bnd."""
    for x, y_at, bnd, _ in reversed(kept):
        if bnd.size:
            ys = y[y_at]
            ys[:] = gemv(-1.0, x, y[bnd], 1.0, ys)


def _substitute(kept: list, y: np.ndarray) -> np.ndarray:
    """Solve for the float32 right-hand side ``y``, in elimination order,
    through the fronts' kept float32 factors, in place: forward, front by
    front, w = F11^-1 y_p and y_bnd -= F21 w, then the back substitution."""
    for _, y_at, bnd, (lu, ipiv, f21) in kept:
        ys = y[y_at]
        ys[:] = sgetrs(lu, ipiv, ys)[0]
        if bnd.size:
            y[bnd] = sgemv(-1.0, f21, ys, 1.0, y[bnd])
    _back_substitute(kept, y, sgemv)
    return y


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
