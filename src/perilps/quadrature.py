"""Optimization-based quadrature weights for horizon-ball integrals.

Each node ``i`` gets one weight per neighbor such that the weighted sum
over the neighborhood reproduces, exactly, the integral over the full
horizon ball of every function in a small reproducing family: quadratic
polynomials in the bond vector, the singular bond-force integrands they
induce through the kernel, and the dilatation integrands.  Among all
weight vectors satisfying those constraints, the minimum Euclidean norm
solution is selected.

``ConstraintBasis`` holds each function of the family once, with the
function of each of its 36 constraint rows (26 without dilatation).
The rows name 22 distinct functions (15), three of which are sums of
others, so 19 of them (all 15) span the same row space and give the
same least-norm solution.  One evaluator, ``_evaluate_functions``,
serves the batched solve, the per-node fallback and the full-set
certificate.  The 19 are solved for blocks of nodes at once, through a
batched Gram system on bond vectors scaled by the horizon.  A block is
held functions-major, (functions, nodes, neighbors): each node's bonds
are padded to the widest neighborhood by repeating a real bond, the
functions are evaluated once on the padded bonds, and one multiply by
the live mask zeroes the padded slots.  The blocks are dealt
round-robin into one lane per CPU the process may use; lane 0 runs in
the calling thread and the others on threads that live only for the
call, each block writing only its own nodes' entries.  numpy releases
the GIL in the batched products and solves, so the lanes run side by
side.  Every node is certified against the full constraint set; the
nodes whose batched weights fail that certificate are gathered from all
lanes and solved again, lowest node first, by a rank-truncated least
squares solve (``least_norm_weights``) and counted in
``QuadratureFamily.fallback``.

All reproducing functions have the form ``z1**a * z2**b / |z|**s``, so
their ball integrals reduce to a radial power times a trigonometric
moment with a closed form (odd exponents integrate to zero).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .pointcloud import Neighborhoods, PointCloud

__all__ = [
    "weighted_volume",
    "ConstraintBasis",
    "QuadratureFamily",
    "ball_monomial_moment",
    "exact_ball_moments",
    "assemble_constraints",
    "least_norm_weights",
    "compute_family",
]

#: Relative singular value cutoff for the rank truncation.
RANK_TOL = 1e-10

#: Per-point ceiling on ``|B w - g| / |g|`` before the run is aborted.
RESIDUAL_TOL = 1e-11

# Shifted quadratic monomials m(z) spanning p(y) - p(x) for quadratic p,
# as (exponent of z1, exponent of z2).
_SHIFTED_MONOMIALS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def weighted_volume(delta: float) -> float:
    """The kernel-weighted ball volume ``int_B |z|^2 / |z| dz`` of the 1/r kernel."""
    return 2.0 * math.pi * delta**3 / 3.0


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention, which makes the moment formula uniform.
    if n <= 0:
        return 1
    return n * _double_factorial(n - 2)


def ball_monomial_moment(a: int, b: int, s: int, delta: float) -> float:
    """Exact value of ``int_{|z|<delta} z1^a z2^b / |z|^s dz``.

    Splits into a radial power integral and the trigonometric moment
    ``int cos^a sin^b``, which vanishes unless both exponents are even.
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    p = a + b + 2 - s
    if p <= 0:
        raise ValueError(f"moment z1^{a} z2^{b} / |z|^{s} is not integrable")
    if a % 2 or b % 2:
        return 0.0
    angular = (
        2.0
        * math.pi
        * _double_factorial(a - 1)
        * _double_factorial(b - 1)
        / _double_factorial(a + b)
    )
    return delta**p / p * angular


@dataclass(frozen=True)
class ConstraintBasis:
    """The reproducing family for one horizon, each function held once.

    ``functions`` lists the distinct ``(a, b, s)`` of ``z1^a z2^b / |z|^s``
    in order of first use and ``function_moments`` their exact ball
    integrals; ``rows`` holds the function of each constraint row.  A
    row's group follows from ``s``: 0 for ``P``, 3 for ``S``, 1 for ``D``.
    """

    functions: tuple[tuple[int, int, int], ...]
    function_moments: np.ndarray
    rows: np.ndarray

    @property
    def moments(self) -> np.ndarray:
        return self.function_moments[self.rows]


def exact_ball_moments(delta: float, include_dilatation: bool = True) -> ConstraintBasis:
    """Enumerate the reproducing family and its exact ball moments for horizon ``delta``.

    The family has three groups:

    * ``P``: the six quadratic monomials themselves (plain volume
      integrals, ``s = 0``).
    * ``S``: entries of the tensor kernel ``z_i z_j m(z) / |z|^3`` for
      every component pair and every shifted monomial ``m``, which are
      exactly the bond-force integrands of quadratic displacements.
    * ``D``: the dilatation integrands ``z_k m(z) / |z|``.  The
      quadratic-``m`` members are not in the span of ``P`` and ``S``,
      so leaving them out (``include_dilatation=False``) reverts to the
      smaller literal reproducing space.
    """
    if delta <= 0.0:
        raise QuadratureError(f"horizon must be positive, got {delta}")
    rows = [(a, b, 0) for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]]
    rows += [
        (ma + (i == 0) + (j == 0), mb + (i == 1) + (j == 1), 3)
        for ma, mb in _SHIFTED_MONOMIALS
        for i in (0, 1)
        for j in (0, 1)
    ]
    if include_dilatation:
        rows += [
            (ma + (k == 0), mb + (k == 1), 1) for ma, mb in _SHIFTED_MONOMIALS for k in (0, 1)
        ]
    functions = tuple(dict.fromkeys(rows))
    return ConstraintBasis(
        functions=functions,
        function_moments=np.array([ball_monomial_moment(*f, delta) for f in functions]),
        rows=np.array([functions.index(f) for f in rows]),
    )


def _evaluate_functions(
    functions: tuple[tuple[int, int, int], ...], z: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Every function ``(a, b, s)`` of ``functions`` at the bond vectors ``z``, as (F, n).

    Each power of ``z1``, ``z2`` and ``1/|z|`` is formed once and shared,
    so a function costs two products.
    """
    powers = []
    for col, top in zip((z[:, 0], z[:, 1], 1.0 / r), np.max(functions, axis=0)):
        p = [np.ones_like(r)]
        for _ in range(top):
            p.append(p[-1] * col)
        powers.append(p)
    out = np.empty((len(functions), r.shape[0]))
    for k, (a, b, s) in enumerate(functions):
        np.multiply(powers[0][a], powers[1][b], out=out[k])
        out[k] *= powers[2][s]
    return out


def assemble_constraints(
    basis: ConstraintBasis, offsets: np.ndarray, distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the constraint matrix for one neighborhood.

    Row ``r``, column ``j`` holds the ``r``-th reproducing function at
    the bond vector ``z_j``; the right-hand side is the vector of exact
    ball moments.
    """
    B = _evaluate_functions(basis.functions, offsets, distances)[basis.rows]
    return B, basis.moments


def least_norm_weights(B: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, dict]:
    """Minimum-norm solution of ``B w = g`` with singular value truncation.

    Singular values below ``RANK_TOL`` times the largest are dropped;
    the residual of the returned solution certifies whether the dropped
    directions actually carried right-hand side content.

    Returns
    -------
    w : (n,) array
    diag : dict
        ``rank`` and ``residual`` (relative to ``|g|``).
    """
    w, _, rank, _ = np.linalg.lstsq(B, g, rcond=RANK_TOL)
    scale = np.linalg.norm(g)
    residual = np.linalg.norm(B @ w - g) / (scale if scale > 0.0 else 1.0)
    return w, {"rank": int(rank), "residual": float(residual)}


@dataclass
class QuadratureFamily:
    """Per-node quadrature weights, pair-aligned with a Neighborhoods.

    ``weights`` matches ``nbrs.indices`` entry for entry; nodes outside
    the computed set hold NaN there.  ``residual``, ``rank`` and
    ``fallback`` are indexed by node; ``fallback`` marks the nodes whose
    weights came from the per-node ``least_norm_weights`` solve instead
    of the batched one.
    """

    weights: np.ndarray
    computed: np.ndarray
    residual: np.ndarray
    rank: np.ndarray
    fallback: np.ndarray
    basis: ConstraintBasis


def _independent(basis: ConstraintBasis) -> np.ndarray:
    """The indices of the functions solved for, a subset with the same span.

    A dilatation function ``z1^a z2^b / |z|`` is left out when
    ``z1^(a+2) z2^b / |z|^3`` and ``z1^a z2^(b+2) / |z|^3`` are present,
    because ``|z|^2 = z1^2 + z2^2`` makes it their sum.
    """
    present = set(basis.functions)
    return np.array([
        k
        for k, (a, b, s) in enumerate(basis.functions)
        if not (s == 1 and (a + 2, b, 3) in present and (a, b + 2, 3) in present)
    ])


def _gram_weights(S: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Least-norm solutions of ``B w = g`` for a stack ``S`` of ``B``.

    ``S`` is (nodes, functions, neighbors).  Solves ``B B^T lam = g``
    and returns ``w = lam^T B``, shaped (nodes, neighbors).  If a Gram
    matrix of the stack is exactly singular, every weight comes back NaN.
    """
    gram = S @ S.transpose(0, 2, 1)
    rhs = np.broadcast_to(g[:, None], (S.shape[0], g.size, 1))
    try:
        lam = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.full((S.shape[0], S.shape[2]), np.nan)
    return (lam.transpose(0, 2, 1) @ S)[:, 0]


#: Nodes per batched weight solve.  At n=96 (42 neighbors at most) a
#: block's functions-major arrays peak at about 4.7 MB, freed before the
#: lane's next block, and one block over all nodes would peak at about
#: 190 MB.  Every lane holds one block at a time, and each lane's thread
#: keeps its own malloc arena.  Against 128-node blocks, 256 took a
#: ``check-quadrature --n 96`` call from 0.233 to 0.218 s and its peak
#: RSS from 113.9 to 116.8 MB.
_BLOCK_NODES = 256


def _lanes() -> int:
    """The number of solve lanes: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def compute_family(
    cloud: PointCloud,
    nbrs: Neighborhoods,
    include_dilatation: bool = True,
    needed: np.ndarray | None = None,
) -> QuadratureFamily:
    """Solve the per-node weight problems for every node that needs them.

    Weights are consumed by momentum rows, dilatation rows and damage
    sums, all of which live on the nodes of ``nbrs.kept``; those
    nodes have full balls by the collar construction, so the full-ball
    constraints are consistent there.  Outer collar nodes are skipped
    (their truncated balls cannot match full-ball moments and none of
    their weights are ever referenced); ``build_neighborhoods`` keeps no
    row for them.

    Nodes are solved in blocks of ``_BLOCK_NODES``, each evaluated into a
    functions-major array whose padded slots are zero (zero columns
    leave the least-norm solution unchanged).  Every block is padded to
    the widest neighborhood of all needed nodes, so a node's weights do
    not depend on which nodes share its block.  Block ``k`` runs in lane ``k % _lanes()``; lane 0 is the
    calling thread.  When every lane is done, the nodes whose batched
    weights fail the full-set certificate are solved again by
    ``least_norm_weights`` in ascending order, which then supplies their
    rank and residual, so the result and the node an error names do not
    depend on the number of lanes.

    Parameters
    ----------
    needed : (N,) bool array, optional
        Override the default node set, ``nbrs.kept``.

    Raises
    ------
    QuadratureError
        If a needed node has no neighbors or its certified residual
        exceeds ``RESIDUAL_TOL``.
    """
    if needed is None:
        needed = nbrs.kept

    basis = exact_ball_moments(cloud.delta, include_dilatation=include_dilatation)
    solve = _independent(basis)
    n = cloud.n_points
    weights = np.full(nbrs.n_pairs, np.nan)
    residual = np.full(n, np.nan)
    rank = np.zeros(n, dtype=np.int64)
    fallback = np.zeros(n, dtype=bool)
    counts = np.diff(nbrs.indptr)

    nodes = np.nonzero(needed)[0]
    empty = nodes[counts[nodes] == 0]
    if empty.size:
        raise QuadratureError(f"node {empty[0]} has an empty neighborhood")

    g = basis.moments
    g_norm = np.linalg.norm(g)
    # z1^a z2^b / |z|^s is homogeneous of degree a + b - s, so scaling
    # row r by delta^-(a+b-s) evaluates it at z / delta.
    row_scale = np.array([cloud.delta ** -(a + b - s) for a, b, s in basis.functions])[solve]
    g_solve = basis.function_moments[solve] * row_scale
    width = counts[nodes].max(initial=0)

    def solve_block(block: np.ndarray) -> list[int]:
        """Solve one block; return its nodes that fail the certificate.

        Its arrays are freed on return, before the lane's next block.
        """
        slot = np.arange(width)
        live = slot < counts[block][:, None]
        # Padded slots repeat the node's first pair, so that every
        # evaluated bond is a real one; the live mask zeroes them.
        pairs = (nbrs.indptr[block][:, None] + np.where(live, slot, 0)).ravel()
        A = _evaluate_functions(
            basis.functions, nbrs.offsets[pairs], nbrs.distances[pairs]
        ).reshape(-1, block.size, width)
        A *= live

        S = A[solve]
        S *= row_scale[:, None, None]
        w = _gram_weights(S.transpose(1, 0, 2), g_solve)

        fit = (A.transpose(1, 0, 2) @ w[:, :, None])[:, :, 0].take(basis.rows, axis=1)
        # take keeps each node's row contiguous (a fancy index would not),
        # so the norm sums it in the same order at every block size.
        res = np.linalg.norm(fit - g, axis=1) / g_norm
        weights[pairs[live.ravel()]] = w[live]
        residual[block] = res
        rank[block] = solve.size
        # Non-finite weights give a NaN residual, which fails this test too.
        return block[~(res <= RESIDUAL_TOL)].tolist()

    def solve_lane(blocks: list[np.ndarray]) -> list[int]:
        """Solve ``blocks`` in turn; return the nodes that fail the certificate."""
        return [i for block in blocks for i in solve_block(block)]

    blocks = [nodes[k:k + _BLOCK_NODES] for k in range(0, nodes.size, _BLOCK_NODES)]
    lanes = min(_lanes(), len(blocks)) or 1
    # Lane 0 runs in the calling thread rather than in one more worker,
    # because every thread that allocates keeps its own malloc arena.  A
    # pool map over all the blocks gave the same weights at the same wall
    # time, but a peak RSS 4-6 MB higher on every benchmark workload
    # (2 CPUs).
    with ThreadPoolExecutor(lanes) as pool:
        others = [pool.submit(solve_lane, blocks[k::lanes]) for k in range(1, lanes)]
        failed = solve_lane(blocks[::lanes])
        for lane in others:
            failed += lane.result()

    for i in sorted(failed):
        sl = nbrs.pair_slice(i)
        B, gi = assemble_constraints(basis, nbrs.offsets[sl], nbrs.distances[sl])
        wi, diag = least_norm_weights(B, gi)
        if diag["residual"] > RESIDUAL_TOL:
            raise QuadratureError(
                f"node {i} failed the exactness certificate: relative residual "
                f"{diag['residual']:.3e} exceeds {RESIDUAL_TOL:g} "
                f"({sl.stop - sl.start} neighbors, rank {diag['rank']})"
            )
        weights[sl] = wi
        residual[i] = diag["residual"]
        rank[i] = diag["rank"]
        fallback[i] = True

    return QuadratureFamily(
        weights=weights,
        computed=needed.copy(),
        residual=residual,
        rank=rank,
        fallback=fallback,
        basis=basis,
    )

