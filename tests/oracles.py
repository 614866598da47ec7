"""Test-only reference implementations and fields.

``build_neighborhoods`` keeps the rows of the nodes that can carry a
dilatation only.  The neighbor oracles find every pair by brute force,
state that rule on their own, and build full-row neighborhoods for the
tests that need the rows the search drops.  ``assemble_constraints``
and ``least_norm_weights`` solve one node's weight problem on its own,
by a rank-truncated least squares solve, for the batched solve to be
compared against.  ``quadratic_field_probes``
checks the quadrature weights on random quadratic fields against ball
integrals by polar quadrature.  ``unknown_layout`` states
the scalar layout of the unknowns node by node, and ``apply_operator``
applies the discrete operator bond by bond from the model's formulas,
without assembling it.
``divergence_free_case`` is a manufactured field for the
near-incompressible tests.
"""

import math

import numpy as np

from perilps import quadrature
from perilps.analytic import AnalyticCase
from perilps.model import C_ALPHA, C_BETA, DIM, Discretization, MaterialField
from perilps.pointcloud import Neighborhoods
from perilps.quadrature import RANK_TOL, weighted_volume


def brute_force_pairs(positions, radius):
    """All ordered pairs (i, j), i != j, with |x_j - x_i| <= radius, sorted.

    Taken 256 rows at a time, so that clouds of thousands of nodes fit.
    """
    pairs = []
    for start in range(0, positions.shape[0], 256):
        diff = positions[None, :, :] - positions[start : start + 256, None, :]
        d2 = np.einsum("ijc,ijc->ij", diff, diff)
        pairs.append(np.argwhere((d2 <= radius**2) & (d2 > 0.0)) + [start, 0])
    return np.concatenate(pairs)


def dilatation_rule(cloud, i, j):
    """The nodes that can carry a dilatation, from every directed pair
    (i, j) of the cloud: the unperturbed center lies within the horizon
    of the unit square, or the node is a neighbor of an interior node."""
    keep = cloud.center_distance_to_domain() <= cloud.delta * (1.0 + 1e-12)
    keep[j[cloud.interior[i]]] = True
    return keep


def neighborhood_arrays(positions, i, j):
    """The pair arrays of ``Neighborhoods`` for the directed pairs (i, j),
    given sorted by (i, j), formed as ``build_neighborhoods`` forms them."""
    indptr = np.zeros(positions.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=positions.shape[0]), out=indptr[1:])
    offsets = positions[j] - positions[i]
    return {
        "indptr": indptr,
        "indices": j,
        "row_index": i,
        "offsets": offsets,
        "distances": np.hypot(offsets[:, 0], offsets[:, 1]),
    }


def kept_pairs(cloud):
    """The brute-force pairs of the rows ``build_neighborhoods`` keeps,
    and the rule's node mask."""
    i, j = brute_force_pairs(cloud.positions, cloud.delta).T
    keep = dilatation_rule(cloud, i, j)
    return i[keep[i]], j[keep[i]], keep


def full_neighborhoods(cloud):
    """Every node's row, the outer collar's included, by brute force; the
    rule's nodes are still the ones marked ``kept``."""
    i, j = brute_force_pairs(cloud.positions, cloud.delta).T
    return Neighborhoods(
        **neighborhood_arrays(cloud.positions, i, j),
        kept=dilatation_rule(cloud, i, j),
        delta=cloud.delta,
    )


def assemble_constraints(basis, offsets, distances):
    """The constraint matrix of one neighborhood and its right-hand side.

    Row ``r``, column ``j`` holds the ``r``-th reproducing function at
    the bond vector ``z_j``; the right-hand side is the vector of exact
    ball moments.
    """
    B = quadrature._evaluate_functions(basis.functions, offsets, distances)[basis.rows]
    return B, basis.moments


def least_norm_weights(B, g):
    """Minimum-norm solution of ``B w = g`` with singular value truncation.

    Singular values below ``RANK_TOL`` times the largest are dropped;
    the residual of the returned solution certifies whether the dropped
    directions actually carried right-hand side content.  Returns ``w``
    and a dict of ``rank`` and ``residual`` (relative to ``|g|``).
    """
    w, _, rank, _ = np.linalg.lstsq(B, g, rcond=RANK_TOL)
    scale = np.linalg.norm(g)
    residual = np.linalg.norm(B @ w - g) / (scale if scale > 0.0 else 1.0)
    return w, {"rank": int(rank), "residual": float(residual)}


def _probe_integrands(z, du):
    """The tensor-kernel integrand ``z (z . du) / |z|^3`` and the dilatation
    integrand ``z . du / |z|`` at bond vectors ``z``, as (m, 3)."""
    r = np.hypot(z[:, 0], z[:, 1])
    zdu = np.einsum("pc,pc->p", z, du)
    return np.column_stack([z * (zdu / r**3)[:, None], zdu / r])


def quadratic_field_probes(family, cloud, nbrs, probe_count, seed):
    """The worst gaps of the weights on random quadratic fields.

    Each probe draws a node ``x`` with weights and a quadratic field
    ``p`` with coefficients in [-1, 1], and sums the weights times both
    integrands of ``du = p(x + z) - p(x)`` over the node's bonds.  The
    ball integrals come from polar quadrature: in ``r dr dphi`` the
    integrands are polynomials of degree at most 3 in ``r``, which
    4-point Gauss-Legendre integrates exactly, and trigonometric
    polynomials of degree at most 4 in ``phi``, which the 16-point
    trapezoid rule does.  Neither the moment formula nor the constraint
    rows are used.  Gaps are relative to ``pi delta^3``.

    Returns the worst gap of the tensor identity (both components) and
    of the dilatation identity.
    """
    rng = np.random.default_rng(seed)
    t, wt = np.polynomial.legendre.leggauss(4)
    r = 0.5 * cloud.delta * (t + 1.0)
    phi = 2.0 * math.pi * np.arange(16) / 16
    z_ball = (r[:, None, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)).reshape(-1, 2)
    w_ball = np.repeat(0.5 * cloud.delta * wt * r * (2.0 * math.pi / 16), 16)

    def field(coeffs, y):
        y1, y2 = y[:, 0], y[:, 1]
        return np.column_stack([np.ones_like(y1), y1, y2, y1**2, y1 * y2, y2**2]) @ coeffs

    worst = np.zeros(3)
    for i in rng.choice(np.nonzero(family.computed)[0], probe_count):
        coeffs = rng.uniform(-1.0, 1.0, size=(6, 2))
        x = cloud.positions[i : i + 1]
        sl = nbrs.pair_slice(i)
        y = cloud.positions[nbrs.indices[sl]]
        sums = family.weights[sl] @ _probe_integrands(y - x, field(coeffs, y) - field(coeffs, x))
        ball = w_ball @ _probe_integrands(z_ball, field(coeffs, x + z_ball) - field(coeffs, x))
        worst = np.maximum(worst, np.abs(sums - ball) / (math.pi * cloud.delta**3))
    return {"tensor": float(worst[:2].max()), "dilatation": float(worst[2])}


def unknown_layout(disc):
    """(N, 3) scalar unknown of each node's (ux, uy, theta), -1 where it has
    none, counted node by node: a present interior node takes the next two
    unknowns for (ux, uy); then each present node with weights takes the
    next one for theta."""
    present = disc.bonds.present
    slots = np.full((disc.cloud.n_points, 3), -1)
    k = 0
    for i in range(disc.cloud.n_points):
        if disc.cloud.interior[i] and present[i]:
            slots[i, :2] = k, k + 1
            k += 2
    for i in range(disc.cloud.n_points):
        if disc.family.computed[i] and present[i]:
            slots[i, 2] = k
            k += 1
    return slots


def harmonic_mean(a, b):
    """``2 a b / (a + b)`` elementwise, and 0 where both vanish."""
    total = a + b
    return np.divide(2.0 * a * b, total, out=np.zeros_like(total), where=total > 0.0)


def apply_operator(
    disc: Discretization, material: MaterialField, u_all: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the discrete operator to a displacement given at all nodes,
    bond by bond from the model's formulas.

    Over the bonds (i, j) with ``z = x_j - x_i``, kernel ``k = 1/|z|``,
    surviving weight ``w``, ``m = weighted_volume(delta)`` and the
    harmonic means ``lam`` and ``mu`` of the bond's two nodes:

    * the corrected dilatation, wherever weights exist, sums
      ``(DIM/m) k w (M_i^-1 z) . (u_j - u_i)``;
    * the momentum, at present interior nodes, sums the bond force
      ``(C_BETA/m) mu k w (z (x) z / |z|^2) (u_j - u_i)`` and the
      dilatation force ``(C_ALPHA/m) (lam - mu) k w z (theta_i + theta_j)``.

    It shares no code with ``assemble_system``, so the tests can confront
    the assembled blocks' entries, not only their scatter, with an
    independent evaluation.

    Returns
    -------
    momentum : (N, 2) array, NaN at non-interior nodes
    theta : (N,) array, NaN where not computed
    """
    cloud, nbrs, computed = disc.cloud, disc.nbrs, disc.family.computed
    n = cloud.n_points
    i, j = nbrs.row_index, nbrs.indices
    z = nbrs.offsets
    z2 = np.einsum("pa,pa->p", z, z)
    kw = disc.weights / np.sqrt(z2)
    m = weighted_volume(cloud.delta)
    lam = harmonic_mean(material.lam[i], material.lam[j])
    mu = harmonic_mean(material.mu[i], material.mu[j])
    du = u_all[j] - u_all[i]

    corrected = np.einsum("pab,pb->pa", disc.correction.inverses[i], z)
    bond_theta = DIM / m * kw * np.einsum("pa,pa->p", corrected, du)
    theta = np.full(n, np.nan)
    theta[computed] = np.bincount(i, weights=bond_theta, minlength=n)[computed]

    # Dead bonds carry w = 0 but may point at nodes with no dilatation;
    # zero those values instead of letting 0 * NaN spread.
    theta_fill = np.where(np.isnan(theta), 0.0, theta)
    bond = C_BETA / m * mu * kw * np.einsum("pa,pa->p", z, du) / z2
    dilatation = C_ALPHA / m * (lam - mu) * kw * (theta_fill[i] + theta_fill[j])
    force = (bond + dilatation)[:, None] * z
    mom = np.full((n, 2), np.nan)
    live_int = cloud.interior & disc.bonds.present
    for a in (0, 1):
        mom[live_int, a] = np.bincount(i, weights=force[:, a], minlength=n)[live_int]
    return mom, theta


def divergence_free_trig(points, moduli, frequency=math.pi):
    """Field ``(w sin wx cos wy, -w cos wx sin wy)`` and its forcing.

    Its divergence is zero, so the stress divergence is ``mu`` times the
    Laplacian, ``-2 w^2 mu u``, in the convention of
    ``analytic.manufactured_trig``; the forcing stays bounded as lambda
    grows, and the field can show locking near nu = 1/2.
    """
    w = frequency
    x, y = w * points[:, 0], w * points[:, 1]
    u = w * np.column_stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)])
    return u, -2.0 * w**2 * moduli.mu * u


def divergence_free_case(moduli):
    """``divergence_free_trig`` as a run case on a homogeneous material."""

    def fields(points):
        n = len(points)
        return np.full(n, moduli.lam), np.full(n, moduli.mu)

    return AnalyticCase(
        displacement=lambda p: divergence_free_trig(p, moduli)[0],
        forcing=lambda p: divergence_free_trig(p, moduli)[1],
        lame_fields=fields,
    )
