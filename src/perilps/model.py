"""Discrete state-based peridynamic solid model on a point cloud.

The model splits into material-free geometry and physics.  A
``Discretization`` holds everything that depends on the point cloud
alone: neighborhoods, quadrature weights, broken bonds and removed
nodes, the surviving pair weights, the dilatation correction and the
damage.  A hole is nothing but broken bonds and removed nodes on the
shared cloud (``break_bonds_crossing_circle``, ``hole_removal_mask``).
The material enters only through the pair moduli of
``assemble_system`` and ``apply_operator``, so one discretization
serves any number of materials on the same cloud.

The unknowns are the displacements of present interior nodes plus a
nonlocal dilatation value at every present node with quadrature weights.
Momentum balance couples a dilatation (volumetric) force term with a
bond-stretch (deviatoric) term; the dilatation itself is defined by a
weighted bond sum and kept consistent through its own block of
equations rather than eliminated.

When bonds are severed (free surfaces modeled by bond breaking) the
bond sums lose their full-ball symmetry.  A per-node first-moment
tensor built from the surviving bonds restores exactness of the
dilatation for affine deformations; on intact full balls that tensor is
the identity and the correction is a no-op.

Every bond is at most one horizon long, so the geometry also fixes a
nested-dissection tree of the nodes (``dissection_order``); the block
system carries it over its unknowns for the solver's fronts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigError
from .pointcloud import Neighborhoods, PointCloud
from .quadrature import QuadratureFamily, weighted_volume

__all__ = [
    "C_ALPHA",
    "C_BETA",
    "DIM",
    "MaterialField",
    "BondSet",
    "DilatationCorrection",
    "Discretization",
    "BlockSystem",
    "break_bonds_crossing_circle",
    "damage_field",
    "dissection_order",
    "compute_moment_tensors",
    "assemble_system",
    "apply_operator",
]

#: Condition threshold below which the moment tensor falls back to a
#: pseudo-inverse (smallest singular value relative to the largest).
MOMENT_COND_TOL = 1e-8


#: Nested dissection stops splitting parts of at most this many nodes.
DISSECTION_LEAF = 48

#: Plane-strain scaling of the dilatation force term and of the bond
#: force term, and the spatial dimension.
C_ALPHA = 2.0
C_BETA = 16.0
DIM = 2


@dataclass
class MaterialField:
    """Per-node Lame parameters."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if np.any(self.mu <= 0.0):
            raise ConfigError("shear modulus must be positive at every node")
        if np.any(self.lam < 0.0):
            raise ConfigError("first Lame parameter must be nonnegative")

    @classmethod
    def from_case(cls, case, cloud: PointCloud) -> "MaterialField":
        lam, mu = case.lame_fields(cloud.positions)
        return cls(lam=np.asarray(lam, dtype=float), mu=np.asarray(mu, dtype=float))


def _harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # 2 / (1/a + 1/b), with the limit value 0 where a modulus is 0 (lam).
    s = a + b
    out = np.zeros_like(s)
    np.divide(2.0 * a * b, s, out=out, where=s > 0.0)
    return out


@dataclass
class BondSet:
    """Broken/intact state per directed bond plus a per-node present mask.

    ``broken`` is pair-aligned with a ``Neighborhoods``; ``present`` is
    False for nodes removed from the problem (hole interiors).  Weights
    of bonds that are broken or touch absent nodes are zeroed in
    ``modified_weights``.
    """

    broken: np.ndarray
    present: np.ndarray

    @classmethod
    def intact(cls, nbrs: Neighborhoods) -> "BondSet":
        return cls(
            broken=np.zeros(nbrs.n_pairs, dtype=bool),
            present=np.ones(nbrs.n_points, dtype=bool),
        )

    def modified_weights(self, family: QuadratureFamily, nbrs: Neighborhoods) -> np.ndarray:
        alive = (~self.broken) & self.present[nbrs.row_index] & self.present[nbrs.indices]
        # Rows of nodes without computed weights hold NaN; they become 0.
        return np.where(alive & family.computed[nbrs.row_index], family.weights, 0.0)


def break_bonds_crossing_circle(
    bonds: BondSet, nbrs: Neighborhoods, cloud: PointCloud, circle
) -> BondSet:
    """Sever every bond whose open segment crosses the given circle.

    A bond breaks when its endpoints lie on opposite sides of the
    circle, or when both lie outside but the segment dips inside
    (double crossing).  Bonds with both endpoints inside remain intact;
    the nodes they join are typically removed from the problem anyway.
    Applying the operation twice changes nothing (the predicate is pure
    geometry).
    """
    pos = cloud.positions
    i = nbrs.row_index
    j = nbrs.indices
    d = circle.signed_distance(pos)
    di, dj = d[i], d[j]
    straddle = (di < 0.0) != (dj < 0.0)

    # Double crossings: both endpoints outside, nearest segment point
    # inside.  That point lies within |z| of x_i, so it can only be
    # inside when di < |z|; the margin keeps rounding at di = |z| from
    # dropping a pair the exact test would flag.
    margin = 1e-9 * (circle.radius + nbrs.delta)
    near = np.flatnonzero((di > 0.0) & (dj > 0.0) & (di < nbrs.distances + margin))
    center = np.asarray(circle.center)
    seg = nbrs.offsets[near]
    rel = center - pos[i[near]]
    t = np.clip(np.einsum("pc,pc->p", rel, seg) / nbrs.distances[near] ** 2, 0.0, 1.0)
    nearest = pos[i[near]] + t[:, None] * seg
    dip = np.zeros_like(straddle)
    dip[near] = np.hypot(*(nearest - center).T) < circle.radius

    return BondSet(broken=bonds.broken | straddle | dip, present=bonds.present.copy())


def hole_removal_mask(cloud: PointCloud, circle) -> np.ndarray:
    """Nodes to drop for a hole: strictly inside by center or by position.

    Center-inside nodes sit in the void by construction.  A jittered
    node whose center stays outside but whose position lands inside the
    circle would keep its unknowns even though every bond it carries
    crosses the hole boundary and breaks, which leaves a zero stiffness
    row and a singular system.  Both kinds are removed.
    """
    inside_center = circle.signed_distance(cloud.unperturbed_centers()) < 0.0
    return inside_center | (circle.signed_distance(cloud.positions) < 0.0)


def damage_field(
    family: QuadratureFamily, nbrs: Neighborhoods, weights: np.ndarray
) -> np.ndarray:
    """Per-node damage: one minus the surviving share of absolute quadrature weight.

    ``weights`` are the surviving pair weights (``BondSet.modified_weights``).
    Quadrature weights can be negative, so the share is taken of ``|w|``,
    which keeps damage in [0, 1].  Nodes without computed weights report
    NaN, among them the nodes removed from a hole, which get no weights;
    a node whose weights are all zero is fully damaged by convention.
    """
    row, n = nbrs.row_index, nbrs.n_points
    w = np.where(family.computed[row], np.abs(family.weights), 0.0)
    total = np.bincount(row, weights=w, minlength=n)
    alive = np.bincount(row, weights=np.abs(weights), minlength=n)
    nonzero = total != 0.0
    damage = np.where(nonzero, 1.0 - alive / np.where(nonzero, total, 1.0), 1.0)
    damage[~family.computed] = np.nan
    return damage


def dissection_order(
    positions: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric nested-dissection order of the nodes at ``positions``.

    A part of more than ``DISSECTION_LEAF`` nodes is cut at the median of
    its longer axis.  The nodes within ``delta / 2`` of the cut form its
    separator, so no bond (at most ``delta`` long) joins the two sides.
    The left side is ordered first, then the right side, each by the same
    rule, then the separator: eliminating in this order keeps the LU fill
    of either side out of the other.

    Returns the order and, per part (an uncut leaf or a separator, in
    this postorder), its end offset in the order and its parent part:
    part ``k`` is ``order[part_end[k - 1]:part_end[k]]``, and a cut's two
    sides are the subtrees of its separator's two children.  The last
    part is the root, with parent -1.
    """
    parts, parent = [], []

    def visit(nodes: np.ndarray) -> int:
        if nodes.size > DISSECTION_LEAF:
            p = positions[nodes]
            axis = np.argmax(np.ptp(p, axis=0))
            d = p[:, axis] - np.median(p[:, axis])
            left, right = d < -0.5 * delta, d > 0.5 * delta
            if left.any() and right.any():
                children = visit(nodes[left]), visit(nodes[right])
                nodes = nodes[~(left | right)]
                for child in children:
                    parent[child] = len(parts)
        parts.append(nodes)
        parent.append(-1)
        return len(parts) - 1

    visit(np.arange(len(positions)))
    part_end = np.cumsum([part.size for part in parts], dtype=np.int64)
    return np.concatenate(parts), part_end, np.array(parent, dtype=np.int64)


@dataclass
class DilatationCorrection:
    """First-moment tensors of surviving bonds and their (pseudo)inverses."""

    tensors: np.ndarray
    inverses: np.ndarray
    invertible: np.ndarray
    computed: np.ndarray


def compute_moment_tensors(
    nbrs: Neighborhoods,
    family: QuadratureFamily,
    weights: np.ndarray,
) -> DilatationCorrection:
    """Assemble ``M_i = (d/m) sum_j K z (x) z w~`` where weights were computed.

    ``weights`` are the surviving pair weights ``w~``.  On a full intact
    ball the moment constraints force ``M_i`` to the identity.  With
    bonds missing, ``M_i`` deviates and its inverse restores affine
    exactness of the dilatation.  Tensors whose smallest singular value
    falls below ``MOMENT_COND_TOL`` times the largest get a
    pseudo-inverse instead and are flagged.
    """
    n = nbrs.n_points
    computed = family.computed
    i_pair = nbrs.row_index
    z = nbrs.offsets
    fac = DIM / weighted_volume(nbrs.delta) * weights / nbrs.distances

    M = np.zeros((n, 2, 2))
    M[:, 0, 0] = np.bincount(i_pair, weights=fac * z[:, 0] * z[:, 0], minlength=n)
    M[:, 0, 1] = np.bincount(i_pair, weights=fac * z[:, 0] * z[:, 1], minlength=n)
    M[:, 1, 1] = np.bincount(i_pair, weights=fac * z[:, 1] * z[:, 1], minlength=n)
    M[:, 1, 0] = M[:, 0, 1]

    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 1, 1]
    det = a * c - b * b
    half_tr = 0.5 * (a + c)
    root = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    eig_lo = half_tr - root
    eig_hi = half_tr + root
    smax = np.maximum(np.abs(eig_lo), np.abs(eig_hi))
    smin = np.minimum(np.abs(eig_lo), np.abs(eig_hi))
    invertible = computed & (smax > 0.0) & (smin > MOMENT_COND_TOL * smax)

    inv = np.zeros_like(M)
    ok = invertible
    inv[ok, 0, 0] = c[ok] / det[ok]
    inv[ok, 1, 1] = a[ok] / det[ok]
    inv[ok, 0, 1] = -b[ok] / det[ok]
    inv[ok, 1, 0] = -b[ok] / det[ok]
    for idx in np.nonzero(computed & ~invertible)[0]:
        inv[idx] = np.linalg.pinv(M[idx], rcond=MOMENT_COND_TOL)

    return DilatationCorrection(
        tensors=M, inverses=inv, invertible=invertible, computed=computed.copy()
    )


@dataclass
class Discretization:
    """The material-free geometry of one point cloud.

    ``weights`` are the surviving pair weights, ``bonds.modified_weights``
    of ``family``, computed once; ``correction`` and ``damage`` are built
    from them.  ``order``, ``part_end`` and ``part_parent`` are the
    ``dissection_order`` of the nodes.  Any material on this cloud is
    assembled from this record.
    """

    cloud: PointCloud
    nbrs: Neighborhoods
    family: QuadratureFamily
    bonds: BondSet
    weights: np.ndarray
    correction: DilatationCorrection
    damage: np.ndarray
    order: np.ndarray
    part_end: np.ndarray
    part_parent: np.ndarray


@dataclass
class BlockSystem:
    """Sparse square system over interior displacements and dilatations.

    The first ``2 * n_u_points`` unknowns interleave (ux, uy) per
    interior node; the remaining ``n_theta`` are dilatation values.
    ``u_index`` and ``theta_index`` map node ids to slots (-1 where a
    node carries no unknown of that kind).  ``order`` is the order in
    which the unknowns are factored: node by node in the discretization's
    order, each node's (ux, uy, theta) together.  ``part_end`` and
    ``part_parent`` are the discretization's dissection parts, with each
    part's end offset counted in ``order``.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    u_index: np.ndarray
    theta_index: np.ndarray
    n_u_points: int
    n_theta: int
    order: np.ndarray
    part_end: np.ndarray
    part_parent: np.ndarray

    @property
    def n_unknowns(self) -> int:
        return 2 * self.n_u_points + self.n_theta

    def extract_u(self, x: np.ndarray) -> np.ndarray:
        """Scatter the solved displacements back onto the cloud (NaN elsewhere)."""
        n = len(self.u_index)
        u = np.full((n, 2), np.nan)
        has = self.u_index >= 0
        u[has, 0] = x[2 * self.u_index[has]]
        u[has, 1] = x[2 * self.u_index[has] + 1]
        return u

    def extract_theta(self, x: np.ndarray) -> np.ndarray:
        n = len(self.theta_index)
        th = np.full(n, np.nan)
        has = self.theta_index >= 0
        th[has] = x[2 * self.n_u_points + self.theta_index[has]]
        return th


def _pair_coefficients(disc: Discretization, material: MaterialField):
    """Per-bond coefficient arrays shared by assembly and application.

    Returns the dilatation-force vector ``A`` (scales theta_i + theta_j),
    the bond-force factor such that the matrix contribution is
    ``s_fac * z (x) z`` acting on ``u_j - u_i``, and the corrected
    dilatation row vector ``c`` (so theta_i = sum_j c . (u_j - u_i)).
    """
    nbrs = disc.nbrs
    wt = disc.weights
    i_pair = nbrs.row_index
    j_pair = nbrs.indices
    z = nbrs.offsets
    r = nbrs.distances
    kernel = 1.0 / r
    m = weighted_volume(disc.cloud.delta)

    lam_p = _harmonic_mean(material.lam[i_pair], material.lam[j_pair])
    mu_p = _harmonic_mean(material.mu[i_pair], material.mu[j_pair])

    a_vec = (C_ALPHA / m) * ((lam_p - mu_p) * kernel * wt)[:, None] * z
    s_fac = (C_BETA / m) * mu_p * kernel * wt / r**2

    c_fac = (DIM / m) * kernel * wt
    c_vec = c_fac[:, None] * np.einsum(
        "pab,pb->pa", disc.correction.inverses[i_pair], z
    )
    return a_vec, s_fac, c_vec


def assemble_system(
    disc: Discretization,
    material: MaterialField,
    dirichlet: np.ndarray,
    forcing: np.ndarray,
) -> BlockSystem:
    """Build the sparse block system with collar data folded into the RHS.

    Momentum rows are written for present interior nodes; dilatation
    rows for every present node with quadrature weights.  Every value
    has a column: the unknowns in ``BlockSystem`` order, then the
    displacements of all other nodes.  The matrix is the unknowns'
    columns; the others, applied to ``dirichlet`` (evaluated at the
    perturbed positions), move to the RHS, so ``dirichlet`` must be
    finite wherever they have an entry.
    """
    cloud, nbrs = disc.cloud, disc.nbrs
    n = cloud.n_points
    present = disc.bonds.present
    u_unknown = cloud.interior & present
    theta_mask = disc.family.computed & present

    n_u, n_theta = int(u_unknown.sum()), int(theta_mask.sum())
    n_tot = 2 * n_u + n_theta
    u_index = np.full(n, -1, dtype=np.int64)
    u_index[u_unknown] = np.arange(n_u)
    theta_index = np.full(n, -1, dtype=np.int64)
    theta_index[theta_mask] = np.arange(n_theta)
    # Column of each node's ux (uy is the next one) and of its dilatation.
    # int32, because the sparse constructor checks and copies int64 indices.
    known = ~u_unknown
    n_col = n_tot + 2 * (n - n_u)
    u_col = np.empty(n, dtype=np.int32)
    u_col[u_unknown] = np.arange(0, 2 * n_u, 2)
    u_col[known] = np.arange(n_tot, n_col, 2)
    theta_col = (2 * n_u + theta_index).astype(np.int32)

    a_vec, s_fac, c_vec = _pair_coefficients(disc, material)
    i_pair, j_pair = nbrs.row_index, nbrs.indices

    live = disc.weights != 0.0
    if np.any(live & ~(present[i_pair] & present[j_pair])):
        raise AssemblyError("a surviving bond references a removed node")

    # (rows, cols, values) triplets.  A bond's terms in its own node's
    # columns are summed per node, so each node adds one entry there.
    entries = []

    # ---- momentum rows -------------------------------------------------
    mom = live & u_unknown[i_pair]
    mi, mj = i_pair[mom], j_pair[mom]
    if np.any(theta_index[mj] < 0):
        raise AssemblyError("a momentum row references a node with no dilatation")
    za, sf, av = nbrs.offsets[mom], s_fac[mom], a_vec[mom]
    row_m, col_j, own = u_col[mi], u_col[mj], u_col[u_unknown]
    for a in (0, 1):
        sum_a = np.bincount(mi, weights=av[:, a], minlength=n)
        entries.append((row_m + a, theta_col[mj], av[:, a]))
        entries.append((own + a, theta_col[u_unknown], sum_a[u_unknown]))
        for b in (0, 1):
            block = sf * za[:, a] * za[:, b]
            sum_s = np.bincount(mi, weights=block, minlength=n)
            entries.append((row_m + a, col_j + b, block))
            entries.append((own + a, own + b, -sum_s[u_unknown]))

    # ---- dilatation rows ----------------------------------------------
    dil = live & theta_mask[i_pair]
    di, dj, cv = i_pair[dil], j_pair[dil], c_vec[dil]
    row_t, row_d, col_d = theta_col[theta_mask], theta_col[di], u_col[dj]
    entries.append((row_t, row_t, np.ones(n_theta)))
    for b in (0, 1):
        sum_c = np.bincount(di, weights=cv[:, b], minlength=n)
        entries.append((row_d, col_d + b, -cv[:, b]))
        entries.append((row_t, u_col[theta_mask] + b, sum_c[theta_mask]))

    rows, cols, vals = zip(*entries)
    # Column-major: the unknowns' columns are a contiguous leading slice,
    # and the solver reads the matrix's columns without a conversion.
    full = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_tot, n_col),
    ).tocsc()
    # Where lam = mu on both ends of a bond its theta coupling is exactly
    # zero; stored zeros would still widen the solver's fronts.
    full.eliminate_zeros()
    rhs = np.concatenate((forcing[u_unknown].ravel(), np.zeros(n_theta)))
    rhs -= full[:, n_tot:] @ dirichlet[known].ravel()

    # Each node's (ux, uy, theta) columns, -1 where it has no such unknown.
    slots = np.column_stack((u_col, u_col + 1, theta_col))
    slots[known, :2] = -1
    slots[~theta_mask, 2] = -1
    order = slots[disc.order].ravel()
    has = order >= 0

    return BlockSystem(
        matrix=full[:, :n_tot],
        rhs=rhs,
        u_index=u_index,
        theta_index=theta_index,
        n_u_points=n_u,
        n_theta=n_theta,
        order=order[has],
        part_end=np.cumsum(np.r_[0, has])[3 * disc.part_end],
        part_parent=disc.part_parent,
    )


def apply_operator(
    disc: Discretization, material: MaterialField, u_all: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the discrete operator to a displacement given at all nodes.

    First evaluates the corrected dilatation wherever weights exist,
    then the momentum sums at present interior nodes.  This is the
    direct (matrix-free) route; it exists mainly so tests can confront
    the assembled matrix with an independent evaluation.

    Returns
    -------
    momentum : (N, 2) array, NaN at non-interior nodes
    theta : (N,) array, NaN where not computed
    """
    cloud, nbrs, computed = disc.cloud, disc.nbrs, disc.family.computed
    n = cloud.n_points
    a_vec, s_fac, c_vec = _pair_coefficients(disc, material)
    i_pair = nbrs.row_index
    j_pair = nbrs.indices
    du = u_all[j_pair] - u_all[i_pair]

    theta = np.full(n, np.nan)
    contrib = np.einsum("pb,pb->p", c_vec, du)
    th = np.bincount(i_pair, weights=contrib, minlength=n)
    theta[computed] = th[computed]

    mom = np.full((n, 2), np.nan)
    # Dead bonds carry zero coefficients but may point at nodes with no
    # dilatation; zero those values instead of letting 0 * NaN spread.
    theta_fill = np.where(np.isnan(theta), 0.0, theta)
    th_sum = theta_fill[i_pair] + theta_fill[j_pair]
    z = nbrs.offsets
    sdu = s_fac * np.einsum("pb,pb->p", z, du)
    live_int = cloud.interior & disc.bonds.present
    for a in (0, 1):
        dil_term = np.bincount(i_pair, weights=a_vec[:, a] * th_sum, minlength=n)
        bond_term = np.bincount(i_pair, weights=z[:, a] * sdu, minlength=n)
        mom[live_int, a] = dil_term[live_int] + bond_term[live_int]
    return mom, theta
