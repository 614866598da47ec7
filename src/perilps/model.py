"""Discrete state-based peridynamic solid model on a point cloud.

The model splits into material-free geometry and physics.  A
``Discretization`` holds everything that depends on the point cloud
alone: neighborhoods, quadrature weights, broken bonds and removed
nodes, the surviving pair weights, the dilatation correction and the
damage.  A hole is nothing but broken bonds and removed nodes on the
shared cloud (``break_bonds_crossing_circle``, ``hole_removal_mask``).
The material enters only through the pair moduli of
``assemble_system``, so one discretization serves any number of
materials on the same cloud.

The unknowns are the displacements of present interior nodes plus a
nonlocal dilatation value at every present node with quadrature weights.
The geometry fixes them, so their scalar layout is made once, on the
front tree (``FrontTree.slots``), and every system reads it there.
Momentum balance couples a dilatation (volumetric) force term with a
bond-stretch (deviatoric) term; the dilatation itself is defined by a
weighted bond sum and kept consistent through its own block of
equations rather than eliminated.

When bonds are severed (free surfaces modeled by bond breaking) the
bond sums lose their full-ball symmetry.  A per-node first-moment
tensor built from the surviving bonds restores exactness of the
dilatation for affine deformations; on intact full balls that tensor is
the identity and the correction is a no-op.

Every equation couples two nodes joined by a bond, or a node with
itself.  So the block system stores one 3x3 block per directed bond,
aligned with the neighbor lists, plus one diagonal block per node; the
rows of a block are a node's (x-momentum, y-momentum, dilatation)
equations and its columns the other node's (ux, uy, theta).  The
assembly forms each block entry once from per-bond factors, and in one
pass sums it into the diagonal and the right-hand side and writes it
into the blocks; a scalar sparse matrix exists only on request
(``BlockSystem.matrix``).  Every bond is at most one horizon long, so
the geometry also fixes a nested-dissection tree of the nodes
(``dissection_order``) and the block pattern: the pairs whose blocks
may hold an entry (``front_tree``).  Neither depends on the material,
so the solver's symbolic pass over them is made at the first solve and
kept on the tree (``FrontTree.plans``), not redone per material.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssemblyError, ConfigError
from .pointcloud import Neighborhoods, PointCloud
from .quadrature import QuadratureFamily, weighted_volume

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "C_ALPHA",
    "C_BETA",
    "DIM",
    "MaterialField",
    "BondSet",
    "DilatationCorrection",
    "Discretization",
    "BlockSystem",
    "FrontTree",
    "front_tree",
    "break_bonds_crossing_circle",
    "hole_removal_mask",
    "damage_field",
    "dissection_order",
    "compute_moment_tensors",
    "assemble_system",
]

#: Smallest singular value of a moment tensor, relative to its largest,
#: below which the tensor is rejected as ill-conditioned.
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


def _pair_mean(modulus: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Harmonic mean 2 / (1/a + 1/b) of a per-node modulus over each bond's
    nodes, with the limit value 0 where a modulus is 0 (lam)."""
    a, b = np.take(modulus, i), np.take(modulus, j)
    s = a + b
    a *= 2.0
    a *= b
    del b
    out = np.zeros_like(s)
    np.divide(a, s, out=out, where=s > 0.0)
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
class FrontTree:
    """What the geometry fixes of the solver's multifrontal LU.

    ``order``, ``part_end`` and ``part_parent`` are a ``dissection_order``
    of the nodes.  ``pairs`` indexes the pairs (into the neighbor lists)
    whose blocks may hold an entry of a system: the surviving bonds with
    a node that carries displacements.  ``slots`` is the scalar layout
    of every system on the geometry: (N, 3), the unknown of each node's
    (ux, uy, theta), -1 where the node carries none.  The (ux, uy) of
    the present interior nodes come first, interleaved, then the
    dilatations of the present nodes with weights, each in node order.

    ``plans`` holds the solver's symbolic pass over this tree, one per
    number of unknown kinds solved for (2 or 3 of each node's first).
    The first solve makes each, and every later solve on the tree reads
    it.
    """

    order: np.ndarray
    part_end: np.ndarray
    part_parent: np.ndarray
    pairs: np.ndarray
    slots: np.ndarray
    plans: dict = field(default_factory=dict, repr=False, compare=False)


def front_tree(
    cloud: PointCloud,
    nbrs: Neighborhoods,
    family: QuadratureFamily,
    bonds: BondSet,
    weights: np.ndarray,
) -> FrontTree:
    """The cloud's ``dissection_order``, the pairs whose blocks may hold an
    entry (those whose bond survives and one of whose nodes carries
    displacement unknowns) and the layout of the unknowns."""
    u_node = cloud.interior & bonds.present
    theta_node = family.computed & bonds.present
    coupled = (weights != 0.0) & (u_node[nbrs.row_index] | u_node[nbrs.indices])
    slots = np.full((cloud.n_points, 3), -1, dtype=np.int64)
    n_u = 2 * int(u_node.sum())
    slots[u_node, :2] = np.arange(n_u).reshape(-1, 2)
    slots[theta_node, 2] = np.arange(n_u, n_u + int(theta_node.sum()))
    order = dissection_order(cloud.positions, cloud.delta)
    return FrontTree(*order, pairs=np.flatnonzero(coupled), slots=slots)


@dataclass
class DilatationCorrection:
    """First-moment tensors of surviving bonds and their inverses.

    ``invertible`` and ``computed`` mark the nodes whose tensor was
    inverted and the nodes with weights; ``compute_moment_tensors``
    rejects any computed node whose tensor is not invertible.
    """

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
    exactness of the dilatation.

    Raises
    ------
    AssemblyError
        If a tensor's smallest singular value falls below
        ``MOMENT_COND_TOL`` times its largest: the surviving bonds of
        that node do not span the plane.
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
    bad = computed & ~invertible
    if bad.any():
        raise AssemblyError(
            f"{int(bad.sum())} moment tensors are ill-conditioned "
            f"(first: node {int(np.argmax(bad))}); their surviving bonds do not span the plane"
        )

    inv = np.zeros_like(M)
    ok = invertible
    inv[ok, 0, 0] = c[ok] / det[ok]
    inv[ok, 1, 1] = a[ok] / det[ok]
    inv[ok, 0, 1] = -b[ok] / det[ok]
    inv[ok, 1, 0] = -b[ok] / det[ok]

    return DilatationCorrection(
        tensors=M, inverses=inv, invertible=invertible, computed=computed.copy()
    )


@dataclass
class Discretization:
    """The material-free geometry of one point cloud.

    ``weights`` are the surviving pair weights, ``bonds.modified_weights``
    of ``family``, computed once; ``correction`` and ``damage`` are built
    from them.  ``fronts`` is their ``front_tree``: the nodes'
    ``dissection_order`` and the pairs whose blocks may hold an entry.
    Any material on this cloud is assembled from this record.
    """

    cloud: PointCloud
    nbrs: Neighborhoods
    family: QuadratureFamily
    bonds: BondSet
    weights: np.ndarray
    correction: DilatationCorrection
    damage: np.ndarray
    fronts: FrontTree


@dataclass
class BlockSystem:
    """Square sparse system over interior displacements and dilatations.

    The scalar unknowns are laid out by ``fronts.slots``, the
    discretization's ``FrontTree``, and ``rhs`` is in that layout.

    The matrix is stored by bond, in the order of the neighbor lists:
    ``blocks[p]`` couples the equations of node ``row_index[p]`` (rows
    x-momentum, y-momentum, dilatation) to the unknowns (ux, uy, theta)
    of its neighbor ``indices[p]``; ``diag[i]`` couples node ``i`` to
    itself.  Rows and columns of unknowns a node does not carry hold
    zeros.  ``row_index`` and ``indices`` are the ``Neighborhoods``'
    arrays, not copies.
    """

    row_index: np.ndarray
    indices: np.ndarray
    blocks: np.ndarray
    diag: np.ndarray
    rhs: np.ndarray
    fronts: FrontTree

    @property
    def n_unknowns(self) -> int:
        return self.rhs.size

    def extract(self, x: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """(N, 3) each node's (ux, uy, theta) in ``x``, ``fill`` where absent."""
        slots = self.fronts.slots
        has = slots >= 0
        out = np.full(slots.shape, fill)
        out[has] = x[slots[has]]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product of the matrix with ``x``, both in the scalar layout."""
        slots = self.fronts.slots
        has = slots >= 0
        n = has.shape[0]
        xs = self.extract(x, 0.0)
        bonds = np.einsum("pab,pb->pa", self.blocks, np.take(xs, self.indices, axis=0))
        y = np.einsum("iab,ib->ia", self.diag, xs)
        for a in range(3):
            y[:, a] += np.bincount(self.row_index, weights=bonds[:, a], minlength=n)
        out = np.empty(self.n_unknowns)
        out[slots[has]] = y[has]
        return out

    def theta_rows(self, x: np.ndarray) -> np.ndarray:
        """The displacement terms of the dilatation rows of the product with
        ``x``, from ``blocks[:, 2, :2]`` and ``diag[:, 2, :2]`` only: one
        value per node that carries a dilatation, in node order.  Where the
        dilatations of ``x`` are zero they are the whole rows."""
        us = self.extract(x, 0.0)[:, :2]
        bonds = np.einsum("pb,pb->p", self.blocks[:, 2, :2], np.take(us, self.indices, axis=0))
        y = np.einsum("ib,ib->i", self.diag[:, 2, :2], us)
        y += np.bincount(self.row_index, weights=bonds, minlength=us.shape[0])
        return y[self.fronts.slots[:, 2] >= 0]

    @property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """The matrix over the scalar unknowns, with no stored zeros.

        Built on each access; the solver never forms it.  Loads
        ``scipy.sparse`` on the first access, so a run that never reads
        it never imports it.
        """
        import scipy.sparse as sp

        slots = self.fronts.slots
        node = np.arange(slots.shape[0])
        rows = np.r_[self.row_index, node]
        cols = np.r_[self.indices, node]
        vals = np.concatenate((self.blocks, self.diag))
        r = np.broadcast_to(slots[rows][:, :, None], vals.shape)
        c = np.broadcast_to(slots[cols][:, None, :], vals.shape)
        keep = (vals != 0.0) & (r >= 0) & (c >= 0)
        shape = (self.n_unknowns, self.n_unknowns)
        return sp.csr_matrix((vals[keep], (r[keep], c[keep])), shape=shape)


def _pair_entries(disc: Discretization, material: MaterialField):
    """The entries of the per-bond 3x3 blocks, one at a time, as ``(a, b, values)``.

    Rows ``a`` are node ``i``'s x-momentum, y-momentum and dilatation;
    columns ``b`` the neighbor's (ux, uy, theta).  With ``B`` the block
    of bond (i, j), the momentum of ``i`` sums ``B[:2, :2] (u_j - u_i)``
    (the bond force, ``s z (x) z``) and ``B[:2, 2] (theta_i + theta_j)``
    (the dilatation force), and ``theta_i`` sums ``-B[2, :2] . (u_j - u_i)``
    (the corrected dilatation).  ``B[2, 2]`` is zero and not yielded.

    Each ``values`` is a new per-bond array.  Beside it the generator
    keeps at most three per-bond factors, so a caller that drops each
    entry before taking the next never holds all eight.  Within a row,
    column 0 comes before column 1.
    """
    nbrs = disc.nbrs
    i_pair, wt, r = nbrs.row_index, disc.weights, nbrs.distances
    z = (nbrs.offsets[:, 0], nbrs.offsets[:, 1])
    m = weighted_volume(disc.cloud.delta)

    # The factors (C_ALPHA / m) ((lam_p - mu_p) k w), (C_BETA / m) mu_p k w
    # / r^2 and -(DIM / m) k w, with the kernel k = 1 / r, are formed in
    # place, one product at a time in that order.
    a_fac = _pair_mean(material.lam, i_pair, nbrs.indices)
    s_fac = _pair_mean(material.mu, i_pair, nbrs.indices)
    kernel = 1.0 / r
    a_fac -= s_fac
    a_fac *= kernel
    a_fac *= wt
    a_fac *= C_ALPHA / m
    for a in range(2):
        yield a, 2, a_fac * z[a]
    del a_fac

    s_fac *= C_BETA / m
    s_fac *= kernel
    s_fac *= wt
    s_fac /= r**2
    for a in range(2):
        for b in range(2):
            yield a, b, s_fac * z[a] * z[b]
    del s_fac

    c_fac = kernel
    c_fac *= DIM / m
    c_fac *= wt
    np.negative(c_fac, out=c_fac)
    inverses = disc.correction.inverses
    for b in range(2):
        values = np.take(inverses[:, b, 0], i_pair)
        values *= z[0]
        other = np.take(inverses[:, b, 1], i_pair)
        other *= z[1]
        values += other
        del other
        values *= c_fac
        yield 2, b, values
        del values


def assemble_system(
    disc: Discretization,
    material: MaterialField,
    dirichlet: np.ndarray,
    forcing: np.ndarray,
) -> BlockSystem:
    """Build the block system with collar data folded into the RHS.

    Momentum rows are written for present interior nodes; dilatation
    rows for every present node with quadrature weights.  The terms on
    the displacements of all other nodes, applied to ``dirichlet``
    (evaluated at the perturbed positions), move to the RHS, so
    ``dirichlet`` must be finite wherever a surviving bond of such a row
    reaches.  The unknowns are those of ``disc.fronts.slots``.
    """
    nbrs, slots = disc.nbrs, disc.fronts.slots
    n = nbrs.n_points
    present = disc.bonds.present
    has = slots >= 0
    u_unknown, theta_mask = has[:, 0], has[:, 2]

    i_pair, j_pair = nbrs.row_index, nbrs.indices
    live = disc.weights != 0.0
    if np.any(live & ~(present[i_pair] & present[j_pair])):
        raise AssemblyError("a surviving bond references a removed node")
    if np.any(live & u_unknown[i_pair] & ~theta_mask[j_pair]):
        raise AssemblyError("a momentum row references a node with no dilatation")

    # One pass per entry: it is summed into the diagonal and into the
    # collar data, then written masked into the blocks.  A node's own
    # terms are the sums of its bonds' terms: minus for the displacement
    # columns of both row kinds, plus for the dilatation column of the
    # momentum rows.  The displacement columns of nodes without
    # displacement unknowns hold data, which moves to the RHS.  Only
    # interior nodes have momentum rows: the blocks keep no other, and the
    # other nodes' sums are dropped below.
    u_row, u_col = u_unknown[i_pair], u_unknown[j_pair]
    u_both = u_row & u_col
    data = np.flatnonzero(live & ~u_col)
    data_u = np.take(dirichlet, j_pair[data], axis=0)
    moved = np.empty((data.size, 3))
    blocks = np.empty((nbrs.n_pairs, 3, 3))
    blocks[:, 2, 2] = 0.0
    diag = np.zeros((n, 3, 3))
    for a, b, values in _pair_entries(disc, material):
        total = np.bincount(i_pair, weights=values, minlength=n)
        if b == 2:
            diag[:, a, b] = total
        else:
            diag[:, a, b] = -total
            term = values[data] * data_u[:, b]
            if b == 0:
                moved[:, a] = term
            else:
                moved[:, a] += term
        kept = u_col if a == 2 else u_row if b == 2 else u_both
        np.multiply(values, kept, out=blocks[:, a, b])
        # Dropped before the generator makes the next entry.
        del values
    diag[theta_mask, 2, 2] = 1.0

    rhs = np.zeros((n, 3))
    rhs[u_unknown, :2] = forcing[u_unknown]
    for a in range(3):
        rhs[:, a] -= np.bincount(i_pair[data], weights=moved[:, a], minlength=n)
    own = theta_mask & ~u_unknown
    rhs[own, 2] -= np.einsum("ib,ib->i", diag[own, 2, :2], dirichlet[own])
    diag[~u_unknown, :2] = 0.0
    diag[~u_unknown, 2, :2] = 0.0

    b = np.empty(int(has.sum()))
    b[slots[has]] = rhs[has]
    return BlockSystem(
        row_index=i_pair, indices=j_pair, blocks=blocks, diag=diag, rhs=b, fronts=disc.fronts
    )

