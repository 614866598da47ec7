"""Perturbed-lattice point clouds on the unit square with a Dirichlet collar.

The discretization lives on a square lattice of spacing ``h = 1/n`` whose
cell centers cover the unit square plus a surrounding collar of boundary
nodes.  Each node may be jittered by a uniform random offset of up to
``perturb_frac * h`` per coordinate.  Node roles (interior unknown versus
collar data) are always assigned from the unperturbed cell center, so the
number of interior nodes is deterministic for a given ``n``.  The cloud
knows no hole or inclusion: every benchmark shares it, and a hole is cut
from it later by breaking bonds (:mod:`perilps.model`).

Random offsets come from a Philox counter-based generator, which is
specified bit-for-bit by its key, so a (seed, n) pair reproduces the same
cloud on any platform.

The pairs within one horizon are found by a cell list in numpy alone
(``build_neighborhoods``); only ``uniformity_metrics`` uses a k-d tree.
Rows are kept only for the nodes that can carry a dilatation
(``Neighborhoods.kept``): the outer half of the collar is data that
other nodes' rows read, and its own rows would hold no weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Disk",
    "PointCloud",
    "Neighborhoods",
    "generate_perturbed_lattice",
    "build_neighborhoods",
    "uniformity_metrics",
]


@dataclass(frozen=True)
class Disk:
    """A circle given by center and radius, used for holes and inclusions."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConfigError(f"disk radius must be positive, got {self.radius}")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the circle, negative inside the disk."""
        d = points - np.asarray(self.center)
        return np.hypot(d[:, 0], d[:, 1]) - self.radius


@dataclass
class PointCloud:
    """Point positions plus the lattice metadata they were generated from.

    Attributes
    ----------
    positions : (N, 2) float array
        Perturbed node coordinates, ordered row-major by lattice index.
    h : float
        Lattice spacing ``1/n``.
    delta : float
        Interaction horizon used for neighbor search.
    interior : (N,) bool array
        True where the unperturbed center lies in the open unit square.
    lattice_index : (N, 2) int array
        Integer cell indices; interior nodes have both indices in
        ``[0, n)``, the collar uses negative and ``>= n`` values.
    """

    positions: np.ndarray
    h: float
    delta: float
    interior: np.ndarray
    lattice_index: np.ndarray

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def n_interior(self) -> int:
        return int(self.interior.sum())

    def unperturbed_centers(self) -> np.ndarray:
        return (self.lattice_index + 0.5) * self.h

    def center_distance_to_domain(self) -> np.ndarray:
        """Distance from each unperturbed center to the closed unit square."""
        c = self.unperturbed_centers()
        dx = np.maximum(np.maximum(-c[:, 0], c[:, 0] - 1.0), 0.0)
        dy = np.maximum(np.maximum(-c[:, 1], c[:, 1] - 1.0), 0.0)
        return np.hypot(dx, dy)


@dataclass
class Neighborhoods:
    """Compressed adjacency: who sits within the horizon of each node
    that can carry a dilatation.

    Stored in CSR layout with one row per node of the cloud.  For node
    ``i`` the neighbor ids are ``indices[indptr[i]:indptr[i+1]]``, sorted
    ascending, self excluded; ``row_index`` is the source node of each
    directed bond.  ``kept`` marks the nodes of ``_dilatation_rule``, the
    ones that can carry a dilatation.  The row of a node outside ``kept``
    is empty, though the node still appears as a neighbor in the rows of
    others; the rows of two kept nodes agree on their bond, and a kept
    node may still have an empty row when no other node lies within its
    horizon.  ``offsets`` holds the bond vectors ``x_j - x_i`` and
    ``distances`` their lengths, precomputed once because every
    downstream stage (quadrature, assembly, damage) walks the same pairs.
    """

    indptr: np.ndarray
    indices: np.ndarray
    row_index: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    kept: np.ndarray
    delta: float

    @property
    def n_points(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_pairs(self) -> int:
        return self.indices.shape[0]

    def pair_slice(self, i: int) -> slice:
        return slice(int(self.indptr[i]), int(self.indptr[i + 1]))


def generate_perturbed_lattice(
    n: int,
    delta_factor: float = 3.5,
    perturb_frac: float = 0.2,
    seed: int = 0,
) -> PointCloud:
    """Build the perturbed lattice covering the unit square and its collar.

    Parameters
    ----------
    n : int
        Number of lattice cells per side of the unit square; ``h = 1/n``.
    delta_factor : float
        Horizon in units of ``h``.  The collar of data nodes is two
        horizons wide, so that every node that carries a dilatation
        keeps a full neighborhood ball.
    perturb_frac : float
        Per-coordinate jitter amplitude in units of ``h``, in ``[0, 0.5)``.
    seed : int
        Philox key for the jitter draw, in ``[0, 2**128)``.

    Returns
    -------
    PointCloud
    """
    if n < 8:
        raise ConfigError(f"lattice resolution n={n} is too coarse (need n >= 8)")
    if not 0.0 < delta_factor < math.inf:
        raise ConfigError(f"delta_factor must be positive and finite, got {delta_factor}")
    if not 0.0 <= perturb_frac < 0.5:
        raise ConfigError(
            f"perturb_frac must lie in [0, 0.5), got {perturb_frac}"
        )
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must lie in [0, 2**128), got {seed}")

    h = 1.0 / n
    delta = delta_factor * h
    collar_width = 2.0 * delta
    layers = int(math.ceil(collar_width / h - 1e-12))
    if 2 * delta_factor >= n:
        raise ConfigError(
            f"n={n} cannot accommodate a {collar_width:g}-wide collar"
        )

    side = np.arange(-layers, n + layers)
    ii, jj = np.meshgrid(side, side, indexing="ij")
    lattice_index = np.column_stack([ii.ravel(), jj.ravel()])
    centers = (lattice_index + 0.5) * h

    rng = np.random.Generator(np.random.Philox(key=seed))
    offsets = rng.uniform(-perturb_frac * h, perturb_frac * h, size=centers.shape)
    positions = centers + offsets

    interior = np.all((lattice_index >= 0) & (lattice_index < n), axis=1)

    return PointCloud(
        positions=positions,
        h=h,
        delta=delta,
        interior=interior,
        lattice_index=lattice_index,
    )


#: The half stencil of the cell list: a node's own cell (partners later
#: in the cell order only) and the four cells after it, so that every
#: unordered pair of adjacent cells is visited once.
_HALF_STENCIL = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))


def _dilatation_rule(cloud: PointCloud, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The nodes that can carry a dilatation: those whose unperturbed
    center lies within ``delta`` of the square, and every neighbor of an
    interior node (under jitter above about a third of ``h`` a momentum
    row can reach a node whose center lies just beyond ``delta``).  The
    pairs ``(i, j)`` must hold every bond of every interior node, in
    either direction or in both."""
    near = cloud.center_distance_to_domain() <= cloud.delta * (1.0 + 1e-12)
    near[j[cloud.interior[i]]] = True
    near[i[cloud.interior[j]]] = True
    return near


def _pairs_within(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed pairs ``(i, j)`` with ``0 < |x_j - x_i| <= delta``, sorted,
    for the nodes ``i`` of ``_dilatation_rule``, and the rule's node mask.

    A cell list (the linked-cell method): the nodes are binned into square
    cells of width ``delta * (1 + 1e-9)``, so a pair within the radius
    lies in one cell or in two adjacent ones even where the binning
    rounds, and each unordered candidate pair is met once over the half
    stencil.  The candidates are then filtered by the exact test on
    ``x_j - x_i``.  Cells are looked up by ``searchsorted`` over the
    occupied ones, never as a dense grid, so a tiny radius costs no
    memory.  Each unordered pair gives a direction for each of its kept
    nodes, and one sort of the keys ``i * N + j`` orders them.  Kept
    apart from ``build_neighborhoods`` so that the candidate arrays are
    freed before the bond vectors are formed.
    """
    pos, radius = cloud.positions, cloud.delta
    n = pos.shape[0]
    cell_xy = ((pos - pos.min(axis=0)) / (radius * (1.0 + 1e-9))).astype(np.int64)
    # Columns are padded by an empty cell at either end, so that a
    # neighbor one cell up or down never wraps into the next column.
    ny = int(cell_xy[:, 1].max()) + 3
    cell = cell_xy[:, 0] * ny + cell_xy[:, 1] + 1
    by_cell = np.argsort(cell)
    cell, sorted_pos = cell[by_cell], pos[by_cell]
    # Candidates are pairs (a, b) of positions in the cell order: each a
    # meets every b in lo[a]:hi[a], the nodes of one stencil cell.
    rank = np.arange(n)
    found_a, found_b = [], []
    for dx, dy in _HALF_STENCIL:
        if dx == dy == 0:
            lo = rank + 1
        else:
            lo = np.searchsorted(cell, cell + (dx * ny + dy), side="left")
        hi = np.searchsorted(cell, cell + (dx * ny + dy), side="right")
        counts = hi - lo
        a = np.repeat(rank, counts)
        b = np.arange(a.size) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        # ``take`` gathers rows several times faster than fancy indexing.
        diff = np.take(sorted_pos, b, axis=0) - np.take(sorted_pos, a, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        hit = (d2 <= radius * radius) & (d2 > 0.0)
        found_a.append(a[hit])
        found_b.append(b[hit])
    i, j = by_cell[np.concatenate(found_a)], by_cell[np.concatenate(found_b)]
    kept = _dilatation_rule(cloud, i, j)
    key = np.sort(np.concatenate([(i * n + j)[kept[i]], (j * n + i)[kept[j]]]))
    return *np.divmod(key, n), kept


def build_neighborhoods(cloud: PointCloud) -> Neighborhoods:
    """Find the pairs within the horizon of every node of
    ``_dilatation_rule`` using a cell list; every other row is empty.

    The radius test is inclusive and coincident nodes (zero distance)
    are excluded along with the node itself.
    """
    pos = cloud.positions
    n = pos.shape[0]
    i_arr, j_arr, kept = _pairs_within(cloud)

    counts = np.bincount(i_arr, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    offsets = np.take(pos, j_arr, axis=0) - np.take(pos, i_arr, axis=0)
    distances = np.hypot(offsets[:, 0], offsets[:, 1])
    return Neighborhoods(
        indptr=indptr,
        indices=j_arr,
        row_index=i_arr,
        offsets=offsets,
        distances=distances,
        kept=kept,
        delta=cloud.delta,
    )


def uniformity_metrics(cloud: PointCloud, refine: int = 4) -> tuple[float, float]:
    """Return ``(fill_distance, separation_distance)`` of the cloud.

    The fill distance over the unit square is approximated by sampling a
    lattice refined by ``refine`` in each direction; the separation
    distance is half the minimal pairwise distance, computed exactly.
    Loads ``scipy.spatial`` on the first call; no run needs it.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(cloud.positions)
    step = cloud.h / refine
    g = np.arange(step / 2, 1.0, step)
    sx, sy = np.meshgrid(g, g, indexing="ij")
    samples = np.column_stack([sx.ravel(), sy.ravel()])
    fill = float(tree.query(samples)[0].max())

    nearest = tree.query(cloud.positions, k=2)[0][:, 1]
    separation = float(nearest.min() / 2.0)
    return fill, separation
