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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError

__all__ = [
    "Disk",
    "PointCloud",
    "Neighborhoods",
    "generate_perturbed_lattice",
    "build_neighborhoods",
    "dilatation_nodes",
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
    """Compressed adjacency for all nodes: who sits within the horizon.

    Stored in CSR layout.  For node ``i`` the neighbor ids are
    ``indices[indptr[i]:indptr[i+1]]``, sorted ascending, self excluded.
    ``offsets`` holds the bond vectors ``x_j - x_i`` and ``distances``
    their lengths, precomputed once because every downstream stage
    (quadrature, assembly, damage) walks the same pairs.
    """

    indptr: np.ndarray
    indices: np.ndarray
    offsets: np.ndarray
    distances: np.ndarray
    delta: float
    _row_index: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_points(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_pairs(self) -> int:
        return self.indices.shape[0]

    @property
    def row_index(self) -> np.ndarray:
        """Pair-aligned array mapping each directed bond to its source node."""
        if self._row_index is None:
            counts = np.diff(self.indptr)
            self._row_index = np.repeat(np.arange(self.n_points), counts)
        return self._row_index

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
        Philox key for the jitter draw.

    Returns
    -------
    PointCloud
    """
    if n < 8:
        raise ConfigError(f"lattice resolution n={n} is too coarse (need n >= 8)")
    if delta_factor <= 0.0:
        raise ConfigError(f"delta_factor must be positive, got {delta_factor}")
    if not 0.0 <= perturb_frac < 0.5:
        raise ConfigError(
            f"perturb_frac must lie in [0, 0.5), got {perturb_frac}"
        )

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


def _pairs_within(pos: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Directed pairs ``(i, j)`` with ``0 < |x_j - x_i| <= radius``, sorted.

    The k-d tree's candidate pairs are taken with a slightly enlarged
    radius and then filtered by the exact test on ``x_j - x_i``, so the
    result does not depend on how the tree rounds distances.  Kept apart
    from ``build_neighborhoods`` so that the candidate arrays are freed
    before the bond vectors are formed.
    """
    i, j = cKDTree(pos).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray").T
    diff = pos[j] - pos[i]
    d2 = np.einsum("ij,ij->i", diff, diff)
    hit = (d2 <= radius * radius) & (d2 > 0.0)
    i_arr = np.concatenate([i[hit], j[hit]])
    j_arr = np.concatenate([j[hit], i[hit]])
    perm = np.lexsort((j_arr, i_arr))
    return i_arr[perm], j_arr[perm]


def build_neighborhoods(cloud: PointCloud) -> Neighborhoods:
    """Find all node pairs within the horizon using a k-d tree.

    The radius test is inclusive and coincident nodes (zero distance)
    are excluded along with the node itself.
    """
    pos = cloud.positions
    n = pos.shape[0]
    radius = cloud.delta
    i_arr, j_arr = _pairs_within(pos, radius)

    counts = np.bincount(i_arr, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    offsets = pos[j_arr] - pos[i_arr]
    distances = np.hypot(offsets[:, 0], offsets[:, 1])
    return Neighborhoods(
        indptr=indptr,
        indices=j_arr,
        offsets=offsets,
        distances=distances,
        delta=radius,
    )


def dilatation_nodes(cloud: PointCloud, nbrs: Neighborhoods) -> np.ndarray:
    """Nodes that carry a dilatation: those within one horizon of the square.

    That is every node whose unperturbed center lies within ``delta`` of
    the unit square, plus every neighbor of an interior node: under
    jitter above about a third of ``h`` a momentum row can reach a node
    whose center lies just beyond ``delta``.
    """
    near = cloud.center_distance_to_domain() <= cloud.delta * (1.0 + 1e-12)
    near[nbrs.indices[cloud.interior[nbrs.row_index]]] = True
    return near


def uniformity_metrics(cloud: PointCloud, refine: int = 4) -> tuple[float, float]:
    """Return ``(fill_distance, separation_distance)`` of the cloud.

    The fill distance over the unit square is approximated by sampling a
    lattice refined by ``refine`` in each direction; the separation
    distance is half the minimal pairwise distance, computed exactly.
    """
    tree = cKDTree(cloud.positions)
    step = cloud.h / refine
    g = np.arange(step / 2, 1.0, step)
    sx, sy = np.meshgrid(g, g, indexing="ij")
    samples = np.column_stack([sx.ravel(), sy.ravel()])
    fill = float(tree.query(samples)[0].max())

    nearest = tree.query(cloud.positions, k=2)[0][:, 1]
    separation = float(nearest.min() / 2.0)
    return fill, separation
