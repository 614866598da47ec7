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

The pairs within one horizon are found by lattice offset in numpy alone
(``build_neighborhoods``): every node lies within ``h/2`` of its cell
center, so a node's neighbors sit at a fixed stencil of offsets on the
lattice.
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


def _dilatation_rule(cloud: PointCloud, linked: np.ndarray) -> np.ndarray:
    """The nodes that can carry a dilatation: those whose unperturbed
    center lies within ``delta`` of the square, and every neighbor of an
    interior node (under jitter above about a third of ``h`` a momentum
    row can reach a node whose center lies just beyond ``delta``).
    ``linked`` marks the nodes with an interior node within ``delta``."""
    return linked | (cloud.center_distance_to_domain() <= cloud.delta * (1.0 + 1e-12))


def _stencil(cloud: PointCloud, shape: np.ndarray) -> np.ndarray:
    """The lattice offsets ``(di, dj)`` at which two nodes can lie within
    ``delta`` of each other, in the order of ``di * cols + dj``.

    Two nodes at offset ``di`` lie at least ``|di| h - s`` apart in x,
    where ``s`` is the spread of the jitter ``x - center`` in x over the
    cloud, and likewise in y; on a generated lattice ``s`` stays below
    ``2 * perturb_frac * h``.  The reach carries a margin of ``1e-9``, so
    that rounding cannot drop a pair that sits exactly on the horizon.
    No offset spans the grid, whose ``shape`` is (rows, cols).
    """
    # One contiguous row per coordinate: numpy reduces the short axis of
    # an (N, 2) array many times slower.
    jitter = np.ascontiguousarray((cloud.positions - cloud.unperturbed_centers()).T)
    spread = (jitter.max(axis=1) - jitter.min(axis=1)) / cloud.h
    reach = cloud.delta * (1.0 + 1e-9) / cloud.h
    span = np.minimum(np.floor(reach + spread).astype(np.int64), shape - 1)
    di, dj = np.meshgrid(*(np.arange(-s, s + 1) for s in span), indexing="ij")
    gap_x = np.maximum(np.abs(di) - spread[0], 0.0)
    gap_y = np.maximum(np.abs(dj) - spread[1], 0.0)
    near = (gap_x * gap_x + gap_y * gap_y <= reach * reach) & ((di != 0) | (dj != 0))
    return np.column_stack([di[near], dj[near]])


def build_neighborhoods(cloud: PointCloud) -> Neighborhoods:
    """Find the pairs within the horizon of every node of
    ``_dilatation_rule`` by lattice offset; every other row is empty.

    The nodes form a ``rows x cols`` grid, stored row-major by
    ``lattice_index``, so each offset of ``_stencil`` pairs the grid with
    a shifted copy of itself.  The copy is padded with NaN, which fails
    every test, so that no offset wraps at the grid's edge.  The radius
    test is the exact one on ``x_j - x_i``, inclusive, and coincident
    nodes (zero distance) are excluded along with the node itself.  The
    hits fill a (node x offset) mask, whose nonzero entries come already
    sorted by ``(i, j)``.
    """
    pos, radius = cloud.positions, cloud.delta
    n = pos.shape[0]
    index = cloud.lattice_index
    rows, cols = shape = index[-1] - index[0] + 1
    if rows * cols != n or not np.array_equal(
        index, index[0] + np.column_stack(np.divmod(np.arange(n), cols))
    ):
        raise ConfigError("the nodes must be stored row-major by lattice index")

    stencil = _stencil(cloud, shape)
    pi, pj = np.abs(stencil).max(axis=0, initial=0)
    inner = (slice(pi, pi + rows), slice(pj, pj + cols))
    x, y = np.full((2, rows + 2 * pi, cols + 2 * pj), np.nan)
    x[inner], y[inner] = pos.T.reshape(2, rows, cols)
    interior = np.zeros(x.shape, dtype=bool)
    interior[inner] = cloud.interior.reshape(rows, cols)
    hit = np.empty((rows, cols, len(stencil)), dtype=bool)
    linked = np.zeros((rows, cols), dtype=bool)
    for k, (di, dj) in enumerate(stencil):
        there = (slice(pi + di, pi + di + rows), slice(pj + dj, pj + dj + cols))
        dx, dy = x[there] - x[inner], y[there] - y[inner]
        d2 = dx * dx + dy * dy
        hit[:, :, k] = (d2 <= radius * radius) & (d2 > 0.0)
        linked |= hit[:, :, k] & interior[there]
    kept = _dilatation_rule(cloud, linked.ravel())

    # The flat indices of the mask's hits run in (i, offset) order, which
    # is the (i, j) order of the rows.
    hit = hit.reshape(n, -1) & kept[:, None]
    counts = np.count_nonzero(hit, axis=1)
    i = np.repeat(np.arange(n), counts)
    step = stencil[:, 0] * cols + stencil[:, 1]
    j = i + np.take(step, np.flatnonzero(hit) - i * len(step))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    offsets = np.take(pos, j, axis=0) - np.take(pos, i, axis=0)
    return Neighborhoods(
        indptr=indptr,
        indices=j,
        row_index=i,
        offsets=offsets,
        distances=np.hypot(offsets[:, 0], offsets[:, 1]),
        kept=kept,
        delta=cloud.delta,
    )

