"""Walk through the geometry and quadrature layers on a small cloud.

Builds a jittered lattice over the unit square plus its collar, reports
its spacing, computes the per-node quadrature weights, and checks that
they integrate the constant function to the ball area.  Run from the
repository root:

    python3 demos/quadrature_tour.py [--n 24] [--seed 7]
"""

import argparse

import numpy as np

from perilps.pointcloud import build_neighborhoods, generate_perturbed_lattice
from perilps.quadrature import compute_family


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=24, help="lattice resolution")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--perturb", type=float, default=0.2)
    args = parser.parse_args()

    cloud = generate_perturbed_lattice(args.n, perturb_frac=args.perturb, seed=args.seed)
    print(f"cloud: {cloud.n_points} nodes, {cloud.n_interior} interior")
    print(f"  spacing h = {cloud.h:.5f}, horizon delta = {cloud.delta:.5f} (3.5 h)")

    nbrs = build_neighborhoods(cloud)
    counts = np.diff(nbrs.indptr)
    print(f"neighborhoods: {nbrs.n_pairs} directed pairs")
    print(f"  neighbors per node: min {counts.min()}, median {int(np.median(counts))}, "
          f"max {counts.max()}")

    family = compute_family(cloud, nbrs)
    computed = family.computed
    print(f"quadrature weights computed for {int(computed.sum())} nodes "
          f"(those within one horizon of the square)")
    print(f"  worst constraint residual: {float(np.nanmax(family.residual)):.3e}")
    print(f"  weight range: [{float(np.nanmin(family.weights)):.3e}, "
          f"{float(np.nanmax(family.weights)):.3e}]")

    # Every node's weights integrate the constant function to the ball area.
    area = np.pi * cloud.delta**2
    sums = np.array([family.weights[nbrs.pair_slice(i)].sum()
                     for i in np.nonzero(computed)[0]])
    print(f"  weight sums vs ball area: max gap {np.abs(sums - area).max():.3e}")


if __name__ == "__main__":
    main()
