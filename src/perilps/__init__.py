"""Meshfree peridynamic solver for 2D plane-strain linear elasticity.

The pipeline: perturbed-lattice point clouds (:mod:`perilps.pointcloud`),
per-node quadrature weights that reproduce horizon-ball integrals
exactly on a small function family (:mod:`perilps.quadrature`), the
bond-based block operator with a broken-bond dilatation correction
(:mod:`perilps.model`), closed-form benchmark fields
(:mod:`perilps.analytic`), a certified sparse solve
(:mod:`perilps.solver`), and benchmark orchestration
(:mod:`perilps.driver`, :mod:`perilps.cli`). The package binds no
names: import each from the module whose ``__all__`` declares it.
"""
