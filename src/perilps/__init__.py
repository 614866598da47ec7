"""Meshfree peridynamic solver for 2D plane-strain linear elasticity.

The pipeline: perturbed-lattice point clouds (:mod:`perilps.pointcloud`),
per-node quadrature weights that reproduce horizon-ball integrals
exactly on a small function family (:mod:`perilps.quadrature`), the
bond-based block operator with a broken-bond dilatation correction
(:mod:`perilps.model`), closed-form benchmark fields
(:mod:`perilps.analytic`), a certified sparse solve
(:mod:`perilps.solver`), and benchmark orchestration
(:mod:`perilps.driver`).
"""

from .analytic import (
    AnalyticCase,
    ElasticModuli,
    HoleParams,
    InclusionParams,
    hole_displacement,
    inclusion_coefficients,
    inclusion_displacement,
    make_hole_case,
    make_inclusion_case,
    make_patch_case,
    make_smooth_case,
    manufactured_poly,
    manufactured_trig,
    moduli_from_E_nu,
    moduli_from_K_nu,
)
from .driver import (
    ConvergenceReport,
    RunConfig,
    RunResult,
    build_discretization,
    convergence_ladder,
    run_case,
    sweep_contrast,
)
from .errors import AssemblyError, ConfigError, PerilpsError, QuadratureError, SolveError
from .model import (
    BlockSystem,
    BondSet,
    DilatationCorrection,
    Discretization,
    FrontTree,
    MaterialField,
    assemble_system,
    break_bonds_crossing_circle,
    hole_removal_mask,
    compute_moment_tensors,
    damage_field,
    dissection_order,
    front_tree,
)
from .pointcloud import (
    Disk,
    Neighborhoods,
    PointCloud,
    build_neighborhoods,
    generate_perturbed_lattice,
)
from .quadrature import (
    ConstraintBasis,
    QuadratureFamily,
    ball_monomial_moment,
    compute_family,
    exact_ball_moments,
    weighted_volume,
)
from .solver import SolveReport, rms_norm, solve

__version__ = "0.1.0"
