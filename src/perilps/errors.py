"""Exception types and process exit codes shared across the package.

Every pipeline stage raises its own exception class so that batch runs can
tell a bad configuration apart from, say, a singular linear system.  The CLI
maps each class to a distinct exit code.
"""

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_QUADRATURE",
    "EXIT_ASSEMBLY",
    "EXIT_SOLVE",
    "PerilpsError",
    "ConfigError",
    "QuadratureError",
    "AssemblyError",
    "SolveError",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_ASSEMBLY = 4
EXIT_SOLVE = 5


class PerilpsError(Exception):
    """Base class for pipeline failures."""

    stage = "internal"
    exit_code = 1


class ConfigError(PerilpsError):
    """Invalid run configuration or domain geometry."""

    stage = "config"
    exit_code = EXIT_CONFIG


class QuadratureError(PerilpsError):
    """Quadrature weight computation failed its exactness certificate."""

    stage = "quadrature"
    exit_code = EXIT_QUADRATURE


class AssemblyError(PerilpsError):
    """Inconsistent discrete system (bad indices, missing data)."""

    stage = "assembly"
    exit_code = EXIT_ASSEMBLY


class SolveError(PerilpsError):
    """Linear solve failed or its residual certificate was violated."""

    stage = "solve"
    exit_code = EXIT_SOLVE
