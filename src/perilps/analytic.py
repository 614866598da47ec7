"""Closed-form plane-strain elasticity fields used as benchmark targets.

Four families: a quadratic displacement with constant forcing (patch
test), a trigonometric manufactured pair, the classical traction-free
circular hole under remote uniaxial tension, and the circular elastic
inclusion under remote hydrostatic load.  Each run case bundles a
displacement field, its forcing, and the Lame parameter fields, so the
driver never needs to know which benchmark it is running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "ElasticModuli",
    "moduli_from_K_nu",
    "moduli_from_E_nu",
    "manufactured_poly",
    "manufactured_trig",
    "HoleParams",
    "hole_displacement",
    "InclusionParams",
    "inclusion_coefficients",
    "inclusion_displacement",
    "AnalyticCase",
    "make_patch_case",
    "make_smooth_case",
    "make_hole_case",
    "make_inclusion_case",
]


@dataclass(frozen=True)
class ElasticModuli:
    """Lame parameters (lam, mu) of an isotropic plane-strain material."""

    lam: float
    mu: float

    def __post_init__(self):
        if not np.isfinite((self.lam, self.mu)).all():
            raise ConfigError(f"moduli must be finite, got lam={self.lam}, mu={self.mu}")
        if self.mu <= 0.0:
            raise ConfigError(f"shear modulus must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ConfigError(f"first Lame parameter must be nonnegative, got {self.lam}")

    @property
    def poisson(self) -> float:
        return self.lam / (2.0 * (self.lam + self.mu))

    @property
    def bulk_2d(self) -> float:
        """Plane-strain (2D) bulk modulus ``lam + mu``."""
        return self.lam + self.mu

    @property
    def kappa(self) -> float:
        """Kolosov constant ``3 - 4 nu`` for plane strain."""
        return 3.0 - 4.0 * self.poisson


def moduli_from_K_nu(K: float, nu: float) -> ElasticModuli:
    """Moduli from the 2D bulk modulus ``K = lam + mu`` and Poisson ratio."""
    if not K > 0.0:
        raise ConfigError(f"bulk modulus must be positive, got {K}")
    if not 0.0 <= nu < 0.5:
        raise ConfigError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    return ElasticModuli(lam=2.0 * K * nu, mu=K * (1.0 - 2.0 * nu))


def moduli_from_E_nu(E: float, nu: float) -> ElasticModuli:
    """Moduli from Young's modulus and Poisson ratio (plane strain)."""
    if not E > 0.0:
        raise ConfigError(f"Young's modulus must be positive, got {E}")
    if not 0.0 <= nu < 0.5:
        raise ConfigError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return ElasticModuli(lam=lam, mu=mu)


#: Moduli the patch test is defined with.
PATCH_MODULI = ElasticModuli(lam=0.5, mu=0.5)


def manufactured_poly(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic displacement ``(x^2, 4 y^2)`` and its forcing.

    The forcing is the divergence of the local stress,
    ``(2 lam + 4 mu, 8 lam + 16 mu)``, with the moduli fixed at
    ``lam = mu = 1/2``, so it is the constant vector (3, 12).
    """
    x, y = points[:, 0], points[:, 1]
    u = np.column_stack([x**2, 4.0 * y**2])
    lam, mu = PATCH_MODULI.lam, PATCH_MODULI.mu
    f = np.empty_like(u)
    f[:, 0] = 2.0 * lam + 4.0 * mu
    f[:, 1] = 8.0 * lam + 16.0 * mu
    return u, f


def manufactured_trig(
    points: np.ndarray, moduli: ElasticModuli, frequency: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Smooth field ``(sin wx sin wy, -cos wx cos wy)`` and its forcing.

    The field is divergence-form clean: the stress divergence equals
    ``-2 w^2 (lam + 2 mu) u``, so the forcing is a scalar multiple of
    the displacement itself.  The default frequency of one gives the
    unit-argument form; the benchmark driver runs the pi-frequency
    variant, whose error magnitudes the published convergence tables
    correspond to.
    """
    w = frequency
    x, y = w * points[:, 0], w * points[:, 1]
    u = np.column_stack([np.sin(x) * np.sin(y), -np.cos(x) * np.cos(y)])
    f = -2.0 * w**2 * (moduli.lam + 2.0 * moduli.mu) * u
    return u, f


@dataclass(frozen=True)
class HoleParams:
    """Traction-free circular hole in an infinite plate under tension.

    Remote uniaxial tension ``tension`` acts along x; the hole of radius
    ``radius`` sits at ``center``.  Plane strain, so the Kolosov constant
    is ``3 - 4 nu``.
    """

    moduli: ElasticModuli
    tension: float = 1.0
    radius: float = 0.2
    center: tuple[float, float] = (0.5, 0.5)


def hole_displacement(points: np.ndarray, params: HoleParams) -> np.ndarray:
    """Displacement of the hole-in-plate solution at the given points.

    The radius is clamped to the hole boundary, so a point inside the
    hole (a jittered node that strays marginally inside the circle, or
    one an ulp inside the rim from ``hypot`` round-off) gets the
    free-surface limit value.
    """
    d = points - np.asarray(params.center)
    a = params.radius
    r = np.maximum(np.hypot(d[:, 0], d[:, 1]), a)
    theta = np.arctan2(d[:, 1], d[:, 0])
    kappa = params.moduli.kappa
    mu = params.moduli.mu
    T = params.tension

    pref = T * a / (8.0 * mu)
    ra = r / a
    ar = a / r
    ar3 = ar**3
    c1, c3 = np.cos(theta), np.cos(3.0 * theta)
    s1, s3 = np.sin(theta), np.sin(3.0 * theta)

    ux = pref * (ra * (kappa + 1.0) * c1 + 2.0 * ar * ((1.0 + kappa) * c1 + c3) - 2.0 * ar3 * c3)
    uy = pref * (ra * (kappa - 3.0) * s1 + 2.0 * ar * ((1.0 - kappa) * s1 + s3) - 2.0 * ar3 * s3)
    return np.column_stack([ux, uy])


@dataclass(frozen=True)
class InclusionParams:
    """Circular inclusion bonded to an infinite matrix, hydrostatic load.

    Phase 1 (``inner``) fills the disk of radius ``radius`` at
    ``center``; phase 2 (``outer``) fills the rest of the plane.
    """

    inner: ElasticModuli
    outer: ElasticModuli
    load: float = 1.0
    radius: float = 0.2
    center: tuple[float, float] = (0.5, 0.5)


def inclusion_coefficients(params: InclusionParams) -> tuple[float, float, float]:
    """The radial-profile coefficients (C_A, C_B, C_C).

    The displacement is purely radial: ``u_r = C_A r`` inside the disk
    and ``u_r = C_B r + C_C / r`` outside.  The constants keep the
    displacement and the radial traction continuous across the
    interface; both phases are in equilibrium with zero body force.
    """
    l1, m1 = params.inner.lam, params.inner.mu
    l2, m2 = params.outer.lam, params.outer.mu
    P = params.load
    a = params.radius
    k1 = l1 + m1
    CA = P / (2.0 * k1)
    CB = P * (l1 + m1 + m2) / (2.0 * k1 * (l2 + 2.0 * m2))
    CC = -P * a**2 * (l1 - l2 + m1 - m2) / (2.0 * k1 * (l2 + 2.0 * m2))
    return CA, CB, CC


def inclusion_displacement(points: np.ndarray, params: InclusionParams) -> np.ndarray:
    """Evaluate the two-phase radial displacement field."""
    CA, CB, CC = inclusion_coefficients(params)
    d = points - np.asarray(params.center)
    r = np.hypot(d[:, 0], d[:, 1])
    inside = r < params.radius

    ur_over_r = np.empty_like(r)
    ur_over_r[inside] = CA
    out = ~inside
    ur_over_r[out] = CB + CC / r[out] ** 2
    # u = (u_r / r) * (x - c); the inside branch is exact at r = 0 too.
    return ur_over_r[:, None] * d


@dataclass(frozen=True)
class AnalyticCase:
    """A benchmark bundle: displacement, forcing and material fields."""

    displacement: Callable[[np.ndarray], np.ndarray]
    forcing: Callable[[np.ndarray], np.ndarray]
    lame_fields: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _homogeneous_fields(moduli: ElasticModuli):
    def fields(points: np.ndarray):
        n = len(points)
        return np.full(n, moduli.lam), np.full(n, moduli.mu)

    return fields


def _zero_forcing(points: np.ndarray) -> np.ndarray:
    return np.zeros((len(points), 2))


def make_patch_case() -> AnalyticCase:
    return AnalyticCase(
        displacement=lambda p: manufactured_poly(p)[0],
        forcing=lambda p: manufactured_poly(p)[1],
        lame_fields=_homogeneous_fields(PATCH_MODULI),
    )


def make_smooth_case(moduli: ElasticModuli, frequency: float = 1.0) -> AnalyticCase:
    return AnalyticCase(
        displacement=lambda p: manufactured_trig(p, moduli, frequency)[0],
        forcing=lambda p: manufactured_trig(p, moduli, frequency)[1],
        lame_fields=_homogeneous_fields(moduli),
    )


def make_hole_case(params: HoleParams) -> AnalyticCase:
    return AnalyticCase(
        displacement=lambda p: hole_displacement(p, params),
        forcing=_zero_forcing,
        lame_fields=_homogeneous_fields(params.moduli),
    )


def make_inclusion_case(params: InclusionParams) -> AnalyticCase:
    center = np.asarray(params.center)

    def fields(points: np.ndarray):
        d = points - center
        inside = np.hypot(d[:, 0], d[:, 1]) < params.radius
        lam = np.where(inside, params.inner.lam, params.outer.lam)
        mu = np.where(inside, params.inner.mu, params.outer.mu)
        return lam, mu

    return AnalyticCase(
        displacement=lambda p: inclusion_displacement(p, params),
        forcing=_zero_forcing,
        lame_fields=fields,
    )
