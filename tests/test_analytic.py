"""Analytic benchmark fields and their governing-equation oracles."""

import math

import numpy as np
import pytest

from perilps.analytic import (
    PATCH_MODULI,
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
from perilps.errors import ConfigError


def fd_div_sigma(displacement, moduli, points, step=1e-5):
    """Divergence of the local stress by central finite differences.

    For a homogeneous isotropic material,
    ``div sigma = mu lap(u) + (lam + mu) grad(div u)``.
    """

    def d2(f, i, j):
        e_i = np.zeros(2)
        e_i[i] = step
        e_j = np.zeros(2)
        e_j[j] = step
        if i == j:
            return (f(points + e_i) - 2.0 * f(points) + f(points - e_i)) / step**2
        return (
            f(points + e_i + e_j)
            - f(points + e_i - e_j)
            - f(points - e_i + e_j)
            + f(points - e_i - e_j)
        ) / (4.0 * step**2)

    uxx = d2(displacement, 0, 0)
    uyy = d2(displacement, 1, 1)
    uxy = d2(displacement, 0, 1)
    lam, mu = moduli.lam, moduli.mu
    out = np.empty((len(points), 2))
    out[:, 0] = mu * (uxx[:, 0] + uyy[:, 0]) + (lam + mu) * (uxx[:, 0] + uxy[:, 1])
    out[:, 1] = mu * (uxx[:, 1] + uyy[:, 1]) + (lam + mu) * (uxy[:, 0] + uyy[:, 1])
    return out


def fd_stress(displacement, moduli, points, step=1e-6):
    """Cauchy stress from finite-difference strains."""
    lam, mu = moduli.lam, moduli.mu

    def d1(i):
        e = np.zeros(2)
        e[i] = step
        return (displacement(points + e) - displacement(points - e)) / (2.0 * step)

    gx = d1(0)
    gy = d1(1)
    exx, eyy = gx[:, 0], gy[:, 1]
    exy = 0.5 * (gx[:, 1] + gy[:, 0])
    tr = exx + eyy
    sxx = lam * tr + 2.0 * mu * exx
    syy = lam * tr + 2.0 * mu * eyy
    sxy = 2.0 * mu * exy
    return sxx, syy, sxy


# ---------------------------------------------------------------------------
# moduli


def test_moduli_from_E_nu_near_incompressible():
    m = moduli_from_E_nu(1.0, 0.495)
    assert m.lam == pytest.approx(33.110367892976586, rel=1e-12)
    assert m.mu == pytest.approx(0.3344481605351171, rel=1e-12)
    assert m.poisson == pytest.approx(0.495, rel=1e-12)


def test_moduli_from_K_nu_roundtrip():
    m = moduli_from_K_nu(2.0, 0.25)
    assert (m.lam, m.mu) == (1.0, 1.0)
    assert m.bulk_2d == pytest.approx(2.0)
    assert m.poisson == pytest.approx(0.25)
    assert m.kappa == pytest.approx(2.0)


def test_constructors_cross_consistent():
    """Both constructors agree when fed matching parameters."""
    nu = 0.3
    a = moduli_from_E_nu(1.7, nu)
    b = moduli_from_K_nu(a.bulk_2d, nu)
    assert a.lam == pytest.approx(b.lam, rel=1e-13)
    assert a.mu == pytest.approx(b.mu, rel=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: moduli_from_K_nu(0.0, 0.25),
        lambda: moduli_from_K_nu(1.0, 0.5),
        lambda: moduli_from_K_nu(1.0, -0.1),
        lambda: moduli_from_E_nu(-1.0, 0.25),
        lambda: ElasticModuli(lam=0.5, mu=0.0),
        lambda: ElasticModuli(lam=-0.5, mu=1.0),
        lambda: ElasticModuli(lam=float("nan"), mu=1.0),
        lambda: ElasticModuli(lam=0.5, mu=float("inf")),
        lambda: moduli_from_K_nu(float("nan"), 0.25),
        lambda: moduli_from_K_nu(float("inf"), 0.25),
        lambda: moduli_from_E_nu(float("nan"), 0.25),
    ],
)
def test_invalid_moduli_raise(call):
    with pytest.raises(ConfigError):
        call()


# ---------------------------------------------------------------------------
# manufactured solutions


def test_patch_field_and_forcing_values():
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.3, 0.7]])
    u, f = manufactured_poly(pts)
    np.testing.assert_allclose(u, [[0, 0], [1, 16], [0.09, 1.96]])
    np.testing.assert_allclose(f, [[3.0, 12.0]] * 3)


def test_patch_forcing_is_stress_divergence():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    f_fd = fd_div_sigma(lambda p: manufactured_poly(p)[0], PATCH_MODULI, pts)
    np.testing.assert_allclose(f_fd, manufactured_poly(pts)[1], rtol=1e-6)


@pytest.mark.parametrize("frequency", [1.0, math.pi])
def test_trig_forcing_is_stress_divergence(frequency):
    moduli = moduli_from_E_nu(1.0, 0.3)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    u, f = manufactured_trig(pts, moduli, frequency)
    f_fd = fd_div_sigma(
        lambda p: manufactured_trig(p, moduli, frequency)[0], moduli, pts
    )
    np.testing.assert_allclose(f_fd, f, rtol=2e-6, atol=2e-7 * np.abs(f).max())


def test_trig_default_frequency_values():
    pts = np.array([[0.3, 0.7]])
    moduli = ElasticModuli(0.5, 0.5)
    u, f = manufactured_trig(pts, moduli)
    assert u[0, 0] == pytest.approx(math.sin(0.3) * math.sin(0.7))
    assert u[0, 1] == pytest.approx(-math.cos(0.3) * math.cos(0.7))
    np.testing.assert_allclose(f, -3.0 * u)


# ---------------------------------------------------------------------------
# hole in a plate


@pytest.fixture(scope="module")
def hole_params():
    return HoleParams(moduli=moduli_from_E_nu(1.0, 0.25))


def test_hole_equilibrium(hole_params):
    """The field satisfies div sigma = 0 away from the hole."""
    rng = np.random.default_rng(3)
    r = rng.uniform(0.3, 0.45, size=40)
    t = rng.uniform(0.0, 2.0 * math.pi, size=40)
    pts = 0.5 + np.column_stack([r * np.cos(t), r * np.sin(t)])
    div = fd_div_sigma(
        lambda p: hole_displacement(p, hole_params), hole_params.moduli, pts
    )
    assert np.abs(div).max() < 1e-4 * hole_params.tension / hole_params.radius


def test_hole_traction_free_surface(hole_params):
    """Radial and shear tractions vanish on the circle."""
    a = hole_params.radius
    t = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    for eps in (2e-3, 4e-3):
        pts = 0.5 + (1.0 + eps) * a * np.column_stack([np.cos(t), np.sin(t)])
        sxx, syy, sxy = fd_stress(
            lambda p: hole_displacement(p, hole_params), hole_params.moduli, pts
        )
        nx, ny = np.cos(t), np.sin(t)
        srr = sxx * nx**2 + 2.0 * sxy * nx * ny + syy * ny**2
        srt = (syy - sxx) * nx * ny + sxy * (nx**2 - ny**2)
        # tractions grow linearly off the surface; at eps they are O(eps T)
        assert np.abs(srr).max() < 8.0 * eps * hole_params.tension
        assert np.abs(srt).max() < 8.0 * eps * hole_params.tension


def test_hole_far_field_is_uniaxial_tension(hole_params):
    """Fifty radii out the stress is T along x to O((a/r)^2)."""
    t = np.linspace(0.0, 2.0 * math.pi, 13)[:-1]
    r = 50.0 * hole_params.radius
    pts = 0.5 + r * np.column_stack([np.cos(t), np.sin(t)])
    sxx, syy, sxy = fd_stress(
        lambda p: hole_displacement(p, hole_params), hole_params.moduli, pts
    )
    T = hole_params.tension
    assert np.abs(sxx - T).max() < 3e-3 * T
    assert np.abs(syy).max() < 3e-3 * T
    assert np.abs(sxy).max() < 3e-3 * T


def test_hole_symmetries(hole_params):
    rng = np.random.default_rng(4)
    r = rng.uniform(0.21, 0.6, size=30)
    t = rng.uniform(-math.pi, math.pi, size=30)
    pts = 0.5 + np.column_stack([r * np.cos(t), r * np.sin(t)])
    mirrored = 0.5 + np.column_stack([r * np.cos(-t), r * np.sin(-t)])
    u = hole_displacement(pts, hole_params)
    um = hole_displacement(mirrored, hole_params)
    # reflection across the tension axis: ux even, uy odd
    np.testing.assert_allclose(um[:, 0], u[:, 0], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(um[:, 1], -u[:, 1], rtol=1e-12, atol=1e-15)


def test_hole_surface_value_on_axis(hole_params):
    """At (a, 0) the x-displacement is 3 T a (kappa + 1) / (8 mu)."""
    m = hole_params.moduli
    pts = np.array([[0.5 + hole_params.radius, 0.5]])
    u = hole_displacement(pts, hole_params)
    expected = 3.0 * hole_params.tension * hole_params.radius * (m.kappa + 1.0) / (8.0 * m.mu)
    assert u[0, 0] == pytest.approx(expected, rel=1e-12)
    assert u[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_hole_inside_raises_unless_clamped(hole_params):
    """The radius is always clamped: a point inside the hole reads the
    boundary value on its ray instead of raising."""
    inside = np.array([[0.5 + 0.5 * hole_params.radius, 0.5]])
    clamped = hole_displacement(inside, hole_params)
    boundary = hole_displacement(
        np.array([[0.5 + hole_params.radius, 0.5]]), hole_params
    )
    np.testing.assert_allclose(clamped, boundary, rtol=1e-12)


# ---------------------------------------------------------------------------
# two-phase inclusion


@pytest.fixture(scope="module")
def inclusion_params():
    return InclusionParams(
        inner=moduli_from_K_nu(2.0, 0.25), outer=moduli_from_K_nu(1.0, 0.25)
    )


def test_inclusion_coefficient_values(inclusion_params):
    CA, CB, CC = inclusion_coefficients(inclusion_params)
    assert CA == pytest.approx(0.25)
    assert CB == pytest.approx(2.5 / 6.0)
    assert CC == pytest.approx(-0.04 / 6.0)


def test_inclusion_displacement_continuous(inclusion_params):
    a = inclusion_params.radius
    t = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    just_in = 0.5 + (a - 1e-12) * np.column_stack([np.cos(t), np.sin(t)])
    just_out = 0.5 + (a + 1e-12) * np.column_stack([np.cos(t), np.sin(t)])
    ui = inclusion_displacement(just_in, inclusion_params)
    uo = inclusion_displacement(just_out, inclusion_params)
    np.testing.assert_allclose(ui, uo, atol=1e-10)


def test_inclusion_interface_traction_continuous(inclusion_params):
    """sigma_rr approaches the same value (the load) from both sides."""
    p = inclusion_params
    CA, CB, CC = inclusion_coefficients(p)
    a = p.radius
    srr_in = 2.0 * (p.inner.lam + p.inner.mu) * CA
    srr_out = 2.0 * (p.outer.lam + p.outer.mu) * CB - 2.0 * p.outer.mu * CC / a**2
    assert srr_in == pytest.approx(p.load, rel=1e-12)
    assert srr_out == pytest.approx(p.load, rel=1e-12)


def test_inclusion_equilibrium_both_phases(inclusion_params):
    rng = np.random.default_rng(5)
    for lo, hi, moduli in [
        (0.02, 0.15, inclusion_params.inner),
        (0.25, 0.6, inclusion_params.outer),
    ]:
        r = rng.uniform(lo, hi, size=25)
        t = rng.uniform(0.0, 2.0 * math.pi, size=25)
        pts = 0.5 + np.column_stack([r * np.cos(t), r * np.sin(t)])
        div = fd_div_sigma(
            lambda q: inclusion_displacement(q, inclusion_params), moduli, pts
        )
        assert np.abs(div).max() < 1e-5


def test_inclusion_homogeneous_limit():
    m = moduli_from_K_nu(1.5, 0.3)
    p = InclusionParams(inner=m, outer=m)
    CA, CB, CC = inclusion_coefficients(p)
    assert CC == 0.0
    assert CA == pytest.approx(CB)


def test_inclusion_inner_slope_decreases_with_stiffness():
    slopes = []
    for k1 in (1.0, 2.0, 4.0, 8.0):
        p = InclusionParams(
            inner=moduli_from_K_nu(k1, 0.25), outer=moduli_from_K_nu(1.0, 0.25)
        )
        slopes.append(inclusion_coefficients(p)[0])
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


def test_inclusion_center_is_regular(inclusion_params):
    u = inclusion_displacement(np.array([[0.5, 0.5]]), inclusion_params)
    np.testing.assert_allclose(u, [[0.0, 0.0]])


# ---------------------------------------------------------------------------
# case bundles


def test_patch_case_bundle():
    case = make_patch_case()
    pts = np.array([[0.2, 0.4]])
    np.testing.assert_allclose(case.displacement(pts), [[0.04, 0.64]])
    np.testing.assert_allclose(case.forcing(pts), [[3.0, 12.0]])
    lam, mu = case.lame_fields(pts)
    assert lam[0] == 0.5 and mu[0] == 0.5


def test_smooth_case_frequency_passthrough():
    moduli = ElasticModuli(0.5, 0.5)
    case = make_smooth_case(moduli, frequency=math.pi)
    pts = np.array([[0.5, 0.5]])
    assert case.displacement(pts)[0, 0] == pytest.approx(1.0)


def test_hole_case_zero_forcing_and_clamped_displacement(hole_params):
    case = make_hole_case(hole_params)
    inside = np.array([[0.5 + 0.5 * hole_params.radius, 0.5]])
    np.testing.assert_allclose(case.forcing(inside), [[0.0, 0.0]])
    # the bundle clamps instead of raising
    case.displacement(inside)


def test_inclusion_case_piecewise_fields(inclusion_params):
    case = make_inclusion_case(inclusion_params)
    pts = np.array([[0.5, 0.5], [0.9, 0.9]])
    lam, mu = case.lame_fields(pts)
    assert lam[0] == inclusion_params.inner.lam
    assert lam[1] == inclusion_params.outer.lam
    assert mu[0] == inclusion_params.inner.mu
    assert mu[1] == inclusion_params.outer.mu
