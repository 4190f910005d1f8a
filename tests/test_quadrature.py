from __future__ import annotations

import decimal
import math

import numpy as np
import pytest
from scipy.special import gammainc, gamma as gamma_fn

from slicefock import (
    FockParams,
    I,
    J,
    K,
    Quaternion,
    build_grid,
    build_polar_grid,
    fibonacci_sphere,
    gram_table,
    slice_sample,
)
from slicefock.quadrature import angle_table
from slicefock.reference import (
    gaussian_disk_mass,
    lower_incomplete_gamma,
    monomial_gram_reference,
    monomial_norm_reference,
)

from conftest import assert_bit_identical, exact_unit_circle_decimal, node_area


# -- the slow reference integrals are validated against scipy ----------------

@pytest.mark.parametrize("s", [1.0, 2.0, 4.5, 9.0, 13.0])
@pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 16.0])
def test_lower_incomplete_gamma_vs_scipy(s, x):
    ref = gammainc(s, x) * gamma_fn(s)
    assert abs(lower_incomplete_gamma(s, x) - ref) <= 1e-11 * (1.0 + ref)


def test_lower_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0.5, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(2.0, -1.0)
    assert lower_incomplete_gamma(3.0, 0.0) == 0.0


def test_references_are_inf_past_the_float_range():
    # gamma(226, 1350) is about e^995 and gamma(172, 900) about 171! = 1.2e309
    assert lower_incomplete_gamma(226.0, 1350.0) == math.inf
    assert monomial_gram_reference(171, 1.0, 30.0) == math.inf
    assert math.isfinite(monomial_gram_reference(170, 1.0, 30.0))


def test_lower_incomplete_gamma_keeps_full_precision_at_large_x():
    # Q(s, x) is below rounding here, so gamma(s, x) is Gamma(s) to the last bit
    assert lower_incomplete_gamma(1, 400.0) == 1.0
    assert lower_incomplete_gamma(1, 900.0) == 1.0
    assert monomial_gram_reference(0, 1.0, 30.0) == 1.0
    assert lower_incomplete_gamma(11, 900.0) == math.gamma(11)


def test_lower_incomplete_gamma_huge_scale_terminates_accurately():
    # magnitude ~2.4e18, from the continued fraction (x > s + 1)
    ref = gammainc(21.0, 84.5) * gamma_fn(21.0)
    val = lower_incomplete_gamma(21.0, 84.5)
    assert abs(val - ref) <= 1e-12 * ref


def test_monomial_gram_reference_vs_scipy_at_rounding_level():
    # gram-oracle's 39 entries; the worst measured is 2.9e-15 relative
    # (alpha = 0.5, where the adaptive-Simpson reference was 2.5e-10 off)
    for alpha in (0.5, 1.0, 2.0):
        for m in range(13):
            ref = gammainc(m + 1, alpha) * gamma_fn(m + 1) / alpha ** m
            assert abs(monomial_gram_reference(m, alpha, 1.0) - ref) <= 3e-15 * ref, (alpha, m)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gaussian_disk_mass_closed_form(alpha):
    assert abs(gaussian_disk_mass(alpha, 1.0) - (1.0 - math.exp(-alpha))) < 1e-12


# -- grid construction --------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_grid_gaussian_mass_on_unit_disk(alpha):
    grid = build_polar_grid(64, 256, 1.0)
    assert abs(grid.gaussian_mass(alpha) - (1.0 - math.exp(-alpha))) <= 1e-10


def test_grid_gaussian_mass_plane_mode():
    grid = build_polar_grid(64, 256, 6.5)
    assert abs(grid.gaussian_mass(1.0) - gaussian_disk_mass(1.0, 6.5)) <= 1e-10


def test_angular_rule_kills_harmonics():
    grid = build_polar_grid(16, 64, 1.0)
    for k in (1, 2, 3, 7):
        val = np.sum(grid.z ** k * node_area(grid))
        assert abs(val) <= 1e-13


def test_gaussian_second_moment_large_radius():
    # moment of |z|^2 under the Gaussian measure approaches 1/alpha
    grid = build_polar_grid(96, 128, 8.0)
    r_sq = np.abs(grid.z) ** 2
    val = float(np.sum(r_sq * node_area(grid) * np.exp(-r_sq) / math.pi))
    assert abs(val - 1.0) <= 1e-10


def test_grid_validation_and_cache():
    with pytest.raises(ValueError):
        build_polar_grid(2, 64, 1.0)
    with pytest.raises(ValueError):
        build_polar_grid(8, 2, 1.0)
    with pytest.raises(ValueError):
        build_polar_grid(8, 8, 0.0)
    for r_max in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            build_polar_grid(8, 8, r_max)
    assert build_polar_grid(8, 8, 1.0) is build_polar_grid(8, 8, 1.0)


def test_grid_cache_is_bounded():
    grid = build_polar_grid(8, 8, 1.5)
    assert build_polar_grid(8, 8, 1.5) is grid
    for k in range(20):
        build_polar_grid(4, 4, 1.0 + k)
    assert build_polar_grid.cache_info().currsize <= 16


def test_grid_weights_are_positive_and_immutable():
    grid = build_polar_grid(8, 8, 2.0)
    assert np.all(grid.ring_area > 0)
    assert abs(np.sum(node_area(grid)) - math.pi * 4.0) < 1e-10
    with pytest.raises(ValueError):
        grid.z[0] = 0.0
    with pytest.raises(ValueError):
        grid.ring_area[0] = 0.0


@pytest.mark.parametrize("n_theta", [4, 7, 8, 12, 64, 100, 256, 1024])
def test_angle_table_is_within_half_an_eps_of_the_exact_circle(n_theta):
    # whole quarter turns come off in integers before cos and sin; the cos and
    # sin of a rounded 2 pi k / n_theta were up to 3.7 eps off (n_theta = 100)
    table = angle_table(n_theta)
    exact = exact_unit_circle_decimal(n_theta)
    worst = max(abs(decimal.Decimal(float(table[c, j])) - exact[j][c])
                for j in range(n_theta) for c in range(2))
    assert worst <= decimal.Decimal(np.finfo(float).eps) / 2
    assert angle_table(n_theta) is table and not table.flags.writeable
    assert not np.any(np.signbit(table) & (table == 0.0))  # no -0.0


def test_grid_nodes_are_the_radii_times_the_angle_table():
    grid = build_polar_grid(16, 100, 6.5)
    cos, sin = angle_table(100)
    nodes = grid.z.reshape(16, 100)
    assert_bit_identical(nodes.real, grid.r[:, None] * cos)
    assert_bit_identical(nodes.imag, grid.r[:, None] * sin)


# -- gram diagonal -------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gram_diag_matches_incomplete_gamma(alpha):
    params = FockParams(alpha=alpha, degree=12)
    diag = gram_table(params)
    for m in range(13):
        assert abs(diag[m] - monomial_gram_reference(m, alpha, 1.0)) <= 1e-9


def test_gram_diag_plane_limit_is_factorial():
    params = FockParams(alpha=1.0, domain="plane", radius=8.0, degree=8, n_r=96)
    diag = gram_table(params)
    for m in range(9):
        assert abs(diag[m] - math.factorial(m)) <= 1e-7 * math.factorial(m) + 1e-10


def test_gram_diag_positive_and_monotone_decay_on_disk():
    diag = gram_table(FockParams(degree=16))
    assert np.all(diag > 0)
    assert np.all(np.diff(diag) < 0)  # unit-disk moments decrease in m


def test_monomial_norm_reference_consistent_with_gram():
    # p = 2 norm squared of q^m equals the Gram diagonal
    for m in (0, 1, 4, 9):
        n2 = monomial_norm_reference(m, 2.0, 1.0, 1.0) ** 2
        assert abs(n2 - monomial_gram_reference(m, 1.0, 1.0)) < 1e-11


# -- sphere sampling -------------------------------------------------------------

def test_fibonacci_sphere_points_are_unit_and_deterministic():
    pts = fibonacci_sphere(64)
    assert pts.shape == (64, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts, fibonacci_sphere(64))
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_fibonacci_sphere_covers_both_hemispheres():
    pts = fibonacci_sphere(128)
    assert pts[:, 1].min() < -0.9 and pts[:, 1].max() > 0.9


def test_slice_sample_includes_axes():
    units = slice_sample(16)
    assert len(units) == 19
    for axis in (I, J, K):
        assert np.all(units == axis.as_array(), axis=1).any()
    for u in units:
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert u[0] == 0.0


@pytest.mark.parametrize("n", [8, 16, 64])
def test_slice_sample_is_a_cached_read_only_component_array(n):
    # the rows the sample had as a list of Quaternions, bit for bit
    units = slice_sample(n)
    want = [Quaternion(0.0, *p).as_array() for p in fibonacci_sphere(n)]
    want += [I.as_array(), J.as_array(), K.as_array()]
    assert isinstance(units, np.ndarray) and units.shape == (n + 3, 4)
    assert_bit_identical(units, np.array(want))
    assert slice_sample(n) is units
    with pytest.raises(ValueError):
        units[0, 1] = 0.0


def test_build_grid_respects_domain():
    disk = build_grid(FockParams(domain="disk"))
    assert disk.r_max == 1.0
    plane = build_grid(FockParams(domain="plane", radius=4.0))
    assert plane.r_max == 4.0
