from __future__ import annotations

import math

import numpy as np
import pytest

from slicefock import (
    FockParams,
    I,
    J,
    K,
    ONE,
    Quaternion,
    SliceSeries,
    build_grid,
    corrected_kernel_eval,
    corrected_kernel_series,
    fock_norm,
    fock_norm_slice,
    fock_norm_sup,
    gram_table,
    inner_product,
    kernel_eval,
    project_T,
    projection_series,
    sample_on_grid,
    slice_sample,
    star_exponential,
)
from slicefock.fock import _power, slice_abs_sq, slice_norms, stem_norms
from slicefock.quaternions import random_unit_imaginary, slice_frame
from slicefock.reference import monomial_gram_reference, monomial_norm_reference

from conftest import ball_point, make_series


# -- parameter validation -------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        FockParams(alpha=0.0)
    with pytest.raises(ValueError):
        FockParams(p=1.0)
    with pytest.raises(ValueError):
        FockParams(domain="torus")
    with pytest.raises(ValueError):
        FockParams(domain="plane", radius=0.5)
    with pytest.raises(ValueError):
        FockParams(n_r=2)
    for n_slices in (0, 3, 7):
        with pytest.raises(ValueError, match="n_slices >= 8"):
            FockParams(n_slices=n_slices)
    assert FockParams(domain="plane", radius=3.0).r_max == 3.0
    assert FockParams().r_max == 1.0


def test_params_cap_the_grid_node_count():
    # validation only: constructing the parameters allocates no grid
    assert FockParams(n_r=64, n_theta=1 << 16).n_theta == 1 << 16
    for n_r, n_theta in ((64, (1 << 16) + 1), (1 << 20, 8), (64, 100_000_000)):
        with pytest.raises(ValueError, match="exceeds the cap"):
            FockParams(n_r=n_r, n_theta=n_theta)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("p", math.nan), ("p", math.inf),
    ("radius", math.nan), ("radius", math.inf),
])
@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_params_reject_nonfinite(field, value, domain):
    with pytest.raises(ValueError, match="finite"):
        FockParams(domain=domain, **{field: value})


# -- norms ------------------------------------------------------------------------

def test_norm_of_zero_and_constant(fast_params):
    zero = SliceSeries.constant(0.0)
    assert fock_norm_slice(zero, I, fast_params) == 0.0
    one = SliceSeries.constant(1.0)
    val = fock_norm_slice(one, I, fast_params)
    assert abs(val - math.sqrt(1.0 - math.exp(-1.0))) < 1e-12


@pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_monomial_norms_match_reference(p, m):
    params = FockParams(p=p)
    val = fock_norm_slice(SliceSeries.monomial(m), I, params)
    ref = monomial_norm_reference(m, p, params.alpha, 1.0)
    assert abs(val - ref) <= 1e-11 * (1.0 + ref)


def test_real_coefficient_norms_are_slice_independent(rng):
    rows = np.zeros((7, 4))
    rows[:, 0] = rng.standard_normal(7)
    f = SliceSeries(rows)
    params = FockParams()
    vi = fock_norm_slice(f, I, params)
    vj = fock_norm_slice(f, J, params)
    vk = fock_norm_slice(f, K, params)
    assert abs(vi - vj) <= 1e-12 * vi
    assert abs(vi - vk) <= 1e-12 * vi


def test_sup_norm_dominates_each_slice_and_sandwich(rng):
    params = FockParams(n_slices=32)
    for _ in range(10):
        f = make_series(rng, int(rng.integers(0, 9)))
        sup = fock_norm_sup(f, params)
        assert abs(sup.axis) == pytest.approx(1.0, abs=1e-12)
        for u in (I, J, K, random_unit_imaginary(rng)):
            v = fock_norm_slice(f, u, params)
            assert v <= sup.value * (1.0 + 1e-12)
            # two-sided comparability with constant 2^p
            assert sup.value ** params.p <= 2.0 ** params.p * v ** params.p * (1.0 + 1e-8)


def test_real_coefficient_sup_equals_slice_norm(rng):
    rows = np.zeros((5, 4))
    rows[:, 0] = rng.standard_normal(5)
    f = SliceSeries(rows)
    params = FockParams(n_slices=16)
    assert fock_norm(f, params) == pytest.approx(fock_norm_slice(f, I, params), rel=1e-12)


def test_sup_norm_requires_enough_slices(rng):
    f = make_series(rng, 3)
    with pytest.raises(ValueError):
        fock_norm(f, FockParams(n_slices=4))


def test_sup_norm_propagates_nan(rng):
    coeffs = rng.standard_normal((5, 4))
    coeffs[2, 1] = math.nan
    sup = fock_norm_sup(SliceSeries(coeffs), FockParams(n_slices=8))
    assert math.isnan(sup.value)
    assert isinstance(sup.axis, Quaternion)


def _split_abs_sq(f, u, grid):
    """|f|^2 on the slice of u through the split pair: an independent fill."""
    f1, f2 = f.split(u).eval_components(grid.z)
    return np.abs(f1) ** 2 + np.abs(f2) ** 2


def _reference_norm(abs_sq, grid, alpha, p):
    """The weighted slice p-norm, reduced node by node as its definition reads."""
    weighted = (abs_sq * np.exp(-alpha * np.abs(grid.z) ** 2)) ** (0.5 * p)
    integral = float(np.sum(weighted * grid.area_weights))
    return (alpha * p / (2.0 * math.pi) * integral) ** (1.0 / p)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stacked_fill_matches_split_fill(domain, rng):
    params = FockParams(domain=domain, n_r=16, n_theta=64, n_slices=8)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices) + [random_unit_imaginary(rng) for _ in range(4)]
    for degree in range(33):
        f = make_series(rng, degree)
        stacked = slice_abs_sq(f, axes, grid)
        assert stacked.shape == (len(axes), grid.size)
        for row, u in zip(stacked, axes):
            want = _split_abs_sq(f, u, grid)
            assert np.abs(row - want).max() <= 1e-13 * want.max()
            assert np.array_equal(slice_abs_sq(f, u, grid), row)


def test_fill_rejects_non_unit_axis(rng):
    grid = build_grid(FockParams(n_r=8, n_theta=8))
    f = make_series(rng, 2)
    for bad in (Quaternion(0, 2, 0, 0), Quaternion(1, 0, 0, 0)):
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_abs_sq(f, bad, grid)
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_abs_sq(f, [I, bad], grid)
        with pytest.raises(ValueError, match="unit imaginary"):
            stem_norms(f, [I, bad], grid, [(2.0, 1.0)])


@pytest.mark.parametrize("bad", [Quaternion(math.nan, 1, 0, 0), Quaternion(0, math.nan, 0, 0),
                                 Quaternion(0, 0, 1, math.nan)])
def test_nan_axis_is_rejected(bad, rng):
    params = FockParams(n_r=8, n_theta=8, n_slices=8)
    grid = build_grid(params)
    f = make_series(rng, 2)
    with pytest.raises(ValueError, match="unit imaginary"):
        slice_frame(bad)
    with pytest.raises(ValueError, match="unit imaginary"):
        fock_norm_slice(f, bad, params, grid)
    with pytest.raises(ValueError, match="unit imaginary"):
        stem_norms(f, np.array([I.as_array(), bad.as_array()]), grid, [(2.0, 1.0)])


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_sup_norm_is_the_largest_sampled_slice_norm(domain, rng):
    # p = 2 takes the linear form of stem_norms, other p the filled rows
    for p in (2.0, 3.0):
        params = FockParams(domain=domain, p=p, n_slices=16)
        grid = build_grid(params)
        axes = slice_sample(params.n_slices)
        for degree in (0, 1, 5, 10):
            f = make_series(rng, degree)
            sup = fock_norm_sup(f, params, grid)
            norms = [fock_norm_slice(f, u, params, grid) for u in axes]
            assert sup.value == max(norms)
            assert fock_norm_slice(f, sup.axis, params, grid) == sup.value
            assert sup.axis in axes


@pytest.mark.parametrize("p", [4.0 / 3.0, 3.0])
def test_norm_finite_at_a_zero_on_a_grid_node(p, rng):
    # (q - r_k u) * g vanishes at q = r_k u, the node (k, theta = pi/2) of the
    # slice of u; there A + 2 u.B rounds to about -1e-14, and a fractional
    # power of an unclamped negative value is NaN
    params = FockParams(p=p)
    grid = build_grid(params)
    quarter = params.n_theta // 4
    for _ in range(20):
        u = random_unit_imaginary(rng)
        k = int(rng.integers(params.n_r))
        r_k = float(grid.r[k])
        assert abs(grid.z[k * params.n_theta + quarter] - 1j * r_k) <= 1e-15
        root = SliceSeries.from_quaternions([u * (-r_k), ONE])
        f = root.star(make_series(rng, int(rng.integers(1, 6))))
        val = fock_norm_slice(f, u, params, grid)
        want = _reference_norm(_split_abs_sq(f, u, grid), grid, params.alpha, p)
        assert math.isfinite(val)
        assert abs(val - want) <= 1e-12 * want


# -- exponent-aware reduction --------------------------------------------------------

@pytest.mark.parametrize("e", [1.0, 2.0, 1.5, 0.75, 2.0 / 3.0])
def test_power_special_forms_match_pow(e):
    # float 2/3 lies 3.7e-17 below 2/3, so s ** (2/3) itself drifts from the
    # true power by 3.7e-17 |ln s| relative; below s = 1e-16 that drift, not
    # cbrt, would exceed the 2e-15 bound
    s = np.concatenate([[0.0], np.logspace(-16, 17, 4001)])
    got = _power(s, e)
    want = s ** e
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - want[1:]) <= 2e-15 * want[1:])
    assert math.isnan(_power(np.array([math.nan]), e)[0])


def test_power_other_exponents_are_pow():
    s = np.logspace(-20, 17, 1001)
    for e in (0.6, 1.25, 2.5, 0.7):
        assert np.array_equal(_power(s, e), s ** e)


def _norm_case_pairs(ps):
    return [(p, a) for p in ps for a in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stem_norms_equal_the_filled_rows_off_p2(domain, rng):
    params = FockParams(domain=domain, n_r=16, n_theta=64)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pairs = _norm_case_pairs((4.0 / 3.0, 1.5, 3.0, 4.0))
    for degree in (0, 1, 4, 10, 20):
        f = make_series(rng, degree)
        got = stem_norms(f, axes, grid, pairs)
        want = slice_norms(slice_abs_sq(f, axes, grid), grid, pairs)
        for pair in pairs:
            assert got[pair].shape == (len(axes),)
            assert np.array_equal(got[pair], want[pair]), pair


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stem_norms_p2_linear_form_matches_rows_and_closed_form(domain, rng):
    # N^2 = sum_n |a_n|^2 gamma_n: the angular sum removes every cross term
    # z^m conj(z)^n with m != n, whatever the slice
    params = FockParams(domain=domain)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pairs = _norm_case_pairs((2.0,))
    gammas = {a: gram_table(FockParams(alpha=a, domain=domain), grid, degree=32).diag
              for a in (0.5, 1.0, 2.0)}
    for degree in range(33):
        f = make_series(rng, degree)
        got = stem_norms(f, axes, grid, pairs)
        rows = slice_norms(slice_abs_sq(f, axes, grid), grid, pairs)
        coeff_sq = np.sum(f.coeffs * f.coeffs, axis=1)
        for (p, a) in pairs:
            closed = math.sqrt(float(np.sum(coeff_sq * gammas[a][: degree + 1])))
            assert np.all(np.abs(got[(p, a)] - rows[(p, a)]) <= 1e-14 * rows[(p, a)])
            assert np.all(np.abs(got[(p, a)] - closed) <= 1e-13 * closed)


def test_stem_norms_nan_coefficient_gives_nan(rng):
    params = FockParams(n_r=16, n_theta=64)
    grid = build_grid(params)
    coeffs = rng.standard_normal((6, 4))
    coeffs[3, 2] = math.nan
    pairs = _norm_case_pairs((4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.5))
    norms = stem_norms(SliceSeries(coeffs), slice_sample(8), grid, pairs)
    assert all(np.all(np.isnan(v)) for v in norms.values())


@pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 3.0])
def test_stem_norms_single_axis_is_its_row(p, rng):
    params = FockParams(domain="plane")
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    assert len(axes) == 67
    pair = (p, 1.0)
    f = make_series(rng, 10)
    full = stem_norms(f, axes, grid, [pair])[pair]
    for k in (0, 7, 8, 41, 66):
        assert stem_norms(f, [axes[k]], grid, [pair])[pair][0] == full[k]
    comps = np.array([u.as_array() for u in axes])
    assert np.array_equal(stem_norms(f, comps, grid, [pair])[pair], full)


# -- inner product ------------------------------------------------------------------

def test_inner_product_positivity(rng, fast_params):
    for _ in range(10):
        f = make_series(rng, int(rng.integers(0, 9)))
        ip = inner_product(f, f, I, fast_params)
        assert abs(ip.imag) <= 1e-12 * (1.0 + ip.x0)
        assert ip.x0 >= 0.0


def test_inner_product_zero_iff_zero(fast_params):
    zero = SliceSeries.constant(0.0)
    assert abs(inner_product(zero, zero, I, fast_params)) == 0.0


def test_monomials_are_orthogonal(fast_params):
    for m in range(5):
        for n in range(m + 1, 6):
            ip = inner_product(SliceSeries.monomial(m), SliceSeries.monomial(n), I, fast_params)
            assert abs(ip) <= 1e-12


def test_gram_entry_examples():
    params = FockParams()
    diag = gram_table(params).diag
    assert abs(diag[0] - (1.0 - math.exp(-1.0))) <= 1e-12
    plane = FockParams(domain="plane", radius=8.0, n_r=96)
    diag_plane = gram_table(plane).diag
    assert abs(diag_plane[1] - 1.0) <= 1e-9     # 1!/alpha at alpha = 1
    ip = inner_product(SliceSeries.monomial(3), SliceSeries.monomial(3), I, params)
    assert abs(ip.x0 - monomial_gram_reference(3, 1.0, 1.0)) <= 1e-10


def test_inner_product_hermitian_and_right_linear(rng, fast_params):
    for _ in range(20):
        f = make_series(rng, int(rng.integers(0, 8)))
        g = make_series(rng, int(rng.integers(0, 8)))
        h = make_series(rng, int(rng.integers(0, 8)))
        a = Quaternion.from_components(rng.standard_normal(4))
        u = random_unit_imaginary(rng)
        fg = inner_product(f, g, u, fast_params)
        gf = inner_product(g, f, u, fast_params)
        assert abs(fg - gf.conjugate()) <= 1e-10
        lin = inner_product(f, g.scale_right(a) + h, u, fast_params)
        expected = fg * a + inner_product(f, h, u, fast_params)
        assert abs(lin - expected) <= 1e-10


def test_inner_product_consistent_with_p2_norm(rng, fast_params):
    f = make_series(rng, 6)
    n = fock_norm_slice(f, I, fast_params)
    ip = inner_product(f, f, I, fast_params)
    assert abs(ip.x0 - n * n) <= 1e-10 * (1.0 + n * n)


# -- kernels ---------------------------------------------------------------------

def test_kernel_at_zero_weight():
    params = FockParams()
    assert kernel_eval(ball_point(np.random.default_rng(1)), Quaternion(), params) == ONE


def test_kernel_matches_complex_kernel_on_slice():
    params = FockParams(degree=40)
    z = Quaternion(0.4, 0.3, 0, 0)
    w = Quaternion(0.2, -0.5, 0, 0)
    val = kernel_eval(z, w, params)
    expect = np.exp(params.alpha * complex(0.4, 0.3) * complex(0.2, -0.5).conjugate())
    assert abs(val.x0 - expect.real) < 1e-13
    assert abs(val.x1 - expect.imag) < 1e-13
    assert abs(val.x2) < 1e-15 and abs(val.x3) < 1e-15


def test_kernel_hermitian_symmetry(rng):
    params = FockParams(degree=36)
    for _ in range(20):
        q = ball_point(rng)
        w = ball_point(rng)
        lhs = kernel_eval(q, w, params)
        rhs = kernel_eval(w, q, params).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_corrected_kernel_at_zero_weight():
    params = FockParams()
    val = corrected_kernel_eval(Quaternion(0.3, 0.1, 0, 0), Quaternion(), params)
    assert abs(val - Quaternion.real(1.0 / (1.0 - math.exp(-1.0)))) < 1e-12


def test_corrected_kernel_symmetry(rng):
    params = FockParams(degree=20)
    gram = gram_table(params)
    for _ in range(10):
        q, w = ball_point(rng), ball_point(rng)
        lhs = corrected_kernel_eval(q, w, params, gram)
        rhs = corrected_kernel_eval(w, q, params, gram).conjugate()
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_corrected_kernel_approaches_exponential_kernel_in_plane_limit(rng):
    params = FockParams(domain="plane", radius=8.0, degree=24, n_r=96)
    for _ in range(5):
        q, w = ball_point(rng), ball_point(rng)
        a = corrected_kernel_eval(q, w, params)
        b = kernel_eval(q, w, params)
        assert abs(a - b) <= 1e-8


def test_corrected_kernel_reproduces_under_inner_product(rng):
    # pairing a function against the kernel section recovers its value at
    # any quaternion point: <K(., w), f> = f(w), exact on the disk because
    # the kernel divides by the same Gram weights the measure produces
    params = FockParams(domain="disk", degree=16)
    grid = build_grid(params)
    gram = gram_table(params, grid)
    for _ in range(10):
        f = make_series(rng, int(rng.integers(0, 9)))
        w = ball_point(rng)
        section = corrected_kernel_series(w, params, gram)
        val = inner_product(section, f, I, params, grid)
        assert abs(val - f.eval(w)) <= 1e-10 * (1.0 + abs(f.eval(w)))


def test_exponential_kernel_reproduces_under_inner_product(rng):
    # same pairing with the exponential kernel on a large plane truncation
    params = FockParams(domain="plane", radius=6.5, degree=40)
    grid = build_grid(params)
    for _ in range(5):
        f = make_series(rng, 6)
        w = ball_point(rng)
        section = star_exponential(w, params.alpha, params.degree)
        val = inner_product(section, f, I, params, grid)
        assert abs(val - f.eval(w)) <= 1e-6


# -- projection --------------------------------------------------------------------

def test_projection_of_constant_is_constant_plane():
    params = FockParams(domain="plane", radius=6.5)
    grid = build_grid(params)
    samples = sample_on_grid(SliceSeries.constant(1.0), I, grid)
    for q in (Quaternion(), Quaternion(0.5, 0.2, -0.4, 0.1), Quaternion.real(0.9)):
        assert abs(project_T(samples, q, I, params) - ONE) <= 1e-8


@pytest.mark.parametrize("m", [0, 1, 4, 8])
def test_projection_reproduces_monomials_plane(m, rng):
    params = FockParams(domain="plane", radius=6.5, degree=40)
    grid = build_grid(params)
    mono = SliceSeries.monomial(m)
    samples = sample_on_grid(mono, I, grid)
    series = projection_series(samples, I, params, grid)
    for _ in range(5):
        q = ball_point(rng)
        assert abs(series.eval(q) - mono.eval(q)) <= 1e-6


def test_projection_reproduces_quaternion_coefficient_spans(rng):
    # right coefficients with components off the slice basis survive projection
    params = FockParams(domain="plane", radius=6.5, degree=24)
    grid = build_grid(params)
    f = make_series(rng, 5)
    samples = sample_on_grid(f, I, grid)
    series = projection_series(samples, I, params, grid)
    for _ in range(5):
        q = ball_point(rng)
        assert abs(series.eval(q) - f.eval(q)) <= 1e-6


@pytest.mark.parametrize("m", [0, 3, 8])
def test_corrected_projection_exact_on_disk(m, rng):
    params = FockParams(domain="disk", degree=24)
    grid = build_grid(params)
    mono = SliceSeries.monomial(m)
    samples = sample_on_grid(mono, I, grid)
    series = projection_series(samples, I, params, grid, corrected=True)
    for _ in range(5):
        q = ball_point(rng)
        assert abs(series.eval(q) - mono.eval(q)) <= 1e-8


def test_projection_rejects_grid_mismatch(rng):
    params = FockParams()
    with pytest.raises(ValueError, match="do not match the grid"):
        project_T(np.zeros((10, 4)), ONE, I, params)


@pytest.mark.parametrize("samples", [1.0, np.zeros(4), np.zeros(64), np.zeros((64, 3))])
def test_projection_rejects_malformed_samples(samples):
    with pytest.raises(ValueError, match=r"\(n, 4\) component array"):
        projection_series(samples, I, FockParams(n_r=8, n_theta=8))


def test_sample_on_grid_matches_eval(rng):
    params = FockParams(n_r=8, n_theta=8)
    grid = build_grid(params)
    f = make_series(rng, 4)
    samples = sample_on_grid(f, I, grid)
    for idx in (0, 5, 17, 63):
        z = grid.z[idx]
        q = Quaternion(z.real, z.imag, 0, 0)
        assert np.allclose(samples[idx], f.eval(q).as_array(), atol=1e-12)
