from __future__ import annotations

import math
from dataclasses import replace

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
    fock_norm_slice,
    fock_norm_sup,
    gram_table,
    inner_product,
    kernel_series,
    projection_series,
    sample_on_grid,
    slice_sample,
)
from slicefock.fock import _power, slice_abs_sq, slice_norms, stem_norms
from slicefock.quaternions import from_frame, random_unit_imaginary, slice_frame, to_frame
from slicefock.reference import monomial_gram_reference, monomial_norm_reference

from conftest import ball_point, horner_tolerance, make_series, node_area


# -- parameter validation -------------------------------------------------------

def test_params_validation():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            FockParams(alpha=alpha)
    with pytest.raises(ValueError):
        FockParams(degree=-2)
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
    assert fock_norm_sup(f, params).value == pytest.approx(fock_norm_slice(f, I, params), rel=1e-12)


def test_sup_norm_requires_enough_slices(rng):
    f = make_series(rng, 3)
    with pytest.raises(ValueError):
        fock_norm_sup(f, FockParams(n_slices=4))


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
    integral = float(np.sum(weighted * node_area(grid)))
    return (alpha * p / (2.0 * math.pi) * integral) ** (1.0 / p)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stacked_fill_matches_split_fill(domain, rng):
    params = FockParams(domain=domain, n_r=16, n_theta=64, n_slices=8)
    grid = build_grid(params)
    extra = [random_unit_imaginary(rng).as_array() for _ in range(4)]
    axes = np.concatenate([slice_sample(params.n_slices), extra])
    for degree in range(33):
        f = make_series(rng, degree)
        stacked = slice_abs_sq(f, axes, grid)
        assert stacked.shape == (len(axes), grid.size)
        for row, comps in zip(stacked, axes):
            u = Quaternion.from_components(comps)
            want = _split_abs_sq(f, u, grid)
            assert np.abs(row - want).max() <= 1e-13 * want.max()
            assert np.array_equal(slice_abs_sq(f, u, grid), row)


def test_fill_rejects_non_unit_axis(rng):
    grid = build_grid(FockParams(n_r=8, n_theta=8))
    f = make_series(rng, 2)
    for bad in (Quaternion(0, 2, 0, 0), Quaternion(1, 0, 0, 0)):
        pair = np.array([I.as_array(), bad.as_array()])
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_abs_sq(f, bad, grid)
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_abs_sq(f, pair, grid)
        with pytest.raises(ValueError, match="unit imaginary"):
            stem_norms(f, pair, grid, [(2.0, 1.0)])


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
            norms = [fock_norm_slice(f, Quaternion.from_components(u), params, grid)
                     for u in axes]
            assert sup.value == max(norms)
            assert fock_norm_slice(f, sup.axis, params, grid) == sup.value
            assert isinstance(sup.axis, Quaternion)
            assert np.all(axes == sup.axis.as_array(), axis=1).any()


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
    gammas = {a: gram_table(FockParams(alpha=a, domain=domain), grid) for a in (0.5, 1.0, 2.0)}
    for degree in range(33):
        f = make_series(rng, degree)
        got = stem_norms(f, axes, grid, pairs)
        rows = slice_norms(slice_abs_sq(f, axes, grid), grid, pairs)
        coeff_sq = np.sum(f.coeffs * f.coeffs, axis=1)
        for (p, a) in pairs:
            closed = math.sqrt(float(np.sum(coeff_sq * gammas[a][: degree + 1])))
            assert np.all(np.abs(got[(p, a)] - rows[(p, a)]) <= 1e-14 * rows[(p, a)])
            assert np.all(np.abs(got[(p, a)] - closed) <= 1e-13 * closed)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stem_norms_p2_ring_table_matches_rows_past_n_theta(domain, rng):
    # degree >= n_theta: powers alias mod n_theta on the ring, z^(m + n_theta) = r^n_theta z^m
    params = FockParams(domain=domain, radius=3.0, n_r=16, n_theta=8)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pairs = _norm_case_pairs((2.0,))
    eps = np.finfo(float).eps
    for degree in (7, 8, 12, 20, 33):
        f = make_series(rng, degree)
        got = stem_norms(f, axes, grid, pairs)
        want = slice_norms(slice_abs_sq(f, axes, grid), grid, pairs)
        # both square values of size up to (sum_n |a_n| |z|^n)^2 at each node
        majorant = np.polynomial.polynomial.polyval(np.abs(grid.z),
                                                    np.linalg.norm(f.coeffs, axis=1))
        for (p, a) in pairs:
            scale = float(np.sum(_node_gaussian_weights(grid, a) * majorant * majorant))
            tol = 16 * (degree + 1) * eps * scale
            assert np.all(np.abs(got[(p, a)] ** 2 - want[(p, a)] ** 2) <= tol)
            assert np.all(got[(p, a)] == got[(p, a)][0])


def test_p2_norm_is_finite_where_the_gaussian_underflows():
    # |f|^2 = r^300 overflows near r = 30, where e^(-r^2) underflows to 0
    params = FockParams(domain="plane", radius=30.0, degree=150)
    grid = build_grid(params)
    norm = fock_norm_slice(SliceSeries.monomial(150), I, params, grid)
    assert abs(norm * norm / gram_table(params, grid)[150] - 1.0) <= 1e-12


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
        u = Quaternion.from_components(axes[k])
        assert stem_norms(f, u, grid, [pair])[pair][0] == full[k]
    comps = np.array(axes)
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
    diag = gram_table(params)
    assert abs(diag[0] - (1.0 - math.exp(-1.0))) <= 1e-12
    plane = FockParams(domain="plane", radius=8.0, n_r=96)
    diag_plane = gram_table(plane)
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


def _node_sum_inner_product(f, g, u, params, grid):
    """Reference: conj(f) g at each node in the frame of u, summed against the
    Gaussian weight of each node."""
    lam = _node_gaussian_weights(grid, params.alpha)
    split_f = f.split(u)
    f1, f2 = split_f.eval_components(grid.z)
    g1, g2 = g.split(u).eval_components(grid.z)
    a = np.sum((np.conj(f1) * g1 + f2 * np.conj(g2)) * lam)
    b = np.sum((np.conj(f1) * g2 - f2 * np.conj(g1)) * lam)
    return from_frame(a, b, split_f.frame)


def _gram_form(f, g, gram, n_theta):
    """Closed form sum_{n,m} conj(a_n) b_m gamma_((n+m)/2) over n = m mod n_theta.

    The grid integral of conj(z)^n z^m is the ring sum of r^(n+m) times the
    angular sum of e^(i(m-n)theta), which is n_theta where n_theta divides
    m - n and 0 elsewhere; below n_theta only n = m is left, sum_n conj(a_n) b_n gamma_n.
    """
    total = Quaternion()
    for n in range(f.degree + 1):
        for m in range(n % n_theta, g.degree + 1, n_theta):
            total = total + f.coefficient(n).conjugate() * g.coefficient(m) * gram[(n + m) // 2]
    return total.as_array()


@pytest.mark.parametrize("domain, n_r, n_theta, max_degree", [
    ("disk", 64, 256, 10), ("plane", 64, 256, 10),
    ("disk", 16, 8, 12), ("plane", 16, 8, 12)])   # degree >= n_theta: conj(z)^n aliases
def test_inner_product_matches_gram_form_and_node_sum(domain, n_r, n_theta, max_degree, rng):
    params = FockParams(domain=domain, n_r=n_r, n_theta=n_theta)
    grid = build_grid(params)
    gram = gram_table(replace(params, degree=max_degree), grid)
    for _ in range(10):
        f, g = (make_series(rng, int(rng.integers(0, max_degree + 1))) for _ in range(2))
        u = random_unit_imaginary(rng)
        got = inner_product(f, g, u, params, grid).as_array()
        # |<f, g>| <= ||f|| ||g||, with ||f||^2 = sum_n |a_n|^2 gamma_n
        norm_f, norm_g = (math.sqrt(np.sum(np.sum(h.coeffs ** 2, axis=1) * gram[: h.degree + 1]))
                          for h in (f, g))
        tol = 1e-12 * (1.0 + norm_f * norm_g)
        assert np.linalg.norm(got - _gram_form(f, g, gram, n_theta)) <= tol
        assert np.linalg.norm(got - _node_sum_inner_product(f, g, u, params, grid)) <= tol


def test_gram_table_is_a_read_only_diagonal():
    params = FockParams(degree=5, n_r=16, n_theta=32)
    diag = gram_table(params)
    assert isinstance(diag, np.ndarray)
    assert diag.shape == (params.degree + 1,)
    assert not diag.flags.writeable
    with pytest.raises(ValueError):
        diag[0] = 1.0


def _node_gaussian_weights(grid, alpha):
    """(alpha/pi) e^(-alpha |z|^2) dA from each node's own |z|, not from its ring."""
    return node_area(grid) * (alpha / math.pi) * np.exp(-alpha * np.abs(grid.z) ** 2)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_gram_table_matches_the_node_sum(domain):
    params = FockParams(domain=domain, degree=40)
    grid = build_grid(params)
    lam = _node_gaussian_weights(grid, params.alpha)
    r_sq = np.abs(grid.z) ** 2
    diag = gram_table(params, grid)
    eps = np.finfo(float).eps
    for m in range(params.degree + 1):
        want = float(np.sum(lam * r_sq ** m))
        assert abs(diag[m] - want) <= 8 * (m + 8) * eps * want


# -- kernels ---------------------------------------------------------------------

def test_kernel_series_at_zero_weight():
    f = kernel_series(Quaternion(), FockParams(alpha=1.0, degree=10))
    assert f.coefficient(0) == ONE
    assert np.abs(f.coeffs[1:]).max() == 0.0


def test_kernel_series_real_case():
    w = Quaternion.real(0.8)
    f = kernel_series(w, FockParams(alpha=1.3, degree=30))
    x = 0.9
    val = f.eval(Quaternion.real(x))
    assert abs(val.x0 - math.exp(1.3 * x * 0.8)) < 1e-12
    assert abs(val.imag) == 0.0


def test_kernel_series_termwise_oracle():
    # direct power-sum accumulation, independent of Horner
    w, q, alpha, deg = J, I, 1.0, 20
    f = kernel_series(w, FockParams(alpha=alpha, degree=deg))
    total = Quaternion()
    qn = ONE
    base = w.conjugate() * alpha
    bn = ONE
    fact = 1.0
    for n in range(deg + 1):
        if n > 0:
            qn = qn * q
            bn = bn * base
            fact *= n
        total = total + qn * bn / fact
    assert abs(f.eval(q) - total) < 1e-13


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_kernel_series_corrected_rows_are_conj_powers_over_gram(domain, rng):
    params = FockParams(domain=domain, degree=20, n_r=32, n_theta=64)
    diag = gram_table(params)
    for _ in range(5):
        w = ball_point(rng)
        rows = kernel_series(w, params, corrected=True).coeffs
        power = ONE
        for n in range(params.degree + 1):
            want = power.as_array() / diag[n]
            assert np.max(np.abs(rows[n] - want)) <= 1e-15 * np.max(np.abs(want))
            power = power * w.conjugate()


def test_kernel_series_stops_at_the_first_underflowed_weight():
    # 1/n! underflows to 0 at n = 178 while 3^n overflows at n = 647; the
    # rows from the first zero weight on stay 0 instead of becoming inf * 0
    params = FockParams(domain="plane", degree=700)
    w = Quaternion.real(3.0)
    rows = kernel_series(w, params).coeffs
    assert np.all(np.isfinite(rows))
    nonzero = np.flatnonzero(rows[:, 0])
    assert nonzero[-1] < 200 and np.all(rows[nonzero[-1] + 1:] == 0.0)
    val = kernel_series(w, params).eval(Quaternion.real(0.5))
    assert abs(val.x0 - math.exp(1.5)) <= 2 * math.ulp(math.exp(1.5))
    assert val.imag == Quaternion()


def test_kernel_at_zero_weight():
    params = FockParams()
    assert kernel_series(Quaternion(), params).eval(ball_point(np.random.default_rng(1))) == ONE


def test_kernel_matches_complex_kernel_on_slice():
    params = FockParams(degree=40)
    z = Quaternion(0.4, 0.3, 0, 0)
    w = Quaternion(0.2, -0.5, 0, 0)
    val = kernel_series(w, params).eval(z)
    expect = np.exp(params.alpha * complex(0.4, 0.3) * complex(0.2, -0.5).conjugate())
    assert abs(val.x0 - expect.real) < 1e-13
    assert abs(val.x1 - expect.imag) < 1e-13
    assert abs(val.x2) < 1e-15 and abs(val.x3) < 1e-15


def test_kernel_hermitian_symmetry(rng):
    params = FockParams(degree=36)
    for _ in range(20):
        q = ball_point(rng)
        w = ball_point(rng)
        lhs = kernel_series(w, params).eval(q)
        rhs = kernel_series(q, params).eval(w).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_corrected_kernel_at_zero_weight():
    params = FockParams()
    val = kernel_series(Quaternion(), params, corrected=True).eval(Quaternion(0.3, 0.1, 0, 0))
    assert abs(val - Quaternion.real(1.0 / (1.0 - math.exp(-1.0)))) < 1e-12


def test_corrected_kernel_symmetry(rng):
    params = FockParams(degree=20)
    for _ in range(10):
        q, w = ball_point(rng), ball_point(rng)
        lhs = kernel_series(w, params, corrected=True).eval(q)
        rhs = kernel_series(q, params, corrected=True).eval(w).conjugate()
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_corrected_kernel_approaches_exponential_kernel_in_plane_limit(rng):
    params = FockParams(domain="plane", radius=8.0, degree=24, n_r=96)
    for _ in range(5):
        q, w = ball_point(rng), ball_point(rng)
        a = kernel_series(w, params, corrected=True).eval(q)
        b = kernel_series(w, params).eval(q)
        assert abs(a - b) <= 1e-8


def test_corrected_kernel_reproduces_under_inner_product(rng):
    # pairing a function against the kernel section recovers its value at
    # any quaternion point: <K(., w), f> = f(w), exact on the disk because
    # the kernel divides by the same Gram weights the measure produces
    params = FockParams(domain="disk", degree=16)
    grid = build_grid(params)
    for _ in range(10):
        f = make_series(rng, int(rng.integers(0, 9)))
        w = ball_point(rng)
        section = kernel_series(w, params, corrected=True)
        val = inner_product(section, f, I, params, grid)
        assert abs(val - f.eval(w)) <= 1e-10 * (1.0 + abs(f.eval(w)))


def test_exponential_kernel_reproduces_under_inner_product(rng):
    # same pairing with the exponential kernel on a large plane truncation
    params = FockParams(domain="plane", radius=6.5, degree=40)
    grid = build_grid(params)
    for _ in range(5):
        f = make_series(rng, 6)
        w = ball_point(rng)
        section = kernel_series(w, params)
        val = inner_product(section, f, I, params, grid)
        assert abs(val - f.eval(w)) <= 1e-6


# -- projection --------------------------------------------------------------------

def test_projection_of_constant_is_constant_plane():
    params = FockParams(domain="plane", radius=6.5)
    grid = build_grid(params)
    samples = sample_on_grid(SliceSeries.constant(1.0), I, grid)
    for q in (Quaternion(), Quaternion(0.5, 0.2, -0.4, 0.1), Quaternion.real(0.9)):
        assert abs(projection_series(samples, I, params).eval(q) - ONE) <= 1e-8


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


def _moment_loop_projection(samples, u, params, grid, corrected):
    """Reference: moment n as a node sum of conj(z)^n f(z) against the Gaussian weights,
    with the sum of the moduli of its terms, the scale of its rounding error."""
    frame = slice_frame(u)
    c1, c2 = to_frame(samples, frame)
    lam = _node_gaussian_weights(grid, params.alpha)
    size = (np.abs(c1) + np.abs(c2)) * lam
    zbar = np.conj(grid.z)
    pw = np.ones_like(zbar)
    a, b = np.empty((2, params.degree + 1), dtype=complex)
    mag = np.empty(params.degree + 1)
    for n in range(params.degree + 1):
        a[n] = np.sum(pw * c1 * lam)
        b[n] = np.sum(pw * c2 * lam)
        mag[n] = np.sum(np.abs(pw) * size)
        pw = pw * zbar
    weights = 1.0 / gram_table(params, grid) if corrected else np.array(
        [params.alpha ** n / math.factorial(n) for n in range(params.degree + 1)])
    return a * weights, b * weights, mag * weights


@pytest.mark.parametrize("domain, n_r, n_theta, degree", [
    ("disk", 64, 256, 32), ("plane", 64, 256, 32),
    ("disk", 16, 8, 12), ("plane", 16, 8, 12)])   # degree >= n_theta: bins alias
@pytest.mark.parametrize("corrected", [False, True])
def test_projection_matches_the_moment_loop(domain, n_r, n_theta, degree, corrected, rng):
    params = FockParams(domain=domain, n_r=n_r, n_theta=n_theta, degree=degree)
    grid = build_grid(params)
    eps = np.finfo(float).eps
    n = np.arange(degree + 1)
    for k in range(6):
        f = make_series(rng, int(rng.integers(0, degree + 1)))
        u = random_unit_imaginary(rng)
        samples = sample_on_grid(f, u, grid)
        a, b, mag = _moment_loop_projection(samples, u, params, grid, corrected)
        got_a, got_b = to_frame(projection_series(samples, u, params, grid,
                                                  corrected=corrected).coeffs, slice_frame(u))
        tol = 8 * (n + 8) * eps * mag
        assert np.all(np.abs(got_a - a) <= tol) and np.all(np.abs(got_b - b) <= tol)


def test_projection_rejects_grid_mismatch(rng):
    params = FockParams()
    with pytest.raises(ValueError, match="do not match the grid"):
        projection_series(np.zeros((10, 4)), I, params).eval(ONE)


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
        atol = horner_tolerance(f, q.as_array())
        assert np.allclose(samples[idx], f.eval(q).as_array(), rtol=0, atol=atol)
