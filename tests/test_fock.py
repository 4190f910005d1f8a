from __future__ import annotations

import decimal
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from fractions import Fraction

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
    SplitPair,
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
from slicefock import _workspace, fock, series
from slicefock.fock import slice_abs_sq, slice_norms, stem_norms
from slicefock.quadrature import build_polar_grid
from slicefock.quaternions import from_frame, random_unit_imaginary, slice_frame, to_frame
from slicefock.reference import monomial_gram_reference, monomial_norm_reference

from conftest import (DECIMAL_PI, ball_point, exact_unit_circle, exact_unit_circle_decimal,
                      horner_tolerance, make_series, node_area)


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
    for p in (4.0 / 3.0, 1.5, 2.0, 2.5, 3.0, 4.0):
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

def _power_sums_of(s, ps):
    return fock._power_sums(s, ps, np.empty((2,) + s.shape))


@pytest.mark.parametrize("e", [1.0, 2.0, 1.5, 0.75, 2.0 / 3.0])
def test_power_special_forms_match_pow(e):
    # sums of s ** e at p = 2e, on single values and along rows; the worst
    # measured is 7.8 eps at p = 4/3 on single values: float 2/3 lies 3.7e-17
    # below 2/3, so s ** (2/3) itself drifts from the true power by
    # 3.7e-17 |ln s| relative
    grid = np.concatenate([[0.0], np.logspace(-16, 17, 4095)])
    for shape in ((4096, 1), (16, 256), (2, 16, 128)):
        s = grid.reshape(shape)
        got = _power_sums_of(s, [2.0 * e])[2.0 * e]
        want = np.sum(s ** e, axis=-1)
        assert got.shape == shape[:-1]
        assert np.all(np.abs(got - want) <= 9 * np.finfo(float).eps * want), shape
    assert math.isnan(_power_sums_of(np.array([[0.5, math.nan]]), [2.0 * e])[2.0 * e][0])


def test_power_other_exponents_are_pow():
    s = np.logspace(-20, 17, 1024).reshape(4, 256)
    for e in (0.6, 1.25, 2.5, 0.7):
        assert np.array_equal(_power_sums_of(s, [2.0 * e])[2.0 * e], np.sum(s ** e, axis=-1))
    # p = 2 sums s itself, and the exponents of one call share the buffers
    ps = [2.0, 3.0, 1.5, 1.2, 4.0 / 3.0, 4.0]
    together = _power_sums_of(s, ps)
    for p in ps:
        assert np.array_equal(together[p], _power_sums_of(s, [p])[p]), p


def test_nan_at_any_node_gives_nan_for_every_p(rng):
    params = FockParams(n_r=16, n_theta=64)
    grid = build_grid(params)
    ps = (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.5)
    nodes = [0, 1, grid.n_theta - 1, grid.size // 2, grid.size - 1]
    rows = rng.random((len(nodes) + 1, grid.size))
    for row, node in zip(rows, nodes):
        row[node] = math.nan
    norms = slice_norms(rows, grid, [(p, 1.0) for p in ps])
    sums = _power_sums_of(rows.reshape(-1, grid.n_r, grid.n_theta), ps)
    for p in ps:
        assert np.all(np.isnan(norms[(p, 1.0)][:-1])) and np.isfinite(norms[(p, 1.0)][-1]), p
        for row, node in zip(sums[p], nodes):
            assert np.isnan(row[node // grid.n_theta]), p
            assert np.isfinite(np.delete(row, node // grid.n_theta)).all(), p


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_every_axis_gets_the_same_bits_whatever_the_block_size(domain, rng, monkeypatch):
    params = FockParams(domain=domain, n_r=16, n_theta=64, n_slices=8)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pairs = _norm_case_pairs((4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 2.5))
    series = [make_series(rng, degree) for degree in (0, 3, 12)]
    results = []
    for block_rows in (1, 3, 4, 8):
        monkeypatch.setattr(fock, "_BLOCK_ROWS", block_rows)
        results.append([(stem_norms(f, axes, grid, pairs), slice_abs_sq(f, axes, grid),
                         slice_norms(slice_abs_sq(f, axes, grid), grid, pairs))
                        for f in series])
    for other in results[1:]:
        for (norms, rows, row_norms), (norms0, rows0, row_norms0) in zip(other, results[0]):
            assert np.array_equal(rows, rows0)
            for pair in pairs:
                assert np.array_equal(norms[pair], norms0[pair]), pair
                assert np.array_equal(row_norms[pair], row_norms0[pair]), pair


# Run in a fresh interpreter whose BLAS thread count is fixed before numpy loads.
_FILL_HASH_SCRIPT = """
import hashlib
import numpy as np
from slicefock import (FockParams, Quaternion, build_grid, fock_norm_slice, fock_norm_sup,
                       random_series, sample_on_grid)
from slicefock.fock import _ring_table, _stem_terms, _sup_norms, slice_abs_sq, stem_norms
from slicefock.quadrature import slice_sample
digest = hashlib.sha256()
axes = slice_sample(64)
pairs = [(p, a) for p in (4.0 / 3.0, 1.5, 3.0, 4.0) for a in (0.5, 2.0)]
for domain in ("disk", "plane"):
    params = FockParams(domain=domain, p=3.0)
    grid = build_grid(params)
    for seed, degree in ((1, 0), (2, 3), (3, 10), (4, 24)):
        f = random_series(seed, degree)
        digest.update(slice_abs_sq(f, axes, grid).tobytes())
        for pair, norms in stem_norms(f, axes, grid, pairs).items():
            digest.update(norms.tobytes())
        for u in axes[::7]:
            digest.update(np.float64(fock_norm_slice(f, Quaternion.from_components(u), params)))
        # the moment bound behind the sups adds gemms of its own
        for pair, (value, best) in _sup_norms(f, axes, grid, pairs).items():
            digest.update(np.array([value, best]).tobytes())
        sup = fock_norm_sup(f, params, grid)
        digest.update(np.array([sup.value] + list(sup.axis.as_array())).tobytes())
    # the angle sums behind the stem terms, once with more table columns than angles
    for seed, degree in ((12, 3), (13, 10), (14, 32), (15, 300)):
        table, _ = _ring_table(random_series(seed, degree), grid)
        digest.update(_stem_terms(table, grid).tobytes())
    # the grid samples and eval_many are gemms of their own
    for seed, degree in ((5, 3), (6, 10), (7, 32)):
        f = random_series(seed, degree)
        for u in axes[::9]:
            digest.update(sample_on_grid(f, Quaternion.from_components(u), grid).tobytes())
rng = np.random.default_rng(8)
points = rng.standard_normal((20000, 4))
points *= rng.uniform(size=(20000, 1)) ** 0.25 / np.linalg.norm(points, axis=1, keepdims=True)
for seed, degree in ((9, 1), (10, 10), (11, 32)):
    digest.update(random_series(seed, degree).eval_many(points).tobytes())
print(digest.hexdigest())
"""


def test_fills_and_norms_have_the_same_bits_at_one_and_two_blas_threads():
    # the row fill is a BLAS gemm; OpenBLAS hands part of a product over the
    # 16,384 nodes of a default grid to its second thread (a reduced grid may not)
    src = os.path.dirname(os.path.dirname(fock.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _FILL_HASH_SCRIPT], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def _norm_case_pairs(ps):
    return [(p, a) for p in ps for a in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_stem_norms_equal_the_filled_rows_off_p2(domain, rng):
    # stem_norms weighs its sums of |2^-k_r f|^p by 2^(p (k_r - K)) and the rows
    # hold |f|^2 itself, so the two round apart: the worst gap over 40 seeds of
    # this loop was 16.9 eps relative.  Each axis still gets the bits of the sample.
    params = FockParams(domain=domain, n_r=16, n_theta=64)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pairs = _norm_case_pairs((4.0 / 3.0, 1.5, 3.0, 4.0))
    eps = np.finfo(float).eps
    for degree in (0, 1, 4, 10, 20):
        f = make_series(rng, degree)
        got = stem_norms(f, axes, grid, pairs)
        want = slice_norms(slice_abs_sq(f, axes, grid), grid, pairs)
        single = [stem_norms(f, u, grid, pairs) for u in axes]
        for pair in pairs:
            assert got[pair].shape == (len(axes),)
            assert np.all(np.abs(got[pair] - want[pair]) <= 64 * eps * want[pair]), pair
            assert np.array_equal(got[pair], [norms[pair][0] for norms in single]), pair


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


def _plane_monomial_norm(n: int, p: Fraction) -> float:
    """||q^n||_p on the whole plane at alpha = 1, Gamma(np/2 + 1)^(1/p) (2/p)^(n/2),
    in 40-digit decimals.  np must be an integer k: Gamma(k/2 + 1) is (k/2)!
    for even k and (2m)! sqrt(pi) / (4^m m!) with m = (k + 1)/2 for odd k."""
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        k = n * p
        assert k.denominator == 1
        m, k_even = divmod(int(k) + 1, 2)
        if k_even:
            gamma = dec(math.factorial(m))
        else:
            gamma = dec(math.factorial(2 * m)) / dec(4 ** m * math.factorial(m)) * DECIMAL_PI.sqrt()
        two_over_p = dec(2 * p.denominator) / p.numerator
        log_norm = gamma.ln() * p.denominator / p.numerator + n * two_over_p.ln() / 2
        return float(log_norm.exp())


@pytest.mark.parametrize("p", [Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3),
                               Fraction(4)], ids=["4/3", "3/2", "2", "3", "4"])
def test_p_norms_of_monomials_match_the_closed_form_on_the_radius_30_plane(p):
    # |q^150|^3 e^(-3 r^2 / 2) is about e^903 at its peak, past the largest
    # double, and the Gaussian underflows where r^450 overflows; at r = 30 every
    # integrand here is below e^-300 of its peak.  Worst gaps measured over
    # n in (0, 6, 30, 90, 150): 102 eps at p = 4/3, 44 eps at p = 3/2, 54 eps
    # at p = 2 (n = 90, an oracle of the Parseval path apart from gram_table),
    # 79 eps at p = 3 (n = 150) and 63 eps at p = 4, from the exp of log terms
    # of size n log r + alpha p r^2 / 2.
    params = FockParams(p=float(p), domain="plane", radius=30.0, degree=150, n_r=256)
    grid = build_grid(params)
    eps = np.finfo(float).eps
    for n in (0, 6, 30, 90, 150):
        want = _plane_monomial_norm(n, p)
        got = fock_norm_slice(SliceSeries.monomial(n), I, params, grid)
        assert abs(got - want) <= (64 + n) * eps * want, n
    # at p != 2 poly-density's last tail is the zero series: no log 0 warning
    for degree in (0, 150):
        assert fock_norm_slice(SliceSeries(np.zeros((degree + 1, 4))), J, params, grid) == 0.0


def test_monomial_norm_reference_past_the_float_range_matches_stem_norms():
    # gamma(226, 1350) is about e^995, past the largest double, and the
    # reference keeps it in logs: 25 eps from the closed form, 53 eps from
    # the n_r = 256 sweep (measured)
    ref = monomial_norm_reference(150, 3.0, 1.0, 30.0)
    eps = np.finfo(float).eps
    assert abs(ref - _plane_monomial_norm(150, Fraction(3))) <= 32 * eps * ref
    params = FockParams(p=3.0, domain="plane", radius=30.0, degree=150, n_r=256)
    got = stem_norms(SliceSeries.monomial(150), I, build_grid(params), [(3.0, 1.0)])
    assert abs(got[(3.0, 1.0)][0] - ref) <= 64 * eps * ref


@pytest.mark.parametrize("ps", [(2.0,), (3.0,), (2.0, 4.0, 1.5)], ids=["2", "3", "mixed"])
def test_stem_norms_builds_one_ring_table_per_call(ps, monkeypatch, rng):
    calls = []
    real = fock._ring_table
    monkeypatch.setattr(fock, "_ring_table", lambda *args: calls.append(args) or real(*args))
    grid = build_grid(FockParams(n_r=16, n_theta=64))
    stem_norms(make_series(rng, 9), slice_sample(8), grid, _norm_case_pairs(ps))
    assert len(calls) == 1


def test_ring_table_scales_each_ring_by_the_power_of_two_at_or_above_its_largest_term(rng):
    # below n_theta no power aliases, so the largest |T| of ring r is
    # M_r 2^-k_r with k_r = ceil(log2 M_r): in (1/2, 1], at any scale of f
    for domain, scale in (("disk", 1.0), ("plane", 1.0), ("disk", 1e-300), ("plane", 1e300)):
        grid = build_grid(FockParams(domain=domain, n_r=16, n_theta=64))
        for degree in (0, 1, 10, 32, 63):
            table, k = fock._ring_table(SliceSeries(make_series(rng, degree).coeffs * scale), grid)
            assert table.shape == (4, 16, degree + 1) and k.dtype.kind == "i"
            top = np.max(np.abs(table), axis=(0, 2))
            assert np.all((0.5 < top) & (top <= 1.0)), (domain, scale, degree)
    grid = build_grid(FockParams(n_r=16, n_theta=64))
    table, k = fock._ring_table(SliceSeries(np.zeros((6, 4))), grid)
    assert np.all(k == 0) and np.all(table == 0.0)
    coeffs = rng.standard_normal((6, 4))
    coeffs[3, 2] = math.nan
    f = SliceSeries(coeffs)
    table, k = fock._ring_table(f, grid)
    assert np.all(k == 0) and np.all(np.isnan(table[2, :, 3]))
    norms = stem_norms(f, slice_sample(8), grid, [(2.0, 1.0), (3.0, 1.0)])
    assert all(np.all(np.isnan(v)) for v in norms.values())
    assert np.all(np.isnan(sample_on_grid(f, I, grid)))


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


# -- certified slice supremum ---------------------------------------------------------

_SUP_PS = (4.0 / 3.0, 1.5, 2.5, 3.0, 4.0, 5.0)  # p = 5 has no moment bound: every row is filled


def _assert_sup_is_the_full_sweep(f, axes, grid, pairs):
    sups = fock._sup_norms(f, axes, grid, pairs)
    norms = stem_norms(f, axes, grid, pairs)
    for pair in pairs:
        value, best = sups[pair]
        assert best == int(np.argmax(norms[pair])), pair
        assert np.float64(value).tobytes() == np.max(norms[pair]).tobytes(), pair
    return sups


def _sup_cases(rng, grid, axes):
    """Random series of degrees 0-32, a constant, a real-coefficient series, the
    zero series, and (q - r u) g with r u a node of the slice of a sampled axis u."""
    cases = [make_series(rng, degree) for degree in range(33)]
    real = np.zeros((9, 4))
    real[:, 0] = rng.standard_normal(9)
    cases += [SliceSeries(rng.standard_normal((1, 4))), SliceSeries(real),
              SliceSeries(np.zeros((3, 4)))]
    for k in (0, 5, len(axes) - 1):
        u = Quaternion.from_components(axes[k])
        r = float(grid.r[int(rng.integers(grid.n_r))])
        cases.append(SliceSeries.from_quaternions([u * (-r), ONE])
                     .star(make_series(rng, int(rng.integers(1, 8)))))
    return cases


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_sup_norms_are_the_full_sweep_bit_for_bit(domain, rng):
    params = FockParams(domain=domain, n_r=16, n_theta=64)
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    for f in _sup_cases(rng, grid, axes):
        _assert_sup_is_the_full_sweep(f, axes, grid, [(p, 1.0) for p in _SUP_PS])
        for p in _SUP_PS:
            _assert_sup_is_the_full_sweep(f, axes, grid, [(p, 0.5), (2.0, 2.0)])


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_fock_norm_sup_is_the_full_sweep_on_the_default_grid(domain, rng):
    for p in _SUP_PS:
        params = FockParams(domain=domain, p=p)
        grid = build_grid(params)
        axes = slice_sample(params.n_slices)
        for degree in (0, 1, 6, 19, 32):
            f = make_series(rng, degree)
            (value, best), = _assert_sup_is_the_full_sweep(
                f, axes, grid, [(p, params.alpha)]).values()
            sup = fock_norm_sup(f, params, grid)
            assert np.float64(sup.value).tobytes() == np.float64(value).tobytes()
            assert sup.axis == Quaternion.from_components(axes[best])


def test_sup_norms_of_slice_independent_series_fill_one_row_and_pick_axis_0(rng, monkeypatch):
    grid = build_grid(FockParams(domain="plane", n_r=16, n_theta=64))
    axes = slice_sample(64)
    filled = []
    fill = fock._fill_rings
    monkeypatch.setattr(fock, "_fill_rings", lambda rings, basis, lifted, index, grid:
                        filled.append(len(index)) or fill(rings, basis, lifted, index, grid))
    real = np.zeros((7, 4))
    real[:, 0] = rng.standard_normal(7)
    zero = SliceSeries(np.zeros((3, 4)))
    for f in (SliceSeries(rng.standard_normal((1, 4))), SliceSeries(real), zero):
        filled.clear()
        sups = fock._sup_norms(f, axes, grid, [(3.0, 1.0), (1.5, 1.0)])
        assert filled == [1]
        assert all(best == 0 for _, best in sups.values())
        _assert_sup_is_the_full_sweep(f, axes, grid, [(3.0, 1.0), (1.5, 1.0)])


def test_sup_norms_at_the_ends_of_the_float_range_are_the_full_sweep(rng):
    # past the float range every slice norm is inf, and deep in the subnormals
    # distinct norms round to one value: they tie, and the first axis must win
    # as in the full sweep, not the first axis that was filled
    cases = [make_series(rng, 32) for _ in range(4)]
    with np.errstate(over="ignore", under="ignore"):
        for domain, scale in (("plane", 1e290), ("plane", 1e292), ("plane", 1e300),
                              ("disk", 1e-312), ("disk", 1e-322)):
            grid = build_grid(FockParams(domain=domain))
            for f in cases:
                _assert_sup_is_the_full_sweep(SliceSeries(f.coeffs * scale), slice_sample(64),
                                              grid, [(p, 1.0) for p in (4.0 / 3.0, 3.0)])


def test_moment_bound_covers_every_axis(rng):
    params = FockParams(domain="plane")
    grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    lifted = fock._axis_rows(axes)
    pairs = [(p, a) for p in _SUP_PS[:-1] for a in (0.5, 1.0)]
    for f in _sup_cases(rng, grid, axes)[::3]:
        table, k, rings = fock._stem_rings(f, grid, fock._exponents(pairs), len(lifted))
        basis = fock._stem_terms(table, grid)
        fock._fill_rings(rings, basis, lifted, np.arange(len(lifted)), grid)
        weights = {pair: fock._ring_weights(grid, pair, k) for pair in pairs}
        bounds = fock._moment_bounds(basis, lifted, grid, weights)
        for pair, (w, _, _) in weights.items():
            exact = np.sum(rings[pair[0]] * w, axis=-1)
            assert np.all(bounds[pair] * (1.0 + fock._SUP_MARGIN) >= exact), pair


def test_sup_norms_fill_few_rows_on_the_plane_at_p3(rng, monkeypatch):
    params = FockParams(p=3.0, domain="plane")
    grid = build_grid(params)
    filled = []
    fill = fock._fill_rings
    monkeypatch.setattr(fock, "_fill_rings", lambda rings, basis, lifted, index, grid:
                        filled.append(len(index)) or fill(rings, basis, lifted, index, grid))
    counts = []
    for degree in range(33):
        filled.clear()
        fock_norm_sup(make_series(rng, degree), params, grid)
        counts.append(sum(filled))
    assert np.median(counts) <= 8 and max(counts) < 67


def test_sup_norms_of_a_nan_ring_table_are_nan(rng, monkeypatch):
    monkeypatch.setattr(fock, "_ring_table", lambda f, grid: (
        np.full((4, grid.n_r, min(f.degree + 1, grid.n_theta)), math.nan),
        np.zeros(grid.n_r, dtype=int)))
    grid = build_grid(FockParams(n_r=16, n_theta=64))
    pairs = [(p, 1.0) for p in _SUP_PS] + [(2.0, 1.0)]
    sups = fock._sup_norms(make_series(rng, 6), slice_sample(8), grid, pairs)
    assert all(math.isnan(value) and best == 0 for value, best in sups.values())
    sup = fock_norm_sup(make_series(rng, 6), FockParams(p=3.0, n_r=16, n_theta=64))
    assert math.isnan(sup.value)


def test_scratch_buffers_are_kept_per_name_and_thread():
    a = _workspace.scratch("test-a", (3, 4))
    assert a.shape == (3, 4) and np.shares_memory(a, _workspace.scratch("test-a", (2, 5)))
    grown = _workspace.scratch("test-a", (100,))
    assert not np.shares_memory(a, grown)
    assert np.shares_memory(grown, _workspace.scratch("test-a", (10,)))
    # a buffer past MAX_BYTES is not kept, and another thread has its own buffers
    big = _workspace.scratch("test-b", (_workspace.MAX_BYTES // 8 + 1,))
    assert not np.shares_memory(big, _workspace.scratch("test-b", (1,)))
    mine = _workspace.scratch("test-a", (10,))
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(_workspace.scratch("test-a", (10,))))
    worker.start()
    worker.join()
    assert not np.shares_memory(mine, theirs[0])


def test_steady_state_sups_allocate_no_new_buffers(rng):
    params = FockParams(p=3.0, domain="plane")
    cases = [make_series(rng, degree) for degree in (1, 5, 32)]

    def run():
        for f in cases:
            fock_norm_sup(f, params)
            fock_norm_sup(f, replace(params, p=4.0 / 3.0))
        return {name: id(buf) for name, buf in vars(_workspace._LOCAL).items()}

    first = run()
    assert {"basis", "fill", "power", "moments", "sector"} <= set(first)
    assert run() == first


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


def _decimal_conj_powers(w: Quaternion, degree: int) -> list:
    """conj(w)^n, n = 0..degree, as 40-digit Decimal component lists."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b0, b1, b2, b3 = (decimal.Decimal(float(c)) for c in w.conjugate().as_array())
        out = [[decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(0)]]
        for _ in range(degree):
            a0, a1, a2, a3 = out[-1]
            out.append([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0])
    return out


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_kernel_series_corrected_rows_are_conj_powers_over_gram(domain, rng):
    # against 40-digit conj(w)^n / gamma_n, gamma_n the float of gram_table:
    # the running product of the weight ratios drifts about n eps from
    # 1 / gamma_n (0.94 (n + 1) eps over 150 ball points)
    params = FockParams(domain=domain, degree=20, n_r=32, n_theta=64)
    diag = gram_table(params)
    eps = np.finfo(float).eps
    for _ in range(5):
        w = ball_point(rng)
        rows = kernel_series(w, params, corrected=True).coeffs
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            for n, power in enumerate(_decimal_conj_powers(w, params.degree)):
                want = [c / decimal.Decimal(float(diag[n])) for c in power]
                err = max(abs(decimal.Decimal(float(x)) - y) for x, y in zip(rows[n], want))
                assert err <= decimal.Decimal(2 * (n + 1) * eps) * max(abs(y) for y in want)


def test_kernel_series_rows_are_the_exact_weights_down_to_underflow():
    # 3^n / n! is a normal float through n = 215, subnormal from 216 and 0
    # from 224; 3^n itself overflows at n = 647, where no row does
    params = FockParams(domain="plane", degree=700)
    rows = kernel_series(Quaternion.real(3.0), params).coeffs
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    assert np.all(rows[:, 1:] == 0.0)
    for n in range(params.degree + 1):
        exact = Fraction(3) ** n / math.factorial(n)
        if float(exact) >= tiny:
            assert abs(Fraction(float(rows[n, 0])) - exact) <= Fraction(2 * (n + 1) * eps) * exact
        assert (rows[n, 0] == 0.0) == (float(exact) == 0.0)
    val = kernel_series(Quaternion.real(3.0), params).eval(Quaternion.real(0.5))
    assert abs(val.x0 - math.exp(1.5)) <= 2 * math.ulp(math.exp(1.5))
    assert val.imag == Quaternion()


def _tail_bound(n: np.ndarray, x: float) -> np.ndarray:
    """Chernoff bound e^-x (e x / n)^n on the Gaussian tail Q(n + 1, x) of a
    radius-R plane, x = alpha R^2, for 1 <= n < x; Q grows with n, so n = 0
    takes the bound at n = 1."""
    n = np.maximum(n, 1)
    return np.exp(-x + n * (1.0 + np.log(x / n)))


def test_kernel_series_far_from_the_origin_is_finite_or_signed_inf():
    # w = 100i: the powers conj(w)^n overflow from n = 155 and 1/n! underflows
    # from n = 178, but every row 100^n / n! of the exponential kernel is finite
    eps = np.finfo(float).eps
    w, q = Quaternion(0, 100, 0, 0), Quaternion(0.3, 0.5, 0, 0)
    n = np.arange(201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = kernel_series(w, FockParams(degree=200))
        for k, row in enumerate(f.coeffs):
            exact = Fraction(100) ** k / math.factorial(k)
            want = [(1, 0), (0, -1), (-1, 0), (0, 1)][k % 4] + (0, 0)
            err = max(abs(Fraction(float(x)) - c * exact) for x, c in zip(row, want))
            assert err <= Fraction(2 * (k + 1) * eps) * exact
        got = f.eval(q).as_array()
        kern = np.exp(complex(0.3, 0.5) * complex(0.0, -100.0))
        assert np.linalg.norm(got - [kern.real, kern.imag, 0, 0]) <= horner_tolerance(f, q.as_array())

        for radius in (6.5, 30.0):
            params = FockParams(domain="plane", radius=radius, degree=200, n_r=128)
            corrected = kernel_series(w, params, corrected=True)
            assert np.all(np.isfinite(corrected.coeffs))
        # on radius 30 the corrected weights are alpha^n / n! over P(n + 1, 900),
        # measured with the grid: they differ by the Gaussian tail and the
        # quadrature's rounding, 16 n_r eps (gram-oracle's bound)
        terms = np.linalg.norm(f.coeffs, axis=1) * abs(q) ** n
        tol = (np.sum(terms * (_tail_bound(n, 900.0) + 16 * params.n_r * eps))
               + horner_tolerance(f, q.as_array()) + horner_tolerance(corrected, q.as_array()))
        assert abs(corrected.eval(q) - f.eval(q)) <= tol

        # on the unit disk |row n| is about 100^n e (n + 1), past the float
        # range from n = 153: +-inf in the nonzero component, 0 in the others
        rows = kernel_series(w, FockParams(degree=200), corrected=True).coeffs
        assert np.all(np.isfinite(rows[:153]))
        assert not np.any(np.isnan(rows))
        for k in range(153, 201):
            part = k % 2  # (-i)^k is real at even k, imaginary at odd k
            assert rows[k, part] == (-1) ** ((k + part) // 2) * np.inf
            assert np.all(np.delete(rows[k], part) == 0.0)

        # 720^n / n! leaves the float range at n = 629 and comes back at n = 815
        rows = kernel_series(Quaternion(0, 0, 720, 0), FockParams(degree=900)).coeffs
        assert np.all(np.isinf(rows[629:815, 0] + rows[629:815, 2]))
        assert np.all(np.isfinite(rows[:629])) and np.all(np.isfinite(rows[815:]))
        exact = Fraction(720) ** 900 / math.factorial(900)
        assert abs(Fraction(float(rows[900, 0])) - exact) <= Fraction(2 * 901 * eps) * exact

        # finite components whose |Im w| overflows: row 1 is conj(w) itself
        rows = kernel_series(Quaternion(0, 1.5e308, 1.5e308, 0), FockParams(degree=4)).coeffs
        assert np.array_equal(rows[1], [0.0, -1.5e308, -1.5e308, 0.0])
        assert np.array_equal(rows[2:], [[-np.inf, 0, 0, 0], [0, np.inf, np.inf, 0], [np.inf, 0, 0, 0]])


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


_GRID_CALLS = {
    "fock_norm_slice": lambda params, grid: fock_norm_slice(SliceSeries.monomial(3), I,
                                                            params, grid),
    "fock_norm_sup": lambda params, grid: fock_norm_sup(SliceSeries.monomial(3), params, grid),
    "inner_product": lambda params, grid: inner_product(SliceSeries.monomial(1),
                                                        SliceSeries.monomial(1), I, params, grid),
    "gram_table": lambda params, grid: gram_table(params, grid),
    "projection_series": lambda params, grid: projection_series(np.zeros((grid.size, 4)), I,
                                                                params, grid),
}


@pytest.mark.parametrize("name", sorted(_GRID_CALLS))
def test_a_grid_that_is_not_the_params_grid_raises(name):
    # a passed disk grid used to win silently over plane params: the p = 3 sup
    # norm of q^3 then read 0.4278, the disk value, in place of 2.0362
    disk_grid = build_grid(FockParams())
    with pytest.raises(ValueError, match="not the params' grid"):
        _GRID_CALLS[name](FockParams(p=3.0, domain="plane"), disk_grid)
    _GRID_CALLS[name](FockParams(p=3.0), disk_grid)


@pytest.mark.parametrize("samples", [1.0, np.zeros(4), np.zeros(64), np.zeros((64, 3))])
def test_projection_rejects_malformed_samples(samples):
    with pytest.raises(ValueError, match=r"\(n, 4\) component array"):
        projection_series(samples, I, FockParams(n_r=8, n_theta=8))


def _node_quaternions(grid, u: Quaternion, nodes, exact: bool = True) -> list:
    """r (cos theta + u sin theta) at the given flat node indices: the exact-angle
    nodes, or with ``exact=False`` the grid's own nodes ``grid.z``."""
    units = exact_unit_circle(grid.n_theta)
    out = []
    for i in nodes:
        r = grid.r[i // grid.n_theta]
        x, y = r * units[i % grid.n_theta] if exact else (grid.z[i].real, grid.z[i].imag)
        out.append(Quaternion(x, y * u.x1, y * u.x2, y * u.x3))
    return out


def assert_samples_match_eval(f: SliceSeries, u: Quaternion, grid, nodes,
                              exact: bool = True) -> None:
    """sample_on_grid against the scalar eval at the node quaternions of
    ``_node_quaternions``, within 64 eps (1 + sum_n |a_n| r^n)."""
    got = sample_on_grid(f, u, grid)
    assert got.shape == (grid.size, 4)
    weights = np.linalg.norm(f.coeffs, axis=1)
    eps = np.finfo(float).eps
    for i, q in zip(nodes, _node_quaternions(grid, u, nodes, exact)):
        r = grid.r[i // grid.n_theta]
        bound = 64 * eps * (1.0 + np.polynomial.polynomial.polyval(r, weights))
        assert np.linalg.norm(got[i] - f.eval(q).as_array()) <= bound, i


@pytest.mark.parametrize("domain", ["disk", "plane"])
@pytest.mark.parametrize("degree", [0, 1, 10, 32])
def test_sample_on_grid_matches_the_scalar_oracle(domain, degree, rng):
    # the values come from the ring table and one gemm against cos m theta_j,
    # sin m theta_j gathered at m j mod n_theta: exact-angle nodes.  Worst
    # measured over six seeds: 24 eps at degree 32 on the plane, where the
    # Horner fill at the grid's rounded nodes read up to 99 eps
    grid = build_grid(FockParams(domain=domain))
    f = make_series(rng, degree)
    nodes = list(range(0, grid.size, 53)) + [grid.size - 1]
    for u in (I, J, K, random_unit_imaginary(rng), random_unit_imaginary(rng)):
        assert_samples_match_eval(f, u, grid, nodes)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_sample_on_grid_matches_the_scalar_oracle_at_the_grid_nodes(domain, rng):
    # grid.z is built on quadrature.angle_table, so the oracle holds at the
    # grid's own nodes too: worst measured over six seeds 31 eps at degree 32
    # on the plane, where the nodes of rounded angles read up to 90 eps
    grid = build_grid(FockParams(domain=domain))
    f = make_series(rng, 32)
    nodes = list(range(0, grid.size, 53)) + [grid.size - 1]
    for u in (I, random_unit_imaginary(rng)):
        assert_samples_match_eval(f, u, grid, nodes, exact=False)


@pytest.mark.parametrize("domain", ["disk", "plane"])
def test_sample_on_grid_aliases_past_n_theta(domain, rng):
    # degree 20 on 8 angles: z^(m + 8) = r^8 z^m at every node, folded into the table
    grid = build_grid(FockParams(domain=domain, n_r=16, n_theta=8))
    f = make_series(rng, 20)
    for u in (I, random_unit_imaginary(rng)):
        assert_samples_match_eval(f, u, grid, range(grid.size))


def test_sample_on_grid_past_the_float_range_is_inf_never_nan():
    # r^250 passes the largest double from r = 17.1 on.  There the values are
    # +-inf and a zero component stays 0 (a rescale by an infinite M_r would
    # make it 0 * inf = NaN), with no warning; r^150 stays finite everywhere
    grid = build_grid(FockParams(domain="plane", radius=30.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finite = sample_on_grid(SliceSeries.monomial(150), J, grid)
        past = sample_on_grid(SliceSeries.monomial(250), J, grid)
    assert np.all(np.isfinite(finite))
    nodes = range(0, grid.size, 61)
    for i, q in zip(nodes, _node_quaternions(grid, J, nodes)):
        want = SliceSeries.monomial(150).eval(q).as_array()
        assert np.abs(finite[i] - want).max() <= 1e-13 * abs(q) ** 150, i
    assert not np.any(np.isnan(past))
    assert np.any(np.isinf(past))
    below = np.repeat(250 * np.log(grid.r) < 690.0, grid.n_theta)
    assert np.all(np.isfinite(past[below]))
    assert np.all(past[:, [1, 3]] == 0.0)  # q^250 on the slice of j has no i or k part


def test_sample_on_grid_of_a_nan_coefficient_is_nan_and_of_zero_is_zero(rng):
    grid = build_grid(FockParams(n_r=8, n_theta=16))
    coeffs = rng.standard_normal((6, 4))
    coeffs[3, 2] = math.nan
    assert np.all(np.isnan(sample_on_grid(SliceSeries(coeffs), I, grid)))
    assert np.all(sample_on_grid(SliceSeries(np.zeros((6, 4))), J, grid) == 0.0)


def _exact_angle_sums(table: np.ndarray, n_theta: int) -> np.ndarray:
    """(C, S) of ``fock._angle_sums`` at every angle, shape (2, rows, n_theta), as
    40-digit Decimal sums over the exact circle at index m j mod n_theta, each
    rounded once to a float."""
    units = exact_unit_circle_decimal(n_theta)
    rows = table.reshape(-1, table.shape[-1])
    out = np.empty((2, len(rows), n_theta))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact_rows = [[decimal.Decimal(float(x)) for x in row] for row in rows]
        for j in range(n_theta):
            for c in range(2):
                column = [units[m * j % n_theta][c] for m in range(rows.shape[1])]
                for i, row in enumerate(exact_rows):
                    out[c, i, j] = float(sum(x * y for x, y in zip(row, column)))
    return out


@pytest.mark.parametrize("n_theta", [4, 7, 8, 100, 256])
def test_angle_sums_match_the_exact_circle(n_theta, monkeypatch, rng):
    # every node value is one gemm against the angle table gathered at
    # m j mod n_theta (width n_theta and above alias).  Worst measured over
    # three seeds: 0.23 width eps sum |T_m|.  Three angles per chunk run the
    # chunk loop, which no default size reaches on n_theta <= 256; OpenBLAS
    # rounds edge tiles apart, so chunk sizes agree to the bound, not the bit
    grid = build_polar_grid(4, n_theta, 1.0)
    eps = np.finfo(float).eps
    for width in sorted({1, 11, 33, n_theta}):
        table = rng.standard_normal((4, 4, width))
        exact = _exact_angle_sums(table, n_theta).reshape(2, 4, 4, n_theta)
        bound = (width + 1) * eps * np.sum(np.abs(table), axis=-1, keepdims=True)
        for angle_bytes in (fock._ANGLE_BYTES, 3 * 16 * width):
            monkeypatch.setattr(fock, "_ANGLE_BYTES", angle_bytes)
            for count in (n_theta // 2 + 1, n_theta):
                got = fock._angle_sums(table, grid, count)
                assert got.shape == (2, 4, 4, count)
                assert np.all(np.abs(got - exact[..., :count]) <= bound), (width, count)


def test_sample_on_grid_and_eval_many_do_not_split_or_run_horner(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("split or Horner called")

    monkeypatch.setattr(SliceSeries, "split", refuse)
    monkeypatch.setattr(SplitPair, "eval_components", refuse)
    monkeypatch.setattr(series, "_horner", refuse)
    f = make_series(rng, 12)
    sample_on_grid(f, random_unit_imaginary(rng), build_grid(FockParams(n_r=8, n_theta=16)))
    f.eval_many(rng.standard_normal((50, 4)))


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
