from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicefock import (
    DEGREE_CAP,
    I,
    J,
    K,
    ONE,
    Quaternion,
    SeriesFormatError,
    SliceSeries,
    parse_series,
    pointwise_star_residual,
    write_series,
)
from slicefock.quaternions import random_unit_imaginary

from conftest import (
    assert_bit_identical,
    assert_within_horner_bound,
    ball_point,
    broadcast_from_frame,
    horner_tolerance,
    layouts,
    make_series,
    stack_hamilton,
    with_signed_zeros,
)

coeff_lists = st.lists(
    st.tuples(*[st.floats(min_value=-3, max_value=3, allow_nan=False)] * 4),
    min_size=1, max_size=8,
)


def series_from(rows) -> SliceSeries:
    return SliceSeries(np.array(rows, dtype=float))


# -- evaluation -------------------------------------------------------------

def test_eval_examples():
    f = SliceSeries.from_quaternions([ONE, I])
    assert f.eval(J) == Quaternion(1, 0, 0, -1)        # 1 + j*i = 1 - k
    q2 = SliceSeries.monomial(2)
    assert q2.eval(Quaternion(1, 1, 0, 0)) == Quaternion(0, 2, 0, 0)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_eval_at_zero_is_constant_coefficient(rows):
    f = series_from(rows)
    assert f.eval(Quaternion()) == f.coefficient(0)


def test_eval_many_matches_scalar(rng):
    f = make_series(rng, 7)
    pts = rng.standard_normal((40, 4)) * 0.6
    vals = f.eval_many(pts)
    tol = horner_tolerance(f, pts)
    for k in range(40):
        expect = f.eval(Quaternion.from_components(pts[k]))
        assert np.allclose(vals[k], expect.as_array(), rtol=0, atol=tol[k])


def test_eval_many_survives_overflow_of_the_imaginary_norm():
    # v.v = 3e320 overflows although every component and f(q) are finite
    f = SliceSeries(np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 0.0, 2.0]]))
    q = Quaternion(1e160, 1e160, -1e160, 1e160)
    want = f.eval(q).as_array()
    assert np.allclose(want, [-5e159, -2.5e160, -3.5e160, 1.5e160], rtol=1e-15, atol=0)
    got = f.eval_many(q.as_array())
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want).max())


@pytest.mark.parametrize("tiny", (1e-170, 1e-300, 5e-324))
def test_eval_many_survives_underflow_of_the_imaginary_norm(tiny):
    # v.v underflows to 0, which must not turn q into a real point
    identity = SliceSeries.monomial(1)
    for k in (1, 2, 3):
        q = np.zeros(4)
        q[k] = tiny
        assert np.array_equal(identity.eval_many(q), q)
    q = np.array([0.0, tiny, -tiny, tiny])
    assert np.all(np.abs(identity.eval_many(q) - q) <= 4 * np.finfo(float).eps * tiny)


def test_addition_is_pointwise(rng):
    f = make_series(rng, 5)
    g = make_series(rng, 3)
    q = ball_point(rng)
    assert abs((f + g).eval(q) - (f.eval(q) + g.eval(q))) < 1e-13


# -- star product -------------------------------------------------------------

def test_star_monomials_encode_noncommutativity():
    qi = SliceSeries.monomial(1, I)
    qj = SliceSeries.monomial(1, J)
    assert np.allclose(qi.star(qj).coeffs[2], K.as_array())
    assert np.allclose(qj.star(qi).coeffs[2], (-K).as_array())


def test_star_unit():
    one = SliceSeries.constant(ONE)
    f = series_from([(1, 2, 3, 4), (0.5, 0, -1, 0)])
    assert np.array_equal(one.star(f).coeffs, f.coeffs)
    assert np.array_equal(f.star(one).coeffs, f.coeffs)


def scalar_star(f: SliceSeries, g: SliceSeries, cap: int) -> np.ndarray:
    """Coefficients of f * g: one scalar Quaternion product per pair a_i b_(n-i),
    added in order of i to a zero start, truncated at min(deg f + deg g, cap)."""
    top = min(f.degree + g.degree, cap)
    rows = []
    for n in range(top + 1):
        acc = Quaternion()
        for i in range(max(0, n - g.degree), min(n, f.degree) + 1):
            acc = acc + f.coefficient(i) * g.coefficient(n - i)
        rows.append(acc.as_array())
    return np.array(rows)


def test_star_truncation_audit(rng):
    f = SliceSeries.monomial(40)
    g = SliceSeries.monomial(40)
    prod = f.star(g)
    assert prod.degree == DEGREE_CAP
    assert prod.dropped == 80 - DEGREE_CAP
    small = SliceSeries.monomial(3).star(SliceSeries.monomial(2))
    assert small.dropped == 0 and small.degree == 5
    # random coefficients, bit for bit against the scalar convolution, with
    # caps below, at and above deg f + deg g
    for deg_f, deg_g, cap in ((40, 40, DEGREE_CAP), (7, 5, 9), (7, 5, 12), (7, 5, 30),
                              (6, 0, 3), (0, 6, 3), (5, 8, 0), (3, 2, DEGREE_CAP)):
        f, g = make_series(rng, deg_f), make_series(rng, deg_g)
        prod = f.star(g, cap=cap)
        assert prod.degree == min(deg_f + deg_g, cap)
        assert prod.dropped == deg_f + deg_g - prod.degree
        assert_bit_identical(prod.coeffs, scalar_star(f, g, cap))


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_star_associative_and_distributive(ra, rb, rc):
    f, g, h = series_from(ra), series_from(rb), series_from(rc)
    left = f.star(g).star(h)
    right = f.star(g.star(h))
    assert left.degree == right.degree
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-11)
    lhs = f.star(g + h)
    rhs = f.star(g) + f.star(h)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_star_matches_pointwise_product_on_a_slice(rng):
    # series with coefficients in the slice of i commute there
    rows = rng.standard_normal((5, 4))
    rows[:, 2:] = 0.0
    f = SliceSeries(rows)
    g = SliceSeries(np.roll(rows, 1, axis=0))
    z = Quaternion(0.3, 0.7, 0, 0)
    assert abs(f.star(g).eval(z) - f.eval(z) * g.eval(z)) < 1e-13


# -- regular conjugate ---------------------------------------------------------

def test_conjugate_examples():
    f = SliceSeries.monomial(1, I)
    assert np.array_equal(f.conjugate().coeffs, SliceSeries.monomial(1, -I).coeffs)
    real = series_from([(1, 0, 0, 0), (2, 0, 0, 0)])
    assert np.array_equal(real.conjugate().coeffs, real.coeffs)
    f = SliceSeries.from_quaternions([I, J])          # i + q j
    sym = f.star(f.conjugate())
    expect = np.zeros((3, 4))
    expect[0, 0] = 1.0
    expect[2, 0] = 1.0
    assert np.allclose(sym.coeffs, expect, atol=1e-15)


def test_conjugate_is_involution_and_antihomomorphism(rng):
    f = make_series(rng, 6)
    g = make_series(rng, 4)
    assert np.array_equal(f.conjugate().conjugate().coeffs, f.coeffs)
    lhs = f.star(g).conjugate()
    rhs = g.conjugate().star(f.conjugate())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_symmetrization_is_real(rng):
    for _ in range(50):
        f = make_series(rng, int(rng.integers(0, 11)))
        sym = f.star(f.conjugate())
        assert np.abs(sym.coeffs[:, 1:]).max() <= 1e-13


# -- star reciprocal -----------------------------------------------------------

def test_reciprocal_of_one_is_one():
    one = SliceSeries.constant(ONE)
    rec = one.star_reciprocal(5)
    expect = np.zeros((6, 4))
    expect[0, 0] = 1.0
    assert np.allclose(rec.coeffs, expect, atol=1e-15)


def test_reciprocal_geometric_series(rng):
    a = Quaternion.from_components(rng.standard_normal(4) * 0.4)
    f = SliceSeries.from_quaternions([ONE, -a])       # 1 - q a
    rec = f.star_reciprocal(5)
    acc = ONE
    for n in range(6):
        assert abs(rec.coefficient(n) - acc) < 1e-12
        acc = acc * a
    resid = f.star(rec, cap=5).coeffs.copy()
    resid[0, 0] -= 1.0
    assert np.abs(resid).max() < 1e-12


def test_reciprocal_example_i_plus_qj():
    f = SliceSeries.from_quaternions([I, J])
    rec = f.star_reciprocal(4)
    resid = f.star(rec, cap=4).coeffs.copy()
    resid[0, 0] -= 1.0
    assert np.abs(resid).max() <= 1e-12


def test_reciprocal_requires_nonzero_constant():
    f = SliceSeries.monomial(1, I)
    with pytest.raises(ValueError, match="reciprocal undefined"):
        f.star_reciprocal(4)


@pytest.mark.parametrize("a0", [ONE, I])
def test_reciprocal_of_small_constant_coefficient(a0):
    # |a_0| = 1e-6 is far above zero although |a_0|^2 = 1e-12 is not
    f = SliceSeries.from_quaternions([a0 * 1e-6, J])
    rec = f.star_reciprocal(3)
    resid = f.star(rec, cap=3).coeffs.copy()
    resid[0, 0] -= 1.0
    assert np.abs(resid).max() <= 1e-12
    assert abs(rec.coefficient(0) * a0 * 1e-6 - ONE) <= 1e-12


def test_reciprocal_residual_contract(rng):
    for _ in range(60):
        f = make_series(rng, 10)
        while abs(f.coefficient(0)) < 0.1:
            f = make_series(rng, 10)
        rec = f.star_reciprocal(10)
        resid = f.star(rec, cap=10).coeffs.copy()
        resid[0, 0] -= 1.0
        scale = 1.0 + float(np.linalg.norm(rec.coeffs, axis=1).max())
        assert np.abs(resid).max() <= 1e-10 * scale


# -- pointwise description of the star product ---------------------------------

def test_pointwise_zero_branch():
    g = series_from([(0.3, 1, 0, 2), (1, 0, 0, 0), (0, 0.5, 0.5, 0)])
    f = SliceSeries.from_quaternions([ONE, -ONE])     # 1 - q, vanishes at 1
    assert pointwise_star_residual(f, g, ONE) <= 1e-12


def test_pointwise_real_coefficients_on_slice(rng):
    rows_f = np.zeros((4, 4)); rows_f[:, 0] = rng.standard_normal(4)
    rows_g = np.zeros((5, 4)); rows_g[:, 0] = rng.standard_normal(5)
    f, g = SliceSeries(rows_f), SliceSeries(rows_g)
    q = Quaternion(0.4, 0.8, 0, 0)
    assert pointwise_star_residual(f, g, q) <= 1e-12


def test_pointwise_random_triples(rng):
    for _ in range(100):
        f = make_series(rng, 4)
        g = make_series(rng, 4)
        q = ball_point(rng)
        assert pointwise_star_residual(f, g, q) <= 1e-10


def test_pointwise_engineered_zero(rng):
    for _ in range(20):
        q0 = ball_point(rng)
        f = SliceSeries.from_quaternions([-q0, ONE]).star(make_series(rng, 3))
        g = make_series(rng, 4)
        assert pointwise_star_residual(f, g, q0) <= 1e-11


# -- splitting and extension -----------------------------------------------------

def test_split_real_coefficients():
    rows = np.zeros((4, 4))
    rows[:, 0] = [1.0, -2.0, 0.5, 3.0]
    f = SliceSeries(rows)
    pair = f.split(I)
    assert np.allclose(pair.c1, rows[:, 0])
    assert np.abs(pair.c2).max() == 0.0


def test_split_constant_example():
    f = SliceSeries.constant(Quaternion(1, 1, 1, 1))
    pair = f.split(I)
    assert pair.c1[0] == 1 + 1j and pair.c2[0] == 1 + 1j


def test_split_monomial_k():
    f = SliceSeries.monomial(1, K)
    pair = f.split(I)
    assert pair.c1[1] == 0 and pair.c2[1] == 1j       # k = i j


def test_split_roundtrip_axes_bit_exact(rng):
    f = make_series(rng, 9)
    for u in (I, J, K):
        assert np.array_equal(f.split(u).recombine().coeffs, f.coeffs)


def test_split_roundtrip_random_axes(rng):
    for _ in range(100):
        f = make_series(rng, int(rng.integers(0, 11)))
        u = random_unit_imaginary(rng)
        back = f.split(u).recombine()
        tol = 1e-14 * (1.0 + np.abs(f.coeffs).max())
        assert np.abs(back.coeffs - f.coeffs).max() <= tol


def test_extend_real_point_gives_slice_value(rng):
    f = make_series(rng, 6)
    pair = f.split(random_unit_imaginary(rng))
    x = 0.37
    assert abs(pair.extend(Quaternion.real(x)) - f.eval(Quaternion.real(x))) < 1e-13


def test_extend_square_example():
    f = SliceSeries.monomial(2)
    pair = f.split(I)
    q = Quaternion(1, 0, 1, 0)
    assert abs(pair.extend(q) - Quaternion(0, 0, 2, 0)) < 1e-14


def test_extension_equals_eval(rng):
    for _ in range(40):
        f = make_series(rng, int(rng.integers(0, 7)))
        pair = f.split(random_unit_imaginary(rng))
        for _ in range(10):
            q = ball_point(rng)
            assert abs(pair.extend(q) - f.eval(q)) <= 1e-12


@pytest.mark.parametrize("degree", range(11))
def test_extend_many_matches_scalar_eval(degree, rng):
    f = make_series(rng, degree)
    u = random_unit_imaginary(rng)
    pair = f.split(u)
    points = rng.standard_normal((40, 4))
    points *= (0.98 * rng.uniform(size=40) / np.linalg.norm(points, axis=1))[:, None]
    points[:6, 1:] = 0.0                                      # real points, y = 0
    points[6:12, 1:] = u.imag_vector * rng.uniform(-1.0, 1.0, (6, 1))  # on the slice of u
    points[12] = [1e-15, 1e-16, 0.0, 0.0]                     # a tiny imaginary part
    got = pair.extend_many(points)
    assert got.shape == points.shape
    for q, value in zip(points, got):
        want = f.eval(Quaternion.from_components(q))
        assert abs(Quaternion.from_components(value) - want) <= 1e-12
    single = pair.extend(Quaternion.from_components(points[20]))
    assert np.array_equal(single.as_array(), got[20])


# points where v.v underflows, where it overflows, and where Im q is small next
# to Re q; every one lies on its own slice, not on the slice of i
EDGE_POINTS = (Quaternion(0, 1e-170, 0, 0), Quaternion(0, 1e-200, 1e-200, 0),
               Quaternion(1e160, 1e160, -1e160, 1e160), Quaternion(3, 0, 1e-13, 0))


@pytest.mark.parametrize("q", EDGE_POINTS, ids=("tiny-i", "tiny-i+j", "huge", "small-j"))
def test_extend_and_eval_many_at_the_edges(q, rng):
    # f(q) = q at every point; a degree-10 series except at 1e160, where
    # |q|^10 overflows every double.  Horner's bound with |q| <= 2 max |q_k|,
    # since |q|^2 itself overflows at 1e160
    series = [SliceSeries.monomial(1)]
    if abs(q.x0) < 1e100:
        series.append(make_series(rng, 10))
    points = np.stack([q.as_array()] * 3)
    for f in series:
        want = f.eval(q).as_array()
        weights = np.polynomial.polynomial.polyval(2.0 * np.abs(points).max(),
                                                   np.linalg.norm(f.coeffs, axis=1))
        tol = 8.0 * (f.degree + 1) * np.finfo(float).eps * weights
        assert np.all(np.abs(f.eval_many(points) - want) <= tol)
        for u in (I, J, random_unit_imaginary(rng)):
            pair = f.split(u)
            got = pair.extend_many(points)
            assert np.all(np.abs(got - want) <= tol)
            assert np.array_equal(pair.extend(q).as_array(), got[0])


def test_eval_and_extend_many_give_nan_at_nonfinite_points(rng):
    # 0 * inf in the Horner sweep and the Hamilton product is NaN without a
    # warning: from degree 1 on, every component at such a point is NaN, and
    # the finite point of the same batch keeps its value
    bad = np.array([[0, np.inf, 0, 0], [np.inf, 0, 0, 0], [1, -np.inf, np.inf, 0],
                    [-np.inf, 2, 0, 0], [np.nan, 0, 0, 0], [0, 0, np.nan, 1]])
    q = ball_point(rng)
    points = np.vstack([bad, q.as_array()])
    for f in (SliceSeries.monomial(1), make_series(rng, 10)):
        pair = f.split(random_unit_imaginary(rng))
        for got in (f.eval_many(points), pair.extend_many(points)):
            assert np.all(np.isnan(got[:-1]))
            assert_within_horner_bound(f, got[-1:], f.eval(q).as_array()[None], points[-1:])
    # a constant has the one value everywhere
    c = make_series(rng, 0)
    assert np.array_equal(c.eval_many(points), np.broadcast_to(c.coeffs[0], points.shape))
    got = c.split(random_unit_imaginary(rng)).extend_many(points)
    assert np.all(np.abs(got - c.coeffs[0]) <= 1e-14)


# -- bit identity with the earlier (M, 4) formulas --------------------------------

def horner_stack(f: SliceSeries, points) -> np.ndarray:
    """eval_many as a Horner loop of np.stack Hamilton products on (..., 4) arrays."""
    pts = np.asarray(points, dtype=float)
    acc = np.broadcast_to(f.coeffs[-1], pts.shape).copy()
    for n in range(f.degree - 1, -1, -1):
        acc = stack_hamilton(pts, acc)
        acc += f.coeffs[n]
    return acc


# the near-real band of the earlier formula: Im q below it took the axis i
STACK_AXIS_EPS = 1e-13


def extend_stack(pair, points) -> np.ndarray:
    """extend_many with (M, 4) arrays, np.stack products and broadcast frame rows."""
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    x, v = pts[:, 0], pts[:, 1:]
    sq = v * v
    y = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    real = y <= STACK_AXIS_EPS * (1.0 + np.sqrt(x * x + sq[:, 0] + sq[:, 1] + sq[:, 2]))
    iq = np.zeros_like(pts)
    iq[real, 1] = 1.0
    iq[~real, 1:] = v[~real] / y[~real, None]
    z = np.empty(len(pts), dtype=complex)
    z.real = x
    z.imag = y
    fz = broadcast_from_frame(*pair.eval_components(z), pair.frame)
    fzbar = broadcast_from_frame(*pair.eval_components(z.conjugate()), pair.frame)
    iq_u = stack_hamilton(iq, pair.frame[1])
    one = ONE.as_array()
    return 0.5 * (stack_hamilton(one - iq_u, fz) + stack_hamilton(one + iq_u, fzbar))


def with_axis_points(rng: np.random.Generator, points: np.ndarray) -> np.ndarray:
    """points with its first rows real, with -0 then +0 imaginary parts, then on the i, j and k axes."""
    m = len(points)
    points[: m // 7, 1:] = -0.0
    points[m // 7: 2 * (m // 7), 1:] = 0.0
    for k in (1, 2, 3):                          # x + y e_k
        rows = slice((k + 1) * (m // 7), (k + 2) * (m // 7))
        points[rows, 1:] = 0.0
        points[rows, k] = rng.standard_normal(m // 7)
    return points


@pytest.mark.parametrize("degree", (0, 1, 10, 32))
@pytest.mark.parametrize("m", (0, 1, 7, 20_000))
def test_eval_and_extend_many_bit_identical_to_stack_formula(degree, m, rng):
    # extend_many is pinned bit for bit.  eval_many goes through the stem
    # function, so it is held to Horner's error bound, against the stacked
    # Hamilton loop at every point and against the scalar eval at a sample,
    # for f and for a series without zero coefficients
    f = SliceSeries(with_signed_zeros(rng, (degree + 1, 4)))
    points = with_signed_zeros(rng, (m, 4))
    points[: m // 7, 1:] = -0.0                  # real points, signed zeros in Im
    pair = f.split(random_unit_imaginary(rng))
    for x in layouts(points).values():
        assert_bit_identical(pair.extend_many(x), extend_stack(pair, x))
    points = with_axis_points(rng, points)
    step = max(1, m // 200)
    for g in (f, make_series(rng, degree)):
        scalar = [g.eval(Quaternion.from_components(q)).as_array() for q in points[::step]]
        for x in layouts(points).values():
            got = g.eval_many(x)
            assert got.dtype == float
            assert_within_horner_bound(g, got, horner_stack(g, x), x)
            assert_within_horner_bound(g, got[::step], np.reshape(scalar, (-1, 4)), x[::step])


def horner_loop(pair, z):
    """eval_components as the allocating loop f = f * z + c of each complex series."""
    z = np.asarray(z, dtype=complex)
    f1 = np.full_like(z, pair.c1[-1])
    f2 = np.full_like(z, pair.c2[-1])
    for n in range(pair.degree - 1, -1, -1):
        f1 = f1 * z + pair.c1[n]
        f2 = f2 * z + pair.c2[n]
    return f1, f2


@pytest.mark.parametrize("degree", (0, 1, 10, 32))
def test_eval_components_bit_identical_to_allocating_horner(degree, rng):
    pair = SliceSeries(with_signed_zeros(rng, (degree + 1, 4))).split(random_unit_imaginary(rng))
    z = np.empty(600, dtype=complex)
    z.real = with_signed_zeros(rng, 600)
    z.imag = with_signed_zeros(rng, 600)
    for x in (z, z[::3], z.reshape(20, 30), z[7], np.asarray(z[8]), 0.5 - 0.25j):
        got = pair.eval_components(x)
        want = horner_loop(pair, x)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert_bit_identical(g, w)


def test_eval_many_shape_contract(rng):
    f = make_series(rng, 6)
    for shape in ((4,), (0, 4), (2, 3, 4)):
        points = rng.standard_normal(shape)
        assert_within_horner_bound(f, f.eval_many(points), horner_stack(f, points), points)
    q = Quaternion(0.3, -0.2, 0.1, 0.4)
    assert_within_horner_bound(f, f.eval_many(q.as_array()), f.eval(q).as_array(), q.as_array())
    # a NaN anywhere in q gives NaN values as in eval; a constant stays a_0
    nan_points = np.array([[math.nan, 0.1, 0.2, 0.3], [0.1, 0.2, math.nan, 0.3],
                           [math.nan] * 4, [0.0, 0.0, 0.0, math.nan]])
    for g in (f, f.truncate(1), f.truncate(0)):
        want = [g.eval(Quaternion.from_components(p)).as_array() for p in nan_points]
        assert np.array_equal(g.eval_many(nan_points), want, equal_nan=True)
    assert np.isnan(f.eval_many(nan_points)).all()
    # the points are read, never written, whatever their layout
    points = rng.standard_normal((50, 4))
    for x in (*layouts(points).values(), points[0]):
        before = x.copy()
        f.eval_many(x)
        assert_bit_identical(x, before)
    for bad in (np.zeros((5, 3)), np.zeros((4, 3)), np.zeros(())):
        with pytest.raises(ValueError):
            f.eval_many(bad)


# -- dilation ---------------------------------------------------------------------

def test_dilate_examples(rng):
    f = make_series(rng, 5)
    assert np.array_equal(f.dilate(1.0).coeffs, f.coeffs)
    assert np.allclose(f.dilate(0.0).coeffs[1:], 0.0)
    assert np.array_equal(f.dilate(0.0).coeffs[0], f.coeffs[0])
    g = series_from([(1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)])
    assert np.allclose(g.dilate(0.5).coeffs[:, 0], [1.0, 0.5, 0.25])


def test_dilate_rejects_bad_factor(rng):
    f = make_series(rng, 2)
    with pytest.raises(ValueError):
        f.dilate(1.5)
    with pytest.raises(ValueError):
        f.dilate(-0.1)


def test_dilate_matches_scaled_argument(rng):
    f = make_series(rng, 8)
    r = 0.73
    q = ball_point(rng)
    assert abs(f.dilate(r).eval(q) - f.eval(q * r)) < 1e-12


# -- text format --------------------------------------------------------------------

def test_format_roundtrip(rng):
    f = make_series(rng, 6)
    buf = io.StringIO()
    write_series(f, buf)
    back = parse_series(buf.getvalue())
    assert np.array_equal(back.coeffs, f.coeffs)


def test_format_accepts_any_line_order():
    text = "slice-series v1 N=1\n1 0 1 0 0\n0 1 0 0 0\n"
    f = parse_series(text)
    assert f.coefficient(0) == ONE and f.coefficient(1) == I


def test_format_rejects_duplicate_degree():
    text = "slice-series v1 N=1\n0 1 0 0 0\n0 2 0 0 0\n"
    with pytest.raises(SeriesFormatError) as err:
        parse_series(text)
    assert err.value.line == 3


def test_format_rejects_missing_degree():
    text = "slice-series v1 N=2\n0 1 0 0 0\n2 1 0 0 0\n"
    with pytest.raises(SeriesFormatError, match="missing degrees"):
        parse_series(text)


def test_format_rejects_malformed_lines():
    with pytest.raises(SeriesFormatError) as err:
        parse_series("slice-series v1 N=0\n0 1 0 0\n")
    assert err.value.line == 2
    with pytest.raises(SeriesFormatError):
        parse_series("not a header\n")
    with pytest.raises(SeriesFormatError):
        parse_series("slice-series v1 N=x\n")
    with pytest.raises(SeriesFormatError) as err:
        parse_series("slice-series v1 N=0\n0 1 0 0 spam\n")
    assert err.value.line == 2


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_format_rejects_nonfinite_coefficient(field):
    text = "slice-series v1 N=1\n0 1 0 0 0\n1 0 %s 0 0\n" % field
    with pytest.raises(SeriesFormatError, match="non-finite") as err:
        parse_series(text)
    assert err.value.line == 3
