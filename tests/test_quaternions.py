from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicefock import (
    AXIS_EPS,
    I,
    J,
    K,
    ONE,
    Quaternion,
    axis,
    compose_basis,
    decompose_basis,
    orthogonal_unit,
    slice_coords,
)
from slicefock.quaternions import (
    from_frame,
    hamilton,
    random_unit_imaginary,
    slice_frame,
    to_frame,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_multiplication_table():
    table = {
        (I, I): -ONE, (J, J): -ONE, (K, K): -ONE,
        (I, J): K, (J, I): -K,
        (J, K): I, (K, J): -I,
        (K, I): J, (I, K): -J,
    }
    for (a, b), expect in table.items():
        assert a * b == expect


def test_unit_and_scalars():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert q * ONE == q
    assert ONE * q == q
    assert 2.0 * q == q * 2.0
    assert (q / 2.0) * 2.0 == q


@settings(max_examples=100, deadline=None)
@given(quaternions, quaternions)
def test_norm_is_multiplicative(a, b):
    assert abs(abs(a * b) - abs(a) * abs(b)) <= 1e-12 * (1.0 + abs(a) * abs(b))


@settings(max_examples=100, deadline=None)
@given(quaternions, quaternions, quaternions)
def test_mul_associative_and_distributive(a, b, c):
    scale = (1.0 + abs(a)) * (1.0 + abs(b)) * (1.0 + abs(c))
    assert abs((a * b) * c - a * (b * c)) <= 1e-12 * scale
    assert abs(a * (b + c) - (a * b + a * c)) <= 1e-12 * scale


def test_conjugate_examples():
    assert Quaternion(1, 1, 1, 1).conjugate() == Quaternion(1, -1, -1, -1)
    assert Quaternion.real(3.5).conjugate() == Quaternion.real(3.5)
    assert I.conjugate() == -I


@settings(max_examples=100, deadline=None)
@given(quaternions, quaternions)
def test_conjugate_reverses_products(a, b):
    scale = (1.0 + abs(a)) * (1.0 + abs(b))
    assert abs((a * b).conjugate() - b.conjugate() * a.conjugate()) <= 1e-13 * scale
    assert a.conjugate().conjugate() == a
    # conj(q) q = |q|^2
    assert abs(a.conjugate() * a - Quaternion.real(a.norm_sq)) <= 1e-12 * (1 + a.norm_sq)


def test_inverse_examples():
    assert ONE.inverse() == ONE
    assert (2.0 * I).inverse() == Quaternion(0, -0.5, 0, 0)
    q = Quaternion(1, 1, 1, 1)
    assert q.inverse() == Quaternion(0.25, -0.25, -0.25, -0.25)


@settings(max_examples=100, deadline=None)
@given(quaternions)
def test_inverse_roundtrip(q):
    if abs(q) < 1e-3:
        return
    assert abs(q * q.inverse() - ONE) <= 1e-12


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_axis_examples():
    assert axis(3.0 * J) == J
    a = axis(Quaternion(1, 1, 1, 1))
    s = 1.0 / math.sqrt(3.0)
    assert abs(a - Quaternion(0, s, s, s)) < 1e-15
    assert abs(a * a + ONE) < 1e-15
    # (near-)real values fall back to the canonical unit
    assert axis(Quaternion.real(5.0)) == I
    assert axis(Quaternion(1.0, AXIS_EPS / 10, 0, 0)) == I


@settings(max_examples=200, deadline=None)
@given(quaternions)
def test_axis_squares_to_minus_one(q):
    y = abs(q.imag)
    if y <= AXIS_EPS * (1 + abs(q)):
        return
    u = axis(q)
    assert abs(u * u + ONE) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(quaternions)
def test_slice_coords_roundtrip(q):
    x, y, u = slice_coords(q)
    assert y >= 0.0
    assert abs(u) == pytest.approx(1.0, abs=1e-12)
    back = slice_coords(q).reassemble()
    scale = 1.0 + abs(q)
    if y > AXIS_EPS * scale:
        assert abs(back - q) <= 1e-15 * scale
    else:
        # inside the fallback band the canonical axis may redirect an
        # imaginary part as large as the threshold itself
        assert abs(back - q) <= 2.0 * AXIS_EPS * scale


def test_orthogonal_unit_canonical_choices():
    assert orthogonal_unit(I) == J
    assert orthogonal_unit(J) == K
    assert orthogonal_unit(K) == J
    u = Quaternion(0, 1, 1, 0) / math.sqrt(2.0)
    v = orthogonal_unit(u)
    assert abs(np.dot(u.imag_vector, v.imag_vector)) < 1e-14
    assert abs(v) == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_unit_near_reference_falls_back():
    u = Quaternion(0, 1e-12, 1.0, 0)
    v = orthogonal_unit(u / abs(u))
    assert v == K


def test_orthogonal_unit_well_conditioned_near_j():
    # axes within 1e-3 of +/-j, where Gram-Schmidt of j against u cancels
    rng = np.random.default_rng(7)
    for sign in (1.0, -1.0):
        for _ in range(500):
            w = np.array([0.0, sign, 0.0]) + 1e-3 * rng.uniform() * rng.standard_normal(3) / 2.0
            u = Quaternion(0.0, *(w / np.linalg.norm(w)))
            v = orthogonal_unit(u)
            assert abs(float(np.dot(u.imag_vector, v.imag_vector))) <= 1e-15
            assert abs(v) == pytest.approx(1.0, abs=1e-15)


def test_orthogonal_unit_rejects_reals():
    with pytest.raises(ValueError):
        orthogonal_unit(Quaternion.real(2.0))


def test_orthogonal_unit_anticommutes(rng):
    for _ in range(300):
        u = random_unit_imaginary(rng)
        v = orthogonal_unit(u)
        assert abs(u * v + v * u) <= 1e-14


def test_decompose_basis_examples():
    z, w = decompose_basis(Quaternion(1, 1, 1, 1), I, J)
    assert z == 1 + 1j and w == 1 + 1j
    z, w = decompose_basis(Quaternion(), I, J)
    assert z == 0 and w == 0
    z, w = decompose_basis(J, I, J)
    assert z == 0 and w == 1


def test_decompose_basis_rejects_bad_pairs():
    with pytest.raises(ValueError):
        decompose_basis(ONE, I, I)
    with pytest.raises(ValueError):
        decompose_basis(ONE, I, Quaternion(0, 0, 0.6, 0.8) + Quaternion(0, 0.1, 0, 0))
    # compose_basis validates the same pair: u = v, and a non-unit v
    with pytest.raises(ValueError, match="orthogonal"):
        compose_basis(1 + 2j, 3 + 4j, I, I)
    with pytest.raises(ValueError, match="unit norm"):
        compose_basis(1 + 2j, 3 + 4j, I, Quaternion(0, 0, 2, 0))


def test_decompose_compose_roundtrip(rng):
    for _ in range(300):
        u = random_unit_imaginary(rng)
        v = orthogonal_unit(u)
        a = Quaternion.from_components(rng.standard_normal(4) * 3)
        z, w = decompose_basis(a, u, v)
        back = compose_basis(z, w, u, v)
        assert abs(back - a) <= 1e-14 * (1.0 + abs(a))


def test_decompose_compose_coordinate_axes_bit_exact(rng):
    for _ in range(100):
        a = Quaternion.from_components(rng.standard_normal(4) * 3)
        for u in (I, J, K):
            v = orthogonal_unit(u)
            assert compose_basis(*decompose_basis(a, u, v), u, v) == a


def test_slice_frame_rows_and_validation():
    assert np.array_equal(slice_frame(I), np.eye(4))
    u = random_unit_imaginary(np.random.default_rng(3))
    frame = slice_frame(u)
    v = orthogonal_unit(u)
    assert np.array_equal(frame, np.stack([ONE.as_array(), u.as_array(), v.as_array(),
                                           (u * v).as_array()]))
    assert np.abs(frame @ frame.T - np.eye(4)).max() <= 1e-15
    for bad in (Quaternion(0, 2, 0, 0), Quaternion(0.5, 0, 0, 1), Quaternion()):
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_frame(bad)


def test_frame_vectorized_roundtrip(rng):
    comps = rng.standard_normal((6, 50, 4)) * 3
    for _ in range(20):
        u = random_unit_imaginary(rng)
        frame = slice_frame(u)
        c1, c2 = to_frame(comps, frame)
        assert c1.shape == c2.shape == comps.shape[:-1]
        back = from_frame(c1, c2, frame)
        assert np.abs(back - comps).max() <= 1e-15 * (1.0 + np.abs(comps).max())
        # the stacked transform is the scalar one applied row by row
        v = orthogonal_unit(u)
        for row, z, w in zip(comps[2], c1[2], c2[2]):
            assert decompose_basis(Quaternion.from_components(row), u, v) == (z, w)
    for u in (I, J, K):
        frame = slice_frame(u)
        assert np.array_equal(from_frame(*to_frame(comps, frame), frame), comps)


def test_decompose_is_linear(rng):
    u = random_unit_imaginary(rng)
    v = orthogonal_unit(u)
    a = Quaternion.from_components(rng.standard_normal(4))
    b = Quaternion.from_components(rng.standard_normal(4))
    za, wa = decompose_basis(a, u, v)
    zb, wb = decompose_basis(b, u, v)
    zs, ws = decompose_basis(a + b, u, v)
    assert abs(zs - (za + zb)) < 1e-13
    assert abs(ws - (wa + wb)) < 1e-13


def test_hamilton_matches_scalar(rng):
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal((50, 4))
    out = hamilton(a, b)
    for k in range(50):
        qa = Quaternion.from_components(a[k])
        qb = Quaternion.from_components(b[k])
        assert np.allclose(out[k], (qa * qb).as_array(), atol=1e-14)


def test_text_roundtrip():
    q = Quaternion(1.25, -3.5e-7, 0.0, 2.0 / 3.0)
    assert Quaternion.from_text(q.to_text()) == q
    with pytest.raises(ValueError):
        Quaternion.from_text("1 2 3")
    with pytest.raises(ValueError):
        Quaternion.from_text("1 2 3 spam")
    for text in ("nan inf 0 0", "0 0 0 nan", "-inf 1 2 3", "1 2 Infinity 0"):
        with pytest.raises(ValueError, match="non-finite"):
            Quaternion.from_text(text)
