from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicefock import (
    FockParams,
    I,
    J,
    K,
    ONE,
    Quaternion,
    build_grid,
    fock_norm_slice,
    inner_product,
    orthogonal_unit,
    projection_series,
    random_series,
    sample_on_grid,
    slice_coords,
)
from slicefock.quadrature import slice_sample
from slicefock.quaternions import (
    _slice_coords_rows,
    check_unit_imaginary,
    from_frame,
    hamilton,
    random_unit_imaginary,
    slice_frame,
    to_frame,
)

from conftest import (
    assert_bit_identical,
    broadcast_from_frame,
    layouts,
    stack_hamilton,
    sum_to_frame,
    with_signed_zeros,
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


def axis(q: Quaternion) -> Quaternion:
    return slice_coords(q).axis


def test_axis_examples():
    assert axis(3.0 * J) == J
    a = axis(Quaternion(1, 1, 1, 1))
    s = 1.0 / math.sqrt(3.0)
    assert abs(a - Quaternion(0, s, s, s)) < 1e-15
    assert abs(a * a + ONE) < 1e-15
    # real values fall back to the canonical unit, whatever the sign of zero
    assert axis(Quaternion.real(5.0)) == I
    assert axis(Quaternion(5.0, -0.0, 0.0, -0.0)) == I
    # every nonzero imaginary part has its own axis, however small
    assert axis(Quaternion(1.0, 1e-14, 0, 0)) == I
    assert axis(Quaternion(3.0, 0, 1e-13, 0)) == J


@settings(max_examples=200, deadline=None)
@given(quaternions)
def test_axis_squares_to_minus_one(q):
    u = axis(q)
    assert abs(u * u + ONE) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(quaternions)
def test_slice_coords_roundtrip(q):
    x, y, u = slice_coords(q)
    assert y >= 0.0
    assert abs(u) == pytest.approx(1.0, abs=1e-12)
    back = slice_coords(q).reassemble()
    assert abs(back - q) <= 1e-15 * (1.0 + abs(q))


# the points where a near-real snapping band, or a |v| taken as sqrt(v.v),
# puts q on the wrong slice: v.v underflows (a, b), overflows (c), or Im q
# is small next to Re q (d)
EDGE_POINTS = (Quaternion(0, 1e-170, 0, 0), Quaternion(0, 1e-200, 1e-200, 0),
               Quaternion(1e160, 1e160, -1e160, 1e160), Quaternion(3, 0, 1e-13, 0))


@pytest.mark.parametrize("q", EDGE_POINTS, ids=("tiny-i", "tiny-i+j", "huge", "small-j"))
def test_slice_coords_reassemble_at_the_edges(q):
    x, y, u = slice_coords(q)
    assert x == q.x0 and y > 0.0
    assert abs(abs(u) - 1.0) <= 2 * np.finfo(float).eps
    back = slice_coords(q).reassemble().as_array()
    assert np.all(np.abs(back - q.as_array()) <= 4 * np.finfo(float).eps * np.abs(q.as_array()))


def test_slice_coords_nan_imaginary_part_gives_nan_y():
    for q in (Quaternion(1.0, math.nan, 0, 0), Quaternion(0, 0.5, 0, math.nan)):
        c = slice_coords(q)
        assert math.isnan(c.y)
        back = c.reassemble()
        assert back.x0 == q.x0 and all(math.isnan(t) for t in back.imag_vector)


@pytest.mark.parametrize("q, axis", [
    (Quaternion(0, math.inf, 0, 0), I),
    (Quaternion(0, -math.inf, 0, 0), -I),
    (Quaternion(1, math.inf, -math.inf, 0), Quaternion(0, 1, -1, 0) / math.sqrt(2.0)),
    (Quaternion(-2, 3.0, 1e300, math.inf), K),
])
def test_slice_coords_infinite_imaginary_part(q, axis):
    # y is inf and the axis follows the signs of the infinite components, with no
    # inf / inf (a RuntimeWarning, an error under the test settings)
    c = slice_coords(q)
    assert c.x == q.x0 and c.y == math.inf
    assert abs(c.axis - axis) <= 2 * np.finfo(float).eps


def test_orthogonal_unit_canonical_choices():
    assert orthogonal_unit(I) == J
    assert orthogonal_unit(J) == -I
    assert orthogonal_unit(K) == J
    u = Quaternion(0, 1, 1, 0) / math.sqrt(2.0)
    v = orthogonal_unit(u)
    assert abs(np.dot(u.imag_vector, v.imag_vector)) < 1e-14
    assert abs(v) == pytest.approx(1.0, abs=1e-14)


def test_slice_frame_orthonormal_near_every_pole(rng):
    # random axes, then axes within 1e-16 to 1e-1 of +-i, +-j and +-k
    axes = [random_unit_imaginary(rng) for _ in range(500)]
    for pole in np.vstack([np.eye(3), -np.eye(3)]):
        for gap in 10.0 ** np.arange(-16, 0):
            for _ in range(8):
                w = pole + gap * rng.standard_normal(3)
                axes.append(Quaternion(0.0, *(w / np.linalg.norm(w))))
    eps = np.finfo(float).eps
    for u in axes:
        frame = slice_frame(u)
        assert np.abs(frame @ frame.T - np.eye(4)).max() <= 4 * eps
        uv = u * Quaternion.from_components(frame[2])
        assert np.abs(uv.as_array() - frame[3]).max() <= 4 * eps
    for u in (I, J, K, -I, -J, -K):
        assert set(np.abs(slice_frame(u)).ravel()) <= {0.0, 1.0}


def test_orthogonal_unit_rejects_non_finite_axes():
    for bad in (Quaternion(0, math.nan, 0, 0), Quaternion(0, math.inf, 0, 0),
                Quaternion(0, 1, -math.inf, 0), Quaternion(0, math.inf, math.nan, 0)):
        with pytest.raises(ValueError):
            orthogonal_unit(bad)


def test_orthogonal_unit_well_conditioned_near_j():
    # axes within 1e-3 of +/-j
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


def to_frame_one(a: Quaternion, u: Quaternion) -> tuple:
    """Complex coordinates (z, w) of a = z + w v over slice_frame(u) = (1, u, v, uv)."""
    z, w = to_frame(a.as_array(), slice_frame(u))
    return complex(z), complex(w)


def from_frame_one(z: complex, w: complex, u: Quaternion) -> Quaternion:
    return Quaternion.from_components(from_frame(z, w, slice_frame(u)))


def test_decompose_basis_examples():
    # slice_frame(i) = (1, i, j, k)
    assert to_frame_one(Quaternion(1, 1, 1, 1), I) == (1 + 1j, 1 + 1j)
    assert to_frame_one(Quaternion(), I) == (0, 0)
    assert to_frame_one(J, I) == (0, 1)
    assert to_frame_one(Quaternion(1, 2, 3, 4), I) == (1 + 2j, 3 + 4j)


def test_decompose_compose_roundtrip(rng):
    for _ in range(300):
        u = random_unit_imaginary(rng)
        a = Quaternion.from_components(rng.standard_normal(4) * 3)
        z, w = to_frame_one(a, u)
        back = from_frame_one(z, w, u)
        assert abs(back - a) <= 1e-14 * (1.0 + abs(a))
        # a = (z.re + z.im u) + (w.re + w.im u) v, with v = orthogonal_unit(u)
        v = orthogonal_unit(u)
        direct = (z.real + z.imag * u) + (w.real + w.imag * u) * v
        assert abs(direct - a) <= 1e-14 * (1.0 + abs(a))


def test_decompose_compose_coordinate_axes_bit_exact(rng):
    for _ in range(100):
        a = Quaternion.from_components(rng.standard_normal(4) * 3)
        for u in (I, J, K):
            assert from_frame_one(*to_frame_one(a, u), u) == a


def test_slice_frame_rows_and_validation():
    assert np.array_equal(slice_frame(I), np.eye(4))
    u = random_unit_imaginary(np.random.default_rng(3))
    frame = slice_frame(u)
    v = orthogonal_unit(u)
    assert np.array_equal(frame[:3], np.stack([ONE.as_array(), u.as_array(), v.as_array()]))
    assert np.abs(frame[3] - (u * v).as_array()).max() <= 4 * np.finfo(float).eps
    assert np.abs(frame @ frame.T - np.eye(4)).max() <= 1e-15
    # a frame on the axis scaled by 1 + 4e-10 would be 8e-10 off orthonormal
    for bad in (Quaternion(0, 2, 0, 0), Quaternion(0.5, 0, 0, 1), Quaternion(), u * (1 + 4e-10)):
        with pytest.raises(ValueError, match="unit imaginary"):
            slice_frame(bad)
    # admitted axes, but more than one: every reader of one slice goes through slice_frame
    params = FockParams(n_r=8, n_theta=8)
    grid = build_grid(params)
    f = random_series(1, 3)
    samples = sample_on_grid(f, u, grid)
    for axes in (slice_sample(8)[:4], slice_sample(64)):
        assert axes.shape in ((4, 4), (67, 4))
        for call in (lambda: slice_frame(axes), lambda: f.split(axes),
                     lambda: sample_on_grid(f, axes, grid),
                     lambda: fock_norm_slice(f, axes, params, grid),
                     lambda: inner_product(f, f, axes, params, grid),
                     lambda: projection_series(samples, axes, params, grid)):
            with pytest.raises(ValueError, match="one axis"):
                call()


def test_unit_imaginary_intake_admits_every_library_axis(rng):
    # every axis the library builds, each source within 3 eps of unit, passes
    # the 8 eps slack; the intake hands back the components it checked
    sources = [slice_sample(n) for n in (8, 64, 100, 1000, 10 ** 4)]
    sources.append(np.stack([random_unit_imaginary(rng).as_array() for _ in range(20_000)]))
    points = rng.standard_normal((4, 200_000)) * 10.0 ** rng.uniform(-300.0, 300.0, 200_000)
    sources.append(_slice_coords_rows(points)[1].T)
    sources.append(np.stack([orthogonal_unit(Quaternion(*rng.standard_normal(4))).as_array()
                             for _ in range(5000)]))
    frames = np.stack([slice_frame(random_unit_imaginary(rng)) for _ in range(5000)])
    sources += [frames[:, 2], frames[:, 3]]
    for axes in sources:
        assert_bit_identical(check_unit_imaginary(axes), axes)
        for comps in axes[:: max(1, len(axes) // 50)]:
            assert_bit_identical(check_unit_imaginary(Quaternion.from_components(comps)), comps)


def test_frame_vectorized_roundtrip(rng):
    comps = rng.standard_normal((6, 50, 4)) * 3
    for _ in range(20):
        u = random_unit_imaginary(rng)
        frame = slice_frame(u)
        c1, c2 = to_frame(comps, frame)
        assert c1.shape == c2.shape == comps.shape[:-1]
        back = from_frame(c1, c2, frame)
        assert np.abs(back - comps).max() <= 1e-15 * (1.0 + np.abs(comps).max())
    for u in (I, J, K):
        frame = slice_frame(u)
        assert np.array_equal(from_frame(*to_frame(comps, frame), frame), comps)


def test_decompose_is_linear(rng):
    u = random_unit_imaginary(rng)
    a = Quaternion.from_components(rng.standard_normal(4))
    b = Quaternion.from_components(rng.standard_normal(4))
    za, wa = to_frame_one(a, u)
    zb, wb = to_frame_one(b, u)
    zs, ws = to_frame_one(a + b, u)
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


def test_hamilton_rejects_a_trailing_axis_other_than_4():
    # hamilton and to_frame read their operands through the one shape rule
    shape_rule = r"\(\.\.\., 4\) array, got shape"
    for a, b in ((np.ones((3, 5)), np.ones((3, 5))), (np.ones((3, 4)), np.ones((3, 3))),
                 (np.ones(4), np.ones((4, 1)))):
        with pytest.raises(ValueError, match=shape_rule):
            hamilton(a, b)
        with pytest.raises(ValueError, match=shape_rule):
            to_frame(b, slice_frame(I))


BIT_SIZES = (0, 1, 7, 20_000)


@pytest.mark.parametrize("m", BIT_SIZES)
def test_hamilton_bit_identical_to_stack_formula(m, rng):
    a = with_signed_zeros(rng, (m, 4))
    b = with_signed_zeros(rng, (m, 4))
    single = with_signed_zeros(rng, (1, 4))
    for x in layouts(a).values():
        for y in layouts(b).values():
            assert_bit_identical(hamilton(x, y), stack_hamilton(x, y))
        # the broadcasts used by star, scale_right and extend_many
        assert_bit_identical(hamilton(single, x), stack_hamilton(single, x))
        assert_bit_identical(hamilton(x, single[0]), stack_hamilton(x, single[0]))
    one = np.array([-0.0, 0.0, -0.0, 2.0])
    assert_bit_identical(hamilton(one, -one), stack_hamilton(one, -one))
    nested = a[: m - m % 6].reshape(2, -1, 3, 4)
    assert_bit_identical(hamilton(nested, single), stack_hamilton(nested, single))


@pytest.mark.parametrize("m", BIT_SIZES)
def test_frame_maps_bit_identical_to_sum_and_broadcast(m, rng):
    comps = with_signed_zeros(rng, (m, 4))
    comps[: m // 7] = -0.0                       # whole rows of negative zeros
    for u in (I, J, K, random_unit_imaginary(rng)):
        frame = slice_frame(u)
        for x in layouts(comps).values():
            got, want = to_frame(x, frame), sum_to_frame(x, frame)
            assert_bit_identical(got[0], want[0])
            assert_bit_identical(got[1], want[1])
        c1, c2 = (np.empty(m, dtype=complex) for _ in range(2))
        for c in (c1, c2):
            c.real = with_signed_zeros(rng, m)
            c.imag = with_signed_zeros(rng, m)
        pairs = [(c1, c2), (np.repeat(c1, 2)[::2], np.repeat(c2, 2)[::2])]
        if m:
            pairs += [(c1[:1], c2), (c1[0], c2[-1])]
        for a, b in pairs:
            assert_bit_identical(from_frame(a, b, frame), broadcast_from_frame(a, b, frame))
    frame = slice_frame(I)
    assert_bit_identical(from_frame(-0.0 + 0j, -0.0 - 0j, frame),
                         broadcast_from_frame(-0.0 + 0j, -0.0 - 0j, frame))
    for bad in (np.zeros((5, 3)), np.zeros((2, 5)), np.zeros(())):
        with pytest.raises(ValueError):
            to_frame(bad, frame)


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
