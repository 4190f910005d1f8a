from __future__ import annotations

import decimal
import functools

import numpy as np
import pytest

from slicefock import FockParams, Quaternion, SliceSeries


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def fast_params():
    """Reduced-resolution disk parameters; still exact for the degrees used here."""
    return FockParams(n_r=48, n_theta=128, n_slices=16, degree=16)


DECIMAL_PI = decimal.Decimal("3.141592653589793238462643383279502884197")


@functools.lru_cache(maxsize=8)
def exact_unit_circle_decimal(n_theta: int) -> tuple:
    """(cos, sin) of 2 pi j / n_theta for j = 0..n_theta - 1, as 40-digit Decimals
    from Taylor sums at the angle reduced to [-pi, pi]."""
    dec = decimal.Decimal
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for j in range(n_theta):
            t = 2 * DECIMAL_PI * j / n_theta
            if t > DECIMAL_PI:
                t -= 2 * DECIMAL_PI
            term, parts = dec(1), [dec(0), dec(0)]
            for k in range(60):
                parts[k % 2] += term if k % 4 < 2 else -term
                term = term * t / (k + 1)
            out.append(tuple(parts))
    return tuple(out)


def exact_unit_circle(n_theta: int) -> np.ndarray:
    """``exact_unit_circle_decimal`` rounded once to floats, shape (n_theta, 2)."""
    return np.array(exact_unit_circle_decimal(n_theta), dtype=float)


def make_series(rng: np.random.Generator, degree: int) -> SliceSeries:
    return SliceSeries(rng.standard_normal((degree + 1, 4)))


def horner_tolerance(f: SliceSeries, points, c: float = 4.0) -> np.ndarray:
    """c (deg + 1) eps sum_n |a_n| |q|^n at each point of an (..., 4) array.

    The scale of Horner's rounding error, with no absolute floor: two
    evaluations of f at q that both round like Horner differ by less.
    """
    radius = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
    weights = np.polynomial.polynomial.polyval(radius, np.linalg.norm(f.coeffs, axis=1))
    return c * (f.degree + 1) * np.finfo(float).eps * weights


def assert_within_horner_bound(f: SliceSeries, got, want, points, c: float = 4.0) -> None:
    """|got - want| per point below ``horner_tolerance``, with equal shapes."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape == np.shape(points)
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= horner_tolerance(f, points, c))


def node_area(grid) -> np.ndarray:
    """Lebesgue dA weight at each node of the flattened grid, the ring weight repeated."""
    return np.repeat(grid.ring_area, grid.n_theta)


def ball_point(rng: np.random.Generator, r_scale: float = 0.95) -> Quaternion:
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return Quaternion.from_components(v * r_scale * rng.uniform() ** 0.25)


# -- reference copies of the earlier (M, 4) array formulas ------------------------
#
# The component-row kernels must reproduce these bit for bit, sign of zero
# included; the bit-identity tests in test_quaternions.py and test_series.py
# compare against them.

def stack_hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on (..., 4) arrays through stride-4 views and np.stack."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def sum_to_frame(comps, frame):
    """to_frame through np.sum over the length-4 component axis."""
    c = np.asarray(comps, dtype=float)
    cu, cv, cuv = (np.sum(c * row, axis=-1) for row in frame[1:])
    return c[..., 0] + 1j * cu, cv + 1j * cuv


def broadcast_from_frame(c1, c2, frame):
    """from_frame through (n, 4) broadcasts of the frame rows."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    return (c1.real[..., None] * frame[0] + c1.imag[..., None] * frame[1]
            + c2.real[..., None] * frame[2] + c2.imag[..., None] * frame[3])


def with_signed_zeros(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals with about a quarter of the entries +0.0 and a quarter -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.uniform(size=shape)
    x[pick < 0.25] = 0.0
    x[(pick >= 0.25) & (pick < 0.5)] = -0.0
    return x


def layouts(x: np.ndarray) -> dict:
    """The same values as a C-order, a Fortran-order and a row-strided array."""
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "strided": np.repeat(x, 2, axis=0)[::2]}


def assert_bit_identical(got, want) -> None:
    """Equal shape, dtype and values, with the sign of every zero equal too."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    for part in ((lambda x: x.real), (lambda x: x.imag)) if np.iscomplexobj(want) else (
            (lambda x: x),):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
