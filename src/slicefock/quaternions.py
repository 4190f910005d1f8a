"""Quaternion arithmetic, the unit imaginary sphere, slice coordinates and frames.

Components are (x0, x1, x2, x3) over the basis (1, i, j, k) with the
multiplication rules ij = -ji = k, jk = -kj = i, ki = -ik = j.  Values are
immutable; every operation returns a fresh ``Quaternion``, so all functions
here are pure and safe to call concurrently.  ``slice_frame`` is the one
place that fixes the basis (1, u, v, uv) in which quaternion data on the
slice of u becomes a pair of complex numbers and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Quaternion",
    "SliceCoords",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "AXIS_EPS",
    "axis",
    "slice_coords",
    "orthogonal_unit",
    "check_unit_imaginary",
    "slice_frame",
    "to_frame",
    "from_frame",
    "decompose_basis",
    "compose_basis",
    "hamilton",
    "random_unit_imaginary",
]

# Relative threshold below which Im(q) is treated as zero and the axis
# falls back to the canonical unit i.  Scale-aware so that large reals do
# not acquire a spurious axis from rounding noise.
AXIS_EPS = 1e-13

# orthogonal_unit normalizes the residual of j against u, whose norm
# sqrt(1 - u_y^2) divides its rounding error; above |u_y| = 1 - gap it uses k,
# whose residual has norm sqrt(1 - u_z^2) >= |u_y|.  Gap 0.5 keeps both norms
# >= 0.5, so u.v is a few ulps for every axis (a tiny gap gives eps/sqrt(gap)).
_FALLBACK_GAP = 0.5


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion value x0 + x1*i + x2*j + x3*k."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "x2", float(self.x2))
        object.__setattr__(self, "x3", float(self.x3))

    # -- constructors ------------------------------------------------------

    @classmethod
    def real(cls, x: float) -> "Quaternion":
        return cls(x, 0.0, 0.0, 0.0)

    @classmethod
    def from_components(cls, comps: Iterable[float]) -> "Quaternion":
        c = list(comps)
        if len(c) != 4:
            raise ValueError("expected 4 components, got %d" % len(c))
        return cls(*c)

    @classmethod
    def from_text(cls, text: str) -> "Quaternion":
        """Parse the plain text form "x0 x1 x2 x3" (whitespace separated)."""
        parts = text.split()
        if len(parts) != 4:
            raise ValueError("expected 4 decimal fields, got %d" % len(parts))
        try:
            comps = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError("bad quaternion text %r: %s" % (text, exc)) from None
        if not all(math.isfinite(c) for c in comps):
            raise ValueError("non-finite component in quaternion text %r" % (text,))
        return cls(*comps)

    # -- views -------------------------------------------------------------

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    @property
    def imag(self) -> "Quaternion":
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    @property
    def imag_vector(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    @property
    def norm_sq(self) -> float:
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq)

    def to_text(self) -> str:
        """Plain text form "x0 x1 x2 x3" with round-trip precision."""
        return "%.17g %.17g %.17g %.17g" % (self.x0, self.x1, self.x2, self.x3)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                              self.x2 + other.x2, self.x3 + other.x3)
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 + other, self.x1, self.x2, self.x3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                              self.x2 - other.x2, self.x3 - other.x3)
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 - other, self.x1, self.x2, self.x3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.x0, -self.x1, -self.x2, -self.x3)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        """Hamilton product; scalars act componentwise."""
        if isinstance(other, Quaternion):
            a0, a1, a2, a3 = self.x0, self.x1, self.x2, self.x3
            b0, b1, b2, b3 = other.x0, other.x1, other.x2, other.x3
            return Quaternion(
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.x0 / other, self.x1 / other,
                              self.x2 / other, self.x3 / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        """q-bar: the real part kept, the imaginary part negated."""
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q)/|q|^2; raises on zero input."""
        n2 = self.norm_sq
        if n2 == 0.0:
            raise ZeroDivisionError("non-invertible: zero quaternion")
        return Quaternion(self.x0 / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)

    def __str__(self) -> str:
        return self.to_text()


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class SliceCoords(NamedTuple):
    """Coordinates q = x + y*axis with y >= 0 and axis a unit imaginary."""

    x: float
    y: float
    axis: Quaternion

    def reassemble(self) -> Quaternion:
        return Quaternion(self.x,
                          self.y * self.axis.x1,
                          self.y * self.axis.x2,
                          self.y * self.axis.x3)


def axis(q: Quaternion) -> Quaternion:
    """Unit imaginary direction Im(q)/|Im(q)|.

    (Near-)real inputs have no preferred direction; the canonical unit i is
    returned so that downstream computations stay reproducible.
    """
    y = math.sqrt(q.x1 * q.x1 + q.x2 * q.x2 + q.x3 * q.x3)
    if y <= AXIS_EPS * (1.0 + abs(q)):
        return I
    return Quaternion(0.0, q.x1 / y, q.x2 / y, q.x3 / y)


def slice_coords(q: Quaternion) -> SliceCoords:
    """Split q into x + y*axis(q) with y = |Im(q)| >= 0."""
    y = math.sqrt(q.x1 * q.x1 + q.x2 * q.x2 + q.x3 * q.x3)
    return SliceCoords(q.x0, y, axis(q))


def check_unit_imaginary(u) -> None:
    """Raise unless u is a unit imaginary quaternion, i.e. a slice axis.

    ``u`` may also be an (..., 4) component array, checked row by row in
    one vectorized pass.  The comparisons are written so that NaN fails them.
    """
    if isinstance(u, Quaternion):
        bad = not (abs(u.x0) <= 1e-9 and abs(u.norm_sq - 1.0) <= 1e-9)
    else:
        c = np.asarray(u, dtype=float)
        bad = not (np.all(np.abs(c[..., 0]) <= 1e-9)
                   and np.all(np.abs(np.sum(c * c, axis=-1) - 1.0) <= 1e-9))
    if bad:
        raise ValueError("slice axis must be a unit imaginary quaternion")


def orthogonal_unit(u: Quaternion) -> Quaternion:
    """Deterministic unit imaginary orthogonal to u (so the two anticommute).

    Gram-Schmidt of the fixed direction j against u, falling back to k when
    u is too close to +/-j for the projection to be well conditioned.  The
    choice is branch-stable: orthogonal_unit(i) == j and
    orthogonal_unit(j) == k exactly.
    """
    v = u.imag_vector
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("orthogonal_unit needs an imaginary direction, got a real value")
    v = v / n
    ref = np.array([0.0, 1.0, 0.0])
    if abs(v[1]) > 1.0 - _FALLBACK_GAP:
        ref = np.array([0.0, 0.0, 1.0])
    w = ref - np.dot(ref, v) * v
    w = w / np.linalg.norm(w)
    return Quaternion(0.0, w[0], w[1], w[2])


def _frame(u: Quaternion, v: Quaternion) -> np.ndarray:
    frame = np.stack([ONE.as_array(), u.as_array(), v.as_array(), (u * v).as_array()])
    frame.flags.writeable = False
    return frame


def slice_frame(u: Quaternion) -> np.ndarray:
    """Orthonormal slice basis of u: a (4, 4) array with rows 1, u, v, uv.

    v = orthogonal_unit(u); a = (c1.re + c1.im u) + (c2.re + c2.im u) v
    gives the complex coordinates (c1, c2) of to_frame and from_frame.
    """
    check_unit_imaginary(u)
    return _frame(u, orthogonal_unit(u))


def to_frame(comps: np.ndarray, frame: np.ndarray):
    """Complex coordinates (c1, c2) of (..., 4) components in a slice frame."""
    c = np.asarray(comps, dtype=float)
    cu, cv, cuv = (np.sum(c * row, axis=-1) for row in frame[1:])
    return c[..., 0] + 1j * cu, cv + 1j * cuv


def from_frame(c1, c2, frame: np.ndarray) -> np.ndarray:
    """(..., 4) components c1.re + c1.im u + c2.re v + c2.im uv; inverse of to_frame."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    return (c1.real[..., None] * frame[0] + c1.imag[..., None] * frame[1]
            + c2.real[..., None] * frame[2] + c2.imag[..., None] * frame[3])


def _check_slice_basis(u: Quaternion, v: Quaternion, tol: float = 1e-10) -> None:
    if abs(u.x0) > tol or abs(v.x0) > tol:
        raise ValueError("slice basis units must be purely imaginary")
    if abs(abs(u) - 1.0) > tol or abs(abs(v) - 1.0) > tol:
        raise ValueError("slice basis units must have unit norm")
    anticomm = u * v + v * u
    if abs(anticomm) > tol:
        raise ValueError("slice basis (u, v) is not orthogonal: u*v + v*u != 0")


def decompose_basis(a: Quaternion, u: Quaternion, v: Quaternion) -> tuple[complex, complex]:
    """Write a = z + w*v with z, w in the complex plane spanned by (1, u).

    (1, u, v, u*v) is an orthonormal real basis of the quaternions whenever
    u and v are orthogonal unit imaginaries, so the coordinates are plain
    Euclidean projections (to_frame).  Raises if (u, v) fail to anticommute.
    """
    _check_slice_basis(u, v)
    z, w = to_frame(a.as_array(), _frame(u, v))
    return complex(z), complex(w)


def compose_basis(z: complex, w: complex, u: Quaternion, v: Quaternion) -> Quaternion:
    """Inverse of decompose_basis: (z.re + z.im*u) + (w.re + w.im*u)*v.

    Raises, like decompose_basis, unless (u, v) are anticommuting unit
    imaginaries.
    """
    _check_slice_basis(u, v)
    return Quaternion.from_components(from_frame(z, w, _frame(u, v)))


def random_unit_imaginary(rng: np.random.Generator) -> Quaternion:
    """Uniform random point on the sphere of unit imaginaries."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return Quaternion(0.0, v[0], v[1], v[2])


# -- componentwise helpers on (..., 4) arrays -------------------------------
#
# The scalar class above is convenient but slow in bulk; the grid and series
# code works on float arrays whose last axis holds the four components.

def hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product broadcast over leading axes of (..., 4) arrays."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)
