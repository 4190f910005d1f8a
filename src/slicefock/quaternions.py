"""Quaternion arithmetic, the unit imaginary sphere, slice coordinates and frames.

Components are (x0, x1, x2, x3) over the basis (1, i, j, k) with the
multiplication rules ij = -ji = k, jk = -kj = i, ki = -ik = j.  Values are
immutable; every operation returns a fresh ``Quaternion``, so all functions
here are pure and safe to call concurrently.  Each rule has one copy here:
``_components`` reads every (..., 4) quaternion array, ``_slice_coords_rows``
writes q = x + yI (the slice that q sits on), ``check_unit_imaginary`` admits
slice axes within 8 eps, and ``slice_frame``, the one single-axis reader,
writes the basis (1, u, v, uv) in which data on the slice of u becomes a pair
of complex numbers and back.
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
    "slice_coords",
    "orthogonal_unit",
    "check_unit_imaginary",
    "slice_frame",
    "to_frame",
    "from_frame",
    "hamilton",
    "random_unit_imaginary",
]

# A sum of three squares v.v at least this large has lost at most 3 * 2^-1075
# to squares that underflowed, 2^-105 of itself; _slice_coords_rows rescales v
# where v.v is smaller or overflowed.
_NORM_SQ_MIN = 2.0 ** -968

# Largest |Re u| and |u.u - 1| of a slice axis: every axis the library builds
# is within 3 eps of unit, and a frame on an axis 1e-9 off splits with 1e7 eps error.
_AXIS_SLACK = 8 * np.finfo(float).eps


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


def _norm_sq(v) -> np.ndarray:
    """v.v of three component rows, summed left to right whatever their layout."""
    out = v[0] * v[0]
    out += v[1] * v[1]
    out += v[2] * v[2]
    return out


def _slice_coords_rows(q):
    """Slice coordinates of (4, M) component rows: q = x + yI with y = |Im q|.

    Returns z = x + iy, shape (M,), and the unit-axis rows (0, I), shape
    (4, M).  I is Im q / y wherever y > 0, and the canonical i where y is 0
    or NaN (z carries the NaN).  Where v.v under- or overflows (v = Im q),
    y is s |v/s| and I is (v/s) / |v/s|, with s the largest |v_k| (at s = inf,
    y is inf and I points along the signs of the infinite v_k).  This is
    the one rule for the slice a point sits on: ``slice_coords``,
    ``SliceSeries.eval_many`` and ``SplitPair.extend_many`` all call it.
    """
    v = q[1:]
    with np.errstate(over="ignore", under="ignore"):
        y = _norm_sq(v)
    far = (y < _NORM_SQ_MIN) | (y == np.inf)
    np.sqrt(y, out=y)
    axis = np.zeros((4, len(y)))
    np.divide(v, y, out=axis[1:], where=(y > 0) & ~far)
    if far.any():
        w = v[:, far]
        s = np.abs(w).max(axis=0)
        w = np.where(s == np.inf, np.copysign(np.isinf(w), w), w)
        np.divide(w, s, out=w, where=(s > 0) & (s < np.inf))
        n = np.sqrt(_norm_sq(w))
        y[far] = s * n
        axis[1:, far] = np.divide(w, n, out=np.zeros_like(w), where=n > 0)
    axis[1, ~(y > 0)] = 1.0
    z = np.empty(len(y), dtype=complex)
    z.real = q[0]
    z.imag = y
    return z, axis


def slice_coords(q: Quaternion) -> SliceCoords:
    """Split q into x + y*axis with y = |Im(q)| >= 0, by ``_slice_coords_rows``."""
    z, axis = _slice_coords_rows(q.as_array()[:, None])
    return SliceCoords(q.x0, float(z.imag[0]), Quaternion.from_components(axis[:, 0]))


def _components(x) -> np.ndarray:
    """Float components of a Quaternion, shape (4,), or of an (..., 4) array (the
    array itself if float64): the one shape rule for quaternion arrays."""
    c = np.asarray(x.as_array() if isinstance(x, Quaternion) else x, dtype=float)
    if c.shape[-1:] != (4,):
        raise ValueError("quaternions must form an (..., 4) array, got shape %s" % (c.shape,))
    return c


def check_unit_imaginary(u) -> np.ndarray:
    """Float components of the slice axes u, read by ``_components`` (a Quaternion
    or an (..., 4) array), checked row by row in one pass.  Raises ValueError
    unless |Re u| and |u.u - 1| are within ``_AXIS_SLACK``; the comparisons are
    written so that NaN fails them.
    """
    c = _components(u)
    if not (np.all(np.abs(c[..., 0]) <= _AXIS_SLACK)
            and np.all(np.abs(np.sum(c * c, axis=-1) - 1.0) <= _AXIS_SLACK)):
        raise ValueError("slice axis must be a unit imaginary quaternion")
    return c


def orthogonal_unit(u: Quaternion) -> Quaternion:
    """Deterministic unit imaginary orthogonal to u (so the two anticommute).

    Row v of ``slice_frame(u / |Im u|)``: orthogonal_unit(i) == j,
    orthogonal_unit(j) == -i and orthogonal_unit(k) == j exactly.  Raises
    ValueError on a real or non-finite u.
    """
    n = math.hypot(u.x1, u.x2, u.x3)
    if n == 0.0:
        raise ValueError("orthogonal_unit needs an imaginary direction, got a real value")
    return Quaternion.from_components(slice_frame(u.imag / n)[2])


def slice_frame(u: Quaternion) -> np.ndarray:
    """Orthonormal slice basis of one axis u: a (4, 4) array with rows 1, u, v, uv.

    u is one axis that ``check_unit_imaginary`` admits, shape (4,), and row 1
    is its checked components; anything else raises ValueError.  Duff et al.'s
    branchless basis (JCGT 6(1), 2017) with the axes cycled:
    for u = (0, x, y, z), s = copysign(1, x), a = -1/(s + x) and b = y z a,
    v = (0, -s y, 1 + s y^2 a, s b) and uv = (0, -z, b, s + z^2 a), so the
    frames of +-i, +-j and +-k have entries in {0, +-1} and slice_frame(i) is
    the identity.  q = (c1.re + c1.im u) + (c2.re + c2.im u) v gives the
    complex coordinates (c1, c2) of to_frame and from_frame.
    """
    c = check_unit_imaginary(u)
    if c.shape != (4,):
        raise ValueError("a slice frame takes one axis, got an array of shape %s" % (c.shape,))
    x, y, z = c[1:].tolist()
    s = math.copysign(1.0, x)
    a = -1.0 / (s + x)
    b = y * z * a
    frame = np.array([ONE.as_array(), c,
                      [0.0, -s * y, 1.0 + s * y * y * a, s * b],
                      [0.0, -z, b, s + z * z * a]])
    frame.flags.writeable = False
    return frame


def to_frame(comps: np.ndarray, frame: np.ndarray):
    """Complex coordinates (c1, c2) of (..., 4) components in a slice frame."""
    c0, c1, c2, c3 = _component_rows(_components(comps))
    col = frame[1:].reshape((3, 4) + (1,) * c0.ndim)
    # one chain per frame row u, v, uv, summed in place; it starts from +0.0,
    # as np.sum over the component axis does
    s = c0 * col[:, 0]
    s += 0.0
    s += c1 * col[:, 1]
    s += c2 * col[:, 2]
    s += c3 * col[:, 3]
    cu, cv, cuv = s
    return c0 + 1j * cu, cv + 1j * cuv


def _frame_rows(c1, c2, frame: np.ndarray) -> np.ndarray:
    """Component rows, shape (4, ...), of c1.re + c1.im u + c2.re v + c2.im uv."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    col = frame.reshape((4, 4) + (1,) * max(c1.ndim, c2.ndim))
    return c1.real * col[0] + c1.imag * col[1] + c2.real * col[2] + c2.imag * col[3]


def from_frame(c1, c2, frame: np.ndarray) -> np.ndarray:
    """(..., 4) components c1.re + c1.im u + c2.re v + c2.im uv; inverse of to_frame."""
    rows = _frame_rows(c1, c2, frame)
    return np.ascontiguousarray(rows.transpose(tuple(range(1, rows.ndim)) + (0,)))


def random_unit_imaginary(rng: np.random.Generator) -> Quaternion:
    """Uniform random point on the sphere of unit imaginaries."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return Quaternion(0.0, v[0], v[1], v[2])


# -- componentwise helpers on quaternion arrays -----------------------------
#
# The scalar class above is convenient but slow in bulk.  Bulk products run
# on component rows: a (4, M) array whose row k holds component k of M
# quaternions, so every term of the Hamilton formula reads contiguous memory.
# ``hamilton`` is the (..., 4) face of the same kernel.

def _hamilton_rows(a, b, out):
    """Hamilton product of component rows a and b, written into the rows of ``out``.

    Each argument holds four component rows: a (4, ...) array or a sequence
    of four arrays.  The rows of ``out`` have the broadcast shape of the
    operand rows and must not overlap them.  Each component adds its four
    products left to right.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    o0, o1, o2, o3 = out
    t = np.empty_like(o0)
    np.multiply(a0, b0, o0)
    o0 -= np.multiply(a1, b1, t)
    o0 -= np.multiply(a2, b2, t)
    o0 -= np.multiply(a3, b3, t)
    np.multiply(a0, b1, o1)
    o1 += np.multiply(a1, b0, t)
    o1 += np.multiply(a2, b3, t)
    o1 -= np.multiply(a3, b2, t)
    np.multiply(a0, b2, o2)
    o2 -= np.multiply(a1, b3, t)
    o2 += np.multiply(a2, b0, t)
    o2 += np.multiply(a3, b1, t)
    np.multiply(a0, b3, o3)
    o3 += np.multiply(a1, b2, t)
    o3 -= np.multiply(a2, b1, t)
    o3 += np.multiply(a3, b0, t)
    return out


def _component_rows(x: np.ndarray) -> tuple:
    """The four component rows of an (..., 4) array, as views (0-d for one quaternion)."""
    return x[..., 0], x[..., 1], x[..., 2], x[..., 3]


def hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, a float array, broadcast over leading axes of (..., 4) arrays."""
    a, b = _components(a), _components(b)
    out = np.empty(np.broadcast(a, b).shape[:-1] + (4,))
    _hamilton_rows(_component_rows(a), _component_rows(b), _component_rows(out))
    return out
