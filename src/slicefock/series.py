"""Truncated slice-regular power series and their non-commutative algebra.

A series is a finite sum of left powers with right quaternion coefficients,
q^0*a_0 + q^1*a_1 + ... + q^N*a_N.  The star product is the coefficient
convolution (it preserves this form; the pointwise product does not), the
regular conjugate conjugates coefficients, and the star reciprocal inverts
through the real-coefficient symmetrization.  Splitting a series along a
slice yields two ordinary complex series; the extension operator rebuilds
values anywhere from those two.  The slice basis (1, u, v, uv) behind the
split is ``quaternions.slice_frame``; splitting and recombining are
``to_frame`` and ``from_frame`` in that frame.

Bulk evaluation goes through the stem function.  On the slice of u, with
z = x + iy, every power splits as (x + yu)^n = Re(z^n) + u Im(z^n), so

    f(x + yu) = F1(z) + u F2(z),   F1 + i F2 = sum_n z^n a_n,

and ``eval_many`` takes F1 and F2 at every point from one complex Horner
sweep (``_horner``) of the four real coefficient components, then forms
u F2 with one Hamilton product.  The scalar ``eval`` keeps the quaternion
Horner loop, as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO, Union

import numpy as np

from .quaternions import (
    ONE,
    Quaternion,
    _frame_rows,
    _hamilton_rows,
    _slice_coords_rows,
    from_frame,
    hamilton,
    slice_frame,
    to_frame,
)

__all__ = [
    "SliceSeries",
    "SplitPair",
    "SeriesFormatError",
    "DEGREE_CAP",
    "random_series",
    "pointwise_star_residual",
    "read_series",
    "parse_series",
    "write_series",
]

# Hard truncation cap for star products: entire functions have to be
# windowed somewhere, and silently growing degrees would make the grids
# quadratically slower.  Products record how many degrees they dropped.
DEGREE_CAP = 64


def _zero_tol(coeffs: np.ndarray) -> float:
    """Scale-aware threshold for treating a value of this series as zero."""
    return 1e-12 * (1.0 + float(np.abs(coeffs).max(initial=0.0)))


class SeriesFormatError(ValueError):
    """Raised by the text-format parser; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _horner(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_n z^n coeffs[n] as complex rows of shape (k, *z.shape), by Horner.

    ``coeffs`` is a (degree + 1, k) real or complex array.  The result is
    the one accumulator, multiplied and added in place at every step.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.empty((coeffs.shape[1],) + z.shape, dtype=complex)
    rows = (slice(None),) + (None,) * z.ndim
    acc[:] = coeffs[-1][rows]
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c[rows]
    return acc


@dataclass(frozen=True)
class SliceSeries:
    """Immutable truncated series with quaternion coefficients.

    ``coeffs`` has shape (degree+1, 4); row n holds the components of a_n.
    ``dropped`` is an audit counter: the number of degrees discarded when a
    star product ran past the truncation cap.
    """

    coeffs: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 2 or c.shape[1] != 4 or c.shape[0] == 0:
            raise ValueError("coefficients must form a (degree+1, 4) array")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_quaternions(cls, coeffs: Iterable[Quaternion]) -> "SliceSeries":
        rows = [c.as_array() for c in coeffs]
        if not rows:
            raise ValueError("a series needs at least the degree-0 coefficient")
        return cls(np.stack(rows))

    @classmethod
    def constant(cls, a: Union[Quaternion, float]) -> "SliceSeries":
        if isinstance(a, (int, float)):
            a = Quaternion.real(a)
        return cls(a.as_array()[None, :])

    @classmethod
    def monomial(cls, degree: int, a: Quaternion = ONE) -> "SliceSeries":
        c = np.zeros((degree + 1, 4))
        c[degree] = a.as_array()
        return cls(c)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, n: int) -> Quaternion:
        if not 0 <= n <= self.degree:
            return Quaternion()
        return Quaternion.from_components(self.coeffs[n])

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        n = max(self.degree, other.degree)
        c = np.zeros((n + 1, 4))
        c[: self.degree + 1] += self.coeffs
        c[: other.degree + 1] += other.coeffs
        return SliceSeries(c)

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        return self + (-other)

    def __neg__(self) -> "SliceSeries":
        return SliceSeries(-self.coeffs)

    def scale_right(self, a: Quaternion) -> "SliceSeries":
        """f * a with a constant quaternion on the right of every coefficient."""
        return SliceSeries(hamilton(self.coeffs, a.as_array()[None, :]))

    def truncate(self, degree: int) -> "SliceSeries":
        """Keep coefficients up to the given degree (at least the constant)."""
        m = max(0, min(degree, self.degree))
        return SliceSeries(self.coeffs[: m + 1])

    # -- evaluation ---------------------------------------------------------

    def eval(self, q: Quaternion) -> Quaternion:
        """Horner evaluation of sum_n q^n a_n (left powers, right coefficients)."""
        acc = Quaternion.from_components(self.coeffs[-1])
        for n in range(self.degree - 1, -1, -1):
            acc = q * acc + Quaternion.from_components(self.coeffs[n])
        return acc

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized eval at an (..., 4) array of points; returns the same shape.

        Goes through the stem function: q = x + v lies on the slice of
        I = v/|v|, where q^n = Re(z^n) + I Im(z^n) for z = x + i|v|, so

            f(q) = F1(z) + I F2(z),   F1 + i F2 = sum_n z^n a_n.

        One complex Horner sweep (``_horner``) of the four real coefficient
        rows gives F1 and F2 as (4, M) rows, and one ``_hamilton_rows``
        product gives I F2.  z and I come from the one slice-coordinate
        rule, ``quaternions._slice_coords_rows``; at real points I is i,
        where F2 is 0.

        A point with a NaN or infinite component gets NaN in every component
        once the degree is at least 1 (0 * inf is NaN in the sweep, and
        silently so); a constant series gives its constant everywhere.
        """
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (4,):
            raise ValueError("points must form an (..., 4) component array")
        z, axis = _slice_coords_rows(pts.reshape(-1, 4).T)
        out = np.empty(pts.shape)
        rows = out.reshape(-1, 4).T
        with np.errstate(invalid="ignore"):
            f = _horner(self.coeffs, z)
            _hamilton_rows(axis, f.imag, rows)
        rows += f.real
        return out

    # -- star algebra --------------------------------------------------------

    def star(self, other: "SliceSeries", cap: int = DEGREE_CAP) -> "SliceSeries":
        """Star product: coefficient convolution c_n = sum_k a_k b_{n-k}.

        Truncates at min(deg f + deg g, cap) and records the dropped degrees
        in the audit field of the result.  Every product a_i b_j is taken in
        one broadcast ``hamilton`` call; the rows of a_i are added in order of i.
        """
        full = self.degree + other.degree
        n = min(full, cap)
        rows = min(self.degree, n) + 1
        prods = hamilton(self.coeffs[:rows, None], other.coeffs[None, : n + 1])
        out = np.zeros((n + 1, 4))
        for i in range(rows):
            top = min(other.degree, n - i)
            out[i: i + top + 1] += prods[i, : top + 1]
        return SliceSeries(out, dropped=full - n)

    def conjugate(self) -> "SliceSeries":
        """Regular conjugate: every coefficient quaternion-conjugated."""
        c = self.coeffs.copy()
        c[:, 1:] *= -1.0
        return SliceSeries(c)

    def star_reciprocal(self, order: int) -> "SliceSeries":
        """Star inverse through the symmetrization, truncated at ``order``.

        Builds s = f * f^c (real coefficients), inverts s as a formal real
        power series by the standard recurrence, and multiplies by f^c.  The
        result r satisfies f * r = 1 + O(q^(order+1)).  Refuses when the
        constant coefficient vanishes (series inversion is impossible).
        """
        if order < 0:
            raise ValueError("order must be non-negative")
        fc = self.conjugate()
        s = self.star(fc, cap=order)
        s0 = s.coeffs[0, 0]
        # s0 = |a_0|^2, so the zero threshold on a_0 is squared with it
        if s0 <= _zero_tol(self.coeffs) ** 2:
            raise ValueError("reciprocal undefined at origin: constant coefficient vanishes")
        t = np.zeros(order + 1)
        t[0] = 1.0 / s0
        for n in range(1, order + 1):
            top = min(n, s.degree)
            acc = float(np.dot(s.coeffs[1: top + 1, 0], t[n - 1:: -1][: top]))
            t[n] = -acc / s0
        tq = np.zeros((order + 1, 4))
        tq[:, 0] = t
        return SliceSeries(tq).star(fc, cap=order)

    def dilate(self, r: float) -> "SliceSeries":
        """Radial dilation f(r q): coefficient n picks up the factor r^n."""
        if not 0.0 <= r <= 1.0:
            raise ValueError("dilation factor must lie in [0, 1], got %r" % (r,))
        scale = r ** np.arange(self.degree + 1)
        return SliceSeries(self.coeffs * scale[:, None])

    # -- slice splitting ------------------------------------------------------

    def split(self, u: Quaternion) -> "SplitPair":
        """Split along the slice of u into two complex-coefficient series.

        The frame is slice_frame(u) = (1, u, v, uv), so the pair determines
        the series exactly: a_n = c1_n + c2_n * v.
        """
        frame = slice_frame(u)
        return SplitPair(*to_frame(self.coeffs, frame), frame)


@dataclass(frozen=True)
class SplitPair:
    """Two complex series (c1, c2) over a slice frame (rows 1, u, v, uv)."""

    c1: np.ndarray
    c2: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=complex).copy()
        c2 = np.asarray(self.c2, dtype=complex).copy()
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValueError("split components must be 1-D arrays of equal length")
        frame = np.array(self.frame, dtype=float).reshape(4, 4)
        for a in (c1, c2, frame):
            a.flags.writeable = False
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "frame", frame)

    @property
    def degree(self) -> int:
        return self.c1.shape[0] - 1

    def recombine(self) -> SliceSeries:
        """Rebuild the quaternion series: a_n = c1_n + c2_n * v."""
        return SliceSeries(from_frame(self.c1, self.c2, self.frame))

    def eval_components(self, z):
        """Evaluate both complex series at z (scalar or array), by Horner."""
        return tuple(_horner(np.stack([self.c1, self.c2], axis=1), z))

    def extend(self, q: Quaternion) -> Quaternion:
        """Slice-regular extension evaluated at one quaternion (see extend_many)."""
        return Quaternion.from_components(self.extend_many(q.as_array()[None])[0])

    def extend_many(self, points: np.ndarray) -> np.ndarray:
        """Slice-regular extension at an (M, 4) array of points; returns (M, 4).

        Writes each q = x + yI (``quaternions._slice_coords_rows``), evaluates
        the slice function at z = x + yu and its mirror x - yu, and averages
        the two with the projection factors (1 -+ Iu)/2.  On the slice of u
        this reduces to plain evaluation; elsewhere it reproduces the unique
        slice-regular series through the slice values.  The axes, slice
        values and products are (4, M) component rows.

        As in ``SliceSeries.eval_many``, a point with a NaN or infinite
        component gets NaN in every component once the degree is at least 1,
        without a warning; a constant pair gives its constant everywhere.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 4)
        z, iq = _slice_coords_rows(pts.T)
        iq_u = _hamilton_rows(iq, self.frame[1], np.empty_like(iq))
        one = ONE.as_array()[:, None]
        with np.errstate(invalid="ignore"):
            fz = _frame_rows(*self.eval_components(z), self.frame)
            fzbar = _frame_rows(*self.eval_components(z.conjugate()), self.frame)
            mean = 0.5 * (_hamilton_rows(one - iq_u, fz, np.empty_like(iq))
                          + _hamilton_rows(one + iq_u, fzbar, np.empty_like(iq)))
        return np.ascontiguousarray(mean.T)


def random_series(seed: Union[int, np.random.Generator], max_degree: int) -> SliceSeries:
    """Series of degree max_degree whose coefficient components are independent
    standard normals from numpy.random.default_rng(seed) (or the generator
    given), so equal seeds give equal coefficients on every platform."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return SliceSeries(rng.standard_normal((max_degree + 1, 4)))


def pointwise_star_residual(f: SliceSeries, g: SliceSeries, q: Quaternion) -> float:
    """Residual of the pointwise description of the star product at q.

    When f(q) = 0 (within a scale-aware threshold) the star product must
    vanish at q, so the residual is |(f*g)(q)|.  Otherwise it is the gap
    between (f*g)(q) and f(q) * g(f(q)^-1 q f(q)).
    """
    fq = f.eval(q)
    prod = f.star(g).eval(q)
    if abs(fq) <= _zero_tol(f.coeffs):
        return abs(prod)
    conjugated = fq.inverse() * q * fq
    return abs(prod - fq * g.eval(conjugated))


# -- plain text format --------------------------------------------------------
#
# Header "slice-series v1 N=<deg>" then one line per degree:
# "n x0 x1 x2 x3".  Parsers reject duplicate or missing degrees.

_HEADER_PREFIX = "slice-series v1 N="


def write_series(f: SliceSeries, dest: Union[str, TextIO]) -> None:
    lines = ["%s%d" % (_HEADER_PREFIX, f.degree)]
    for n in range(f.degree + 1):
        lines.append("%d %s" % (n, f.coefficient(n).to_text()))
    text = "\n".join(lines) + "\n"
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(text)
    else:
        dest.write(text)


def parse_series(text: str) -> SliceSeries:
    lines = text.splitlines()
    if not lines:
        raise SeriesFormatError(1, "empty input, expected header %r" % _HEADER_PREFIX)
    header = lines[0].strip()
    if not header.startswith(_HEADER_PREFIX):
        raise SeriesFormatError(1, "bad header %r, expected %r" % (header, _HEADER_PREFIX + "<deg>"))
    try:
        deg = int(header[len(_HEADER_PREFIX):])
    except ValueError:
        raise SeriesFormatError(1, "bad truncation degree in header %r" % header) from None
    if deg < 0:
        raise SeriesFormatError(1, "negative truncation degree %d" % deg)
    if deg + 1 > len(lines) - 1:
        # checked before the coefficient array is allocated
        raise SeriesFormatError(1, "missing degrees: N=%d needs %d coefficient lines, %d follow"
                                % (deg, deg + 1, len(lines) - 1))
    coeffs = np.zeros((deg + 1, 4))
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise SeriesFormatError(lineno, "expected 'n x0 x1 x2 x3', got %r" % raw)
        try:
            n = int(parts[0])
        except ValueError:
            raise SeriesFormatError(lineno, "bad degree field %r" % parts[0]) from None
        if not 0 <= n <= deg:
            raise SeriesFormatError(lineno, "degree %d outside 0..%d" % (n, deg))
        if n in seen:
            raise SeriesFormatError(lineno, "duplicate degree %d" % n)
        try:
            coeffs[n] = [float(p) for p in parts[1:]]
        except ValueError:
            raise SeriesFormatError(lineno, "bad coefficient on line %r" % raw) from None
        if not np.all(np.isfinite(coeffs[n])):
            raise SeriesFormatError(lineno, "non-finite coefficient on line %r" % raw)
        seen.add(n)
    missing = sorted(set(range(deg + 1)) - seen)
    if missing:
        raise SeriesFormatError(len(lines) + 1, "missing degrees %s" % missing)
    return SliceSeries(coeffs)


def read_series(path: str) -> SliceSeries:
    with open(path) as fh:
        return parse_series(fh.read())
