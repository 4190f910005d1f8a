"""Gaussian-weighted numerics on slice disks.

Implements the weighted p-norms per slice and their supremum over a
deterministic sample of slices, the Gaussian-measure inner product, the
monomial Gram diagonal, the exponential reproducing kernel and its
domain-corrected variant, and the integral projection onto series form.

Two domain modes are supported: the unit disk of each slice, and a
radius-R truncation of the whole slice plane.  Monomial Gram values are
incomplete-gamma numbers in the first mode and approach factorials in the
second; the corrected kernel divides by the measured Gram diagonal so that
it reproduces monomials on either domain by construction.

Slice norms go through the stem function F = F1 + i F2 of the series
(Ghiloni and Perotti, Slice regular functions on real alternative algebras,
Adv. Math. 226 (2011)).  With z = x + iy every power splits as
(x + yu)^n = Re(z^n) + u Im(z^n) on the slice of u, so

    f(x + yu) = F1(z) + u F2(z),
    F1 = sum_n Re(z^n) a_n,   F2 = sum_n Im(z^n) a_n,

and one complex Horner sweep of the four real coefficient components gives
F1 + i F2 for every slice at once.  Writing F1 = (s, v) and F2 = (t, w) in
real and vector parts, the squared modulus on the slice of u is affine in u:

    |f(x + yu)|^2 = A(z) + 2 u.B(z),
    A = |F1|^2 + |F2|^2,   B = t v - s w + w x v.

The weighted reduction folds the Gaussian into a radial weight,
(|f|^2 e^(-alpha r^2))^(p/2) = |f|^p e^(-alpha p r^2 / 2), and sums over
angles before radii, so the ring sums of |f|^p serve every alpha.  Each
exponent gets the least arithmetic it needs:

  * p = 2: the ring sums are affine in u, sum A + 2 u.sum B, so
    ``stem_norms`` fills no |f|^2 row at all;
  * p = 4, 3, 3/2, 4/3: |f|^p is s*s, s*sqrt(s), sqrt(s*sqrt(s)) and
    cbrt(s)^2 for s = |f|^2 (``_power``); any other p uses s ** (p/2);
  * rows are filled, powered and summed in blocks of ``_BLOCK_ROWS`` slices
    (1 MB on the default grid), which stay in L2 cache.

The single-slice paths (inner product, grid samples, projection) split f
as F + G v in the frame (1, u, v, uv) of ``quaternions.slice_frame`` instead,
through ``to_frame``/``from_frame``: two complex Horner rows, not four.

All reductions are plain ordered numpy sums over immutable grids (no BLAS),
so equal inputs give bit-identical outputs whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .quadrature import PolarGrid, build_polar_grid, slice_sample
from .quaternions import Quaternion, check_unit_imaginary, from_frame, slice_frame, to_frame
from .series import SliceSeries, star_exponential

__all__ = [
    "FockParams",
    "GramTable",
    "SupNorm",
    "build_grid",
    "slice_abs_sq",
    "slice_norms",
    "stem_norms",
    "fock_norm_slice",
    "fock_norm",
    "fock_norm_sup",
    "inner_product",
    "gram_table",
    "kernel_eval",
    "corrected_kernel_eval",
    "corrected_kernel_series",
    "projection_series",
    "project_T",
    "sample_on_grid",
]


# Largest quadrature grid, n_r * n_theta: 256 times the default 64 x 256.
# At the cap the (4, nodes) complex accumulator of ``_stem_terms`` is 256 MB.
_MAX_NODES = 1 << 22


@dataclass(frozen=True)
class FockParams:
    """Weight and resolution parameters for the slice-disk integrals.

    alpha     Gaussian weight exponent, finite and > 0.
    p         integrability exponent, finite and > 1.
    domain    "disk" (unit disk of the slice) or "plane" (radius-R truncation).
    radius    truncation radius R in plane mode (finite, >= 1); ignored on
              the disk, where it need only be finite.
    degree    truncation degree for kernels, Gram tables and projections.
    n_r       Gauss-Legendre radial nodes.
    n_theta   equispaced angular nodes; n_r * n_theta is at most 2^22.
    n_slices  size of the deterministic slice sample for supremum norms (>= 8).

    A radius-R plane truncation drops the Gaussian tail Q(m+1, alpha R^2)
    of the degree-m monomial moment.  At the default radius 6.5 and
    alpha = 1 that tail stays below 1e-9 only through degree 9: it is
    2.9e-9 at degree 10, 1.3e-6 at degree 15 and 6.2e-2 at the default
    degree 32.  The exponential kernel therefore reproduces q^m there to
    1e-6 only through degree 14 (the acceptance tests use m <= 8); the
    Gram-corrected kernel reproduces every degree on any radius.
    """

    alpha: float = 1.0
    p: float = 2.0
    domain: str = "disk"
    radius: float = 6.5
    degree: int = 32
    n_r: int = 64
    n_theta: int = 256
    n_slices: int = 64

    def __post_init__(self):
        for name in ("alpha", "p", "radius"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.domain not in ("disk", "plane"):
            raise ValueError("domain must be 'disk' or 'plane', got %r" % (self.domain,))
        if self.domain == "plane" and self.radius < 1:
            raise ValueError("plane-mode radius must be >= 1")
        if self.n_r < 4 or self.n_theta < 4:
            raise ValueError("need n_r >= 4 and n_theta >= 4")
        if self.n_r * self.n_theta > _MAX_NODES:
            raise ValueError("grid of n_r * n_theta = %d nodes exceeds the cap of %d"
                             % (self.n_r * self.n_theta, _MAX_NODES))
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.n_slices < 8:
            raise ValueError("supremum norms need n_slices >= 8, got %r" % (self.n_slices,))

    @property
    def r_max(self) -> float:
        return 1.0 if self.domain == "disk" else float(self.radius)


def build_grid(params: FockParams) -> PolarGrid:
    """Quadrature grid for the slice disk selected by the parameters."""
    return build_polar_grid(params.n_r, params.n_theta, params.r_max)


def _stem_terms(f: SliceSeries, grid: PolarGrid):
    """(A, B) with |f|^2 = A + 2 u.B at the grid nodes of every slice u.

    One complex Horner sweep of the four coefficient components gives the
    stem function F1 + i F2; A has shape (n,) and B shape (3, n).
    """
    c = f.coeffs
    z = grid.z
    acc = np.empty((4, z.size), dtype=complex)
    acc[:] = c[-1][:, None]
    for n in range(f.degree - 1, -1, -1):
        acc *= z
        acc += c[n][:, None]
    s, v1, v2, v3 = acc.real
    t, w1, w2, w3 = acc.imag
    a = s * s + v1 * v1 + v2 * v2 + v3 * v3 + t * t + w1 * w1 + w2 * w2 + w3 * w3
    b = np.stack([t * v1 - s * w1 + (w2 * v3 - w3 * v2),
                  t * v2 - s * w2 + (w3 * v1 - w1 * v3),
                  t * v3 - s * w3 + (w1 * v2 - w2 * v1)])
    return a, b


def _slice_rows(a: np.ndarray, b: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """A + 2 u.B for each axis u, a row of the (m, 3) array ``axes``, clamped at 0.

    At a zero of f the two terms cancel and rounding can leave a value of
    order -1e-14, which a fractional power would turn into NaN; the clamp
    keeps NaN for NaN input.  Rows are filled one at a time, so the working
    set stays in cache.
    """
    b2 = 2.0 * b
    rows = np.empty((len(axes), a.size))
    for row, u in zip(rows, axes):
        np.multiply(u[0], b2[0], out=row)
        row += u[1] * b2[1]
        row += u[2] * b2[2]
        row += a
        np.maximum(row, 0.0, out=row)
    return rows


def _axis_rows(u) -> np.ndarray:
    """Imaginary parts, shape (m, 3), of slice axes checked in one pass.

    ``u`` is one unit imaginary, a sequence of them, or an (m, 4) array of
    their components.
    """
    units = [u] if isinstance(u, Quaternion) else u
    if not isinstance(units, np.ndarray):
        units = [x.as_array() for x in units]
    comps = np.asarray(units, dtype=float).reshape(-1, 4)
    check_unit_imaginary(comps)
    return comps[:, 1:]


def slice_abs_sq(f: SliceSeries, u, grid: PolarGrid) -> np.ndarray:
    """|f|^2 at the grid nodes of the slice of u.

    ``u`` is one unit imaginary (result shape (n,)) or a sequence of them
    (result shape (len(u), n), one row per axis).  Every row comes from the
    same stem-function sweep of f: |f|^2 = A + 2 u.B (module docstring).
    """
    rows = _slice_rows(*_stem_terms(f, grid), _axis_rows(u))
    return rows[0] if isinstance(u, Quaternion) else rows


# Rows of |f|^2 values powered and summed together: 8 rows of the default
# 64 x 256 grid are 1 MB, so a block and its powers stay in L2 cache.
_BLOCK_ROWS = 8


def _power(s: np.ndarray, e: float) -> np.ndarray:
    """s ** e for s >= 0, through sqrt and cbrt for the exponents p/2 in use."""
    if e == 1.0:
        return s
    if e == 2.0:
        return s * s
    if e == 2.0 / 3.0:
        out = np.cbrt(s)
        out *= out
        return out
    if e in (1.5, 0.75):
        out = np.sqrt(s)
        out *= s
        return out if e == 1.5 else np.sqrt(out, out=out)
    return s ** e


def _ring_sums(blocks, n_rows: int, grid: PolarGrid, ps) -> dict:
    """Angular sums of |f|^p per ring, {p: (n_rows, n_r)}, for every p in ``ps``.

    ``blocks`` yields (start, rows) with rows a (k, nodes) block of |f|^2
    values; each block is powered and summed before the next one is made.
    """
    rings = {p: np.empty((n_rows, grid.n_r)) for p in ps}
    for start, rows in blocks:
        polar = rows.reshape(len(rows), grid.n_r, grid.n_theta)
        for p in ps:
            rings[p][start: start + len(rows)] = np.sum(_power(polar, 0.5 * p), axis=-1)
    return rings


def _weighted_norms(rings: dict, grid: PolarGrid, pairs) -> dict:
    """Norms from the ring sums of |f|^p: the Gaussian is a radial weight."""
    radial_area = grid.area_weights[:: grid.n_theta]
    r_sq = grid.r * grid.r
    out = {}
    for (p, alpha) in pairs:
        weight = radial_area * np.exp(-0.5 * alpha * p * r_sq)
        integral = np.sum(rings[p] * weight, axis=-1)
        out[(p, alpha)] = (alpha * p / (2.0 * math.pi) * integral) ** (1.0 / p)
    return out


def _exponents(pairs) -> list:
    return list(dict.fromkeys(p for p, _ in pairs))


def slice_norms(abs_sq: np.ndarray, grid: PolarGrid, pairs) -> dict:
    """Weighted slice p-norms from |f|^2 values, for every (p, alpha) pair.

    ``abs_sq`` holds nodal values in its last axis (one row per slice, or a
    single row); each result has the shape of the leading axes.  Rows are
    powered and summed over angles in blocks of ``_BLOCK_ROWS``; the sums
    are shared by every alpha.
    """
    abs_sq = np.asarray(abs_sq)
    lead = abs_sq.shape[:-1]
    flat = abs_sq.reshape(-1, abs_sq.shape[-1])
    blocks = ((i, flat[i: i + _BLOCK_ROWS]) for i in range(0, len(flat), _BLOCK_ROWS))
    rings = _ring_sums(blocks, len(flat), grid, _exponents(pairs))
    rings = {p: r.reshape(lead + (grid.n_r,)) for p, r in rings.items()}
    return _weighted_norms(rings, grid, pairs)


def stem_norms(f: SliceSeries, axes, grid: PolarGrid, pairs) -> dict:
    """Weighted p-norms of f on the slice of each axis, for every (p, alpha) pair.

    ``axes`` is a sequence of unit imaginaries or an (m, 4) array of their
    components; each result has shape (m,).  One stem sweep of f serves
    every axis and exponent.  At p = 2 the ring sums are linear in u,
    sum A + 2 u.sum B, so no row is filled; other exponents fill |f|^2 rows
    a block at a time, and no (m, nodes) stack is built.
    """
    units = _axis_rows(axes)
    a, b = _stem_terms(f, grid)
    ps = _exponents(pairs)
    rings = {}
    if 2.0 in ps:
        shape = (grid.n_r, grid.n_theta)
        ra = np.sum(a.reshape(shape), axis=-1)
        rb2 = np.sum((2.0 * b).reshape((3,) + shape), axis=-1)
        rings[2.0] = (units[:, 0:1] * rb2[0] + units[:, 1:2] * rb2[1]
                      + units[:, 2:3] * rb2[2] + ra)
    rest = [p for p in ps if p != 2.0]
    if rest:
        blocks = ((i, _slice_rows(a, b, units[i: i + _BLOCK_ROWS]))
                  for i in range(0, len(units), _BLOCK_ROWS))
        rings.update(_ring_sums(blocks, len(units), grid, rest))
    return _weighted_norms(rings, grid, pairs)


def fock_norm_slice(f: SliceSeries, u: Quaternion, params: FockParams,
                    grid: Optional[PolarGrid] = None) -> float:
    """Weighted p-norm of f on the slice of u:

        ((alpha p / 2 pi) * integral |f(z) e^(-alpha |z|^2 / 2)|^p dA)^(1/p)

    with the integral over the unit disk or the radius-R disk of the slice.
    It is ``stem_norms`` on one axis, so it matches ``fock_norm_sup`` bit for bit.
    """
    if grid is None:
        grid = build_grid(params)
    pair = (params.p, params.alpha)
    return float(stem_norms(f, [u], grid, [pair])[pair][0])


class SupNorm(NamedTuple):
    value: float
    axis: Quaternion


def fock_norm_sup(f: SliceSeries, params: FockParams,
                  grid: Optional[PolarGrid] = None) -> SupNorm:
    """Supremum of the slice norms over the deterministic slice sample.

    Returns the largest slice norm and the axis achieving it (the first
    such axis of the sample; NaN anywhere makes the value NaN).  The sample
    is a Fibonacci lattice of size n_slices plus the coordinate axes; the
    norm-equivalence sandwich bounds the true supremum by twice any slice
    value, so the sampling error is bounded even between lattice points.
    One stem sweep serves every sampled slice (``stem_norms``).
    """
    if grid is None:
        grid = build_grid(params)
    axes = slice_sample(params.n_slices)
    pair = (params.p, params.alpha)
    norms = stem_norms(f, axes, grid, [pair])[pair]
    best = int(np.argmax(norms))
    return SupNorm(float(norms[best]), axes[best])


def fock_norm(f: SliceSeries, params: FockParams,
              grid: Optional[PolarGrid] = None) -> float:
    return fock_norm_sup(f, params, grid).value


def inner_product(f: SliceSeries, g: SliceSeries, u: Quaternion, params: FockParams,
                  grid: Optional[PolarGrid] = None) -> Quaternion:
    """Gaussian-measure inner product of f and g on the slice of u.

    Quadrature of conj(f(z)) g(z) against (alpha/pi) e^(-alpha|z|^2) dA.
    Conjugating the left argument makes the form right-linear in g and
    hermitian, which is the structure the p = 2 space carries; the p
    parameter plays no role here.
    """
    if grid is None:
        grid = build_grid(params)
    lam = grid.gaussian_weights(params.alpha)
    split_f = f.split(u)
    f1, f2 = split_f.eval_components(grid.z)
    g1, g2 = g.split(u).eval_components(grid.z)
    a = np.sum((np.conj(f1) * g1 + f2 * np.conj(g2)) * lam)
    b = np.sum((np.conj(f1) * g2 - f2 * np.conj(g1)) * lam)
    return Quaternion.from_components(from_frame(a, b, split_f.frame))


@dataclass(frozen=True)
class GramTable:
    """Squared Gaussian-measure norms of the monomials q^m, m = 0..degree."""

    diag: np.ndarray
    alpha: float
    domain: str
    r_max: float

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float).copy()
        d.flags.writeable = False
        object.__setattr__(self, "diag", d)


def gram_table(params: FockParams, grid: Optional[PolarGrid] = None,
               degree: Optional[int] = None) -> GramTable:
    """Monomial Gram diagonal measured with the configured grid.

    On the unit disk the entries match the incomplete-gamma values
    gamma(m+1, alpha)/alpha^m; in plane mode they approach m!/alpha^m as
    the truncation radius grows.
    """
    if grid is None:
        grid = build_grid(params)
    n = params.degree if degree is None else degree
    lam = grid.gaussian_weights(params.alpha)
    r_sq = np.abs(grid.z) ** 2
    diag = np.empty(n + 1)
    acc = lam.copy()
    diag[0] = acc.sum()
    for m in range(1, n + 1):
        acc = acc * r_sq
        diag[m] = acc.sum()
    return GramTable(diag, params.alpha, params.domain, grid.r_max)


def kernel_eval(q: Quaternion, w: Quaternion, params: FockParams) -> Quaternion:
    """Exponential reproducing kernel at (q, w), truncated at params.degree.

    The section in q is the series with coefficients (alpha conj(w))^n/n!,
    left slice regular in q and right slice regular in w.
    """
    return star_exponential(w, params.alpha, params.degree).eval(q)


def corrected_kernel_series(w: Quaternion, params: FockParams,
                            gram: Optional[GramTable] = None) -> SliceSeries:
    """Series form of the domain-adapted kernel: coefficients conj(w)^m / gram[m]."""
    if gram is None:
        gram = gram_table(params)
    rows = np.zeros((params.degree + 1, 4))
    acc = Quaternion.real(1.0)
    wbar = w.conjugate()
    rows[0] = acc.as_array() / gram.diag[0]
    for m in range(1, params.degree + 1):
        acc = acc * wbar
        rows[m] = acc.as_array() / gram.diag[m]
    return SliceSeries(rows)


def corrected_kernel_eval(q: Quaternion, w: Quaternion, params: FockParams,
                          gram: Optional[GramTable] = None) -> Quaternion:
    """Domain-adapted kernel: sum_m q^m conj(w)^m / gram[m].

    Dividing by the measured Gram diagonal instead of the factorial weight
    makes monomial reproduction exact on the configured domain (and agrees
    with the exponential kernel in the large-radius plane limit).
    """
    return corrected_kernel_series(w, params, gram).eval(q)


def projection_series(samples: np.ndarray, u: Quaternion, params: FockParams,
                      grid: Optional[PolarGrid] = None, *,
                      corrected: bool = False) -> SliceSeries:
    """Project grid samples onto a slice-regular series.

    Coefficient n of the result is

        (alpha^n / n!) * integral conj(z)^n f(z) dlambda(z)

    against the Gaussian probability measure, which is the kernel paired on
    the left of the samples; the kernel hermiticity B(q, w) = conj(B(w, q))
    makes this the adjoint-consistent order, and it keeps the output a
    genuine left series even for quaternion-valued samples.  With
    ``corrected=True`` the factorial weight is replaced by the measured
    Gram diagonal, making monomial reproduction exact on the domain.
    """
    if grid is None:
        grid = build_grid(params)
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2 or s.shape[1] != 4:
        raise ValueError("samples must form an (n, 4) component array")
    if s.shape[0] != grid.size:
        raise ValueError("samples do not match the grid: %d values for %d nodes"
                         % (s.shape[0], grid.size))
    frame = slice_frame(u)
    c1, c2 = to_frame(s, frame)
    lam = grid.gaussian_weights(params.alpha)
    zbar = np.conj(grid.z)
    if corrected:
        scale = 1.0 / gram_table(params, grid).diag
    else:
        scale = np.empty(params.degree + 1)
        acc_w = 1.0
        for n in range(params.degree + 1):
            scale[n] = acc_w
            acc_w *= params.alpha / (n + 1)
    w1 = c1 * lam
    w2 = c2 * lam
    pw = np.ones_like(zbar)
    a = np.empty(params.degree + 1, dtype=complex)
    b = np.empty(params.degree + 1, dtype=complex)
    for n in range(params.degree + 1):
        a[n] = np.sum(pw * w1)
        b[n] = np.sum(pw * w2)
        if n < params.degree:
            pw = pw * zbar
    return SliceSeries(from_frame(a * scale, b * scale, frame))


def project_T(samples: np.ndarray, q: Quaternion, u: Quaternion, params: FockParams,
              grid: Optional[PolarGrid] = None, *, corrected: bool = False) -> Quaternion:
    """Value at q of the kernel projection of grid samples on the slice of u."""
    return projection_series(samples, u, params, grid, corrected=corrected).eval(q)


def sample_on_grid(f: SliceSeries, u: Quaternion, grid: PolarGrid) -> np.ndarray:
    """Values of f at the grid nodes of the slice of u, as (n, 4) components."""
    pair = f.split(u)
    return from_frame(*pair.eval_components(grid.z), pair.frame)
