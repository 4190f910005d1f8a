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
(|f|^2 e^(-alpha r^2))^(p/2) = |f|^p e^(-alpha p r^2 / 2), so the fractional
power runs once per exponent p, and sums over angles before radii.

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
    n_theta   equispaced angular nodes.
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


def _axis_components(u: Quaternion) -> np.ndarray:
    check_unit_imaginary(u)
    return u.imag_vector


def slice_abs_sq(f: SliceSeries, u, grid: PolarGrid) -> np.ndarray:
    """|f|^2 at the grid nodes of the slice of u.

    ``u`` is one unit imaginary (result shape (n,)) or a sequence of them
    (result shape (len(u), n), one row per axis).  Every row comes from the
    same stem-function sweep of f: |f|^2 = A + 2 u.B (module docstring).
    """
    single = isinstance(u, Quaternion)
    axes = np.array([_axis_components(x) for x in ([u] if single else u)]).reshape(-1, 3)
    rows = _slice_rows(*_stem_terms(f, grid), axes)
    return rows[0] if single else rows


def slice_norms(abs_sq: np.ndarray, grid: PolarGrid, pairs) -> dict:
    """Weighted slice p-norms from |f|^2 values, for every (p, alpha) pair.

    ``abs_sq`` holds nodal values in its last axis (one row per slice, or a
    single row); each result has the shape of the leading axes.  The
    Gaussian folds into a radial weight, (|f|^2 e^(-alpha r^2))^(p/2) =
    |f|^p e^(-alpha p r^2 / 2), so the fractional power runs once per p and
    the angular sums are shared by every alpha.
    """
    abs_sq = np.asarray(abs_sq)
    polar = abs_sq.reshape(abs_sq.shape[:-1] + (grid.n_r, grid.n_theta))
    radial_area = grid.area_weights[:: grid.n_theta]
    r_sq = grid.r * grid.r
    ring_sums = {}
    out = {}
    for (p, alpha) in pairs:
        rings = ring_sums.get(p)
        if rings is None:
            powered = polar if p == 2.0 else polar ** (0.5 * p)
            rings = ring_sums[p] = np.sum(powered, axis=-1)
        weight = radial_area * np.exp(-0.5 * alpha * p * r_sq)
        integral = np.sum(rings * weight, axis=-1)
        out[(p, alpha)] = (alpha * p / (2.0 * math.pi) * integral) ** (1.0 / p)
    return out


def fock_norm_slice(f: SliceSeries, u: Quaternion, params: FockParams,
                    grid: Optional[PolarGrid] = None) -> float:
    """Weighted p-norm of f on the slice of u:

        ((alpha p / 2 pi) * integral |f(z) e^(-alpha |z|^2 / 2)|^p dA)^(1/p)

    with the integral over the unit disk or the radius-R disk of the slice.
    """
    if grid is None:
        grid = build_grid(params)
    pair = (params.p, params.alpha)
    return float(slice_norms(slice_abs_sq(f, u, grid), grid, [pair])[pair])


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
    The stem terms are built once and the slices reduced one at a time,
    so no (n_slices, nodes) stack is held in memory.
    """
    if grid is None:
        grid = build_grid(params)
    a, b = _stem_terms(f, grid)
    axes = slice_sample(params.n_slices)
    pair = (params.p, params.alpha)

    def norm_on(u: Quaternion) -> float:
        row = _slice_rows(a, b, u.imag_vector[None])[0]
        return slice_norms(row, grid, [pair])[pair]

    norms = np.array([norm_on(u) for u in axes])
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
