"""Gaussian-weighted numerics on slice disks.

Implements the weighted p-norms per slice and their supremum over a
deterministic sample of slices, the Gaussian-measure inner product, the
monomial Gram diagonal, the reproducing kernel and the integral projection
onto series form.

Two domain modes are supported: the unit disk of each slice, and a
radius-R truncation of the whole slice plane.  Monomial Gram values are
incomplete-gamma numbers in the first mode and approach factorials in the
second.

The p = 2 space has the reproducing kernel K(q, w) = sum_n q^n conj(w)^n c_n
with c_n = alpha^n / n!, the reciprocal of ||q^n||^2 on the whole plane
(Alpay, Colombo, Sabadini and Salomon, The Fock space in the slice
hyperholomorphic setting, 2014).  The domain-corrected kernel takes
c_n = 1 / gamma_n from the measured Gram diagonal, so it reproduces
monomials on either domain by construction.  ``_kernel_weights`` is the
one definition of c_n behind ``kernel_series`` and ``projection_series``;
K(q, w) itself is ``kernel_series(w, params).eval(q)``.

Slice norms go through the stem function F = F1 + i F2 of the series
(Ghiloni and Perotti, Slice regular functions on real alternative algebras,
Adv. Math. 226 (2011)).  With z = x + iy every power splits as
(x + yu)^n = Re(z^n) + u Im(z^n) on the slice of u, so

    f(x + yu) = F1(z) + u F2(z),
    F1 = sum_n Re(z^n) a_n,   F2 = sum_n Im(z^n) a_n,

and one complex Horner sweep of the four real coefficient components gives
F1 + i F2 for every slice at once.  ``SliceSeries.eval_many`` evaluates at
arbitrary points by the same identity, with u the unit axis and y the
length of each point's imaginary part.  Writing F1 = (s, v) and
F2 = (t, w) in real and vector parts, the squared modulus on the slice of
u is affine in u:

    |f(x + yu)|^2 = A(z) + 2 u.B(z),
    A = |F1|^2 + |F2|^2,   B = t v - s w + w x v.

The Gaussian depends on the radius alone: ring r of the grid carries one
weight lambda_r = area_r (alpha/pi) e^(-alpha r^2) at each of its n_theta
nodes (``PolarGrid.ring_weights``).  The angular rule is the equispaced
trapezoid, so the angular sum of each ring is a DFT: with theta_j =
2 pi j / n_theta, sum_j e^(-i n theta_j) x_j is bin n mod n_theta of
``np.fft.fft(x)``, and conj(z)^n aliases mod n_theta on the grid exactly as
the bins do.  Every p = 2 Gaussian integral is therefore a sum over an
n_r x (degree + 1) ring table, for any degree:

  * Gram diagonal: gamma_m = n_theta sum_r lambda_r r^(2m);
  * moment n of grid samples g, M_n = integral conj(z)^n g dlambda:
    sum_r lambda_r r^n spectrum[r, n mod n_theta], one FFT over the angles
    of each ring of the frame samples (``_moments``); the projection is
    c_n M_n, the inner product sum_n conj(a_n) M_n(g) for f = sum z^n a_n;
  * p = 2 slice norm: by Parseval, sum_theta |F1|^2 + |F2|^2 = n_theta
    sum_{c,m} T[c,r,m]^2 with T[c,r,m] = sum over n = m mod n_theta of
    a_{n,c} r^n, and sum_theta B = 0 exactly, since B pairs F1 with F2
    antisymmetrically and T is real.  So every p = 2 slice norm is the
    same number, computed from the coefficients without a node value, and
    ``fock_norm_sup`` at p = 2 reports the first sample axis.

Every table row lambda_r r^n is a running product that starts from the
weight (from sqrt(lambda_r) for the norms, whose terms are squared), so a
Gaussian that underflows never meets a power that overflows.

For p != 2 the weighted reduction folds the Gaussian into a radial weight,
(|f|^2 e^(-alpha r^2))^(p/2) = |f|^p e^(-alpha p r^2 / 2): the ring weight
of alpha p / 2, which also carries the normalization alpha p / (2 pi).  It
sums over angles before radii, so the ring sums of |f|^p serve every alpha:

  * p = 4, 3, 3/2, 4/3: |f|^p is s*s, s*sqrt(s), sqrt(s*sqrt(s)) and
    cbrt(s)^2 for s = |f|^2 (``_power``); any other p uses s ** (p/2);
  * rows are filled, powered and summed in blocks of ``_BLOCK_ROWS`` slices
    (1 MB on the default grid), which stay in L2 cache.

The single-slice paths (grid samples, projection, the inner product's g)
split f as F + G v in the frame (1, u, v, uv) of ``quaternions.slice_frame``
through ``to_frame``/``from_frame``: two complex Horner rows, not four.

All reductions are plain ordered numpy sums and elementwise products over
immutable grids (no BLAS), and numpy's FFT runs no threads, so equal inputs
give bit-identical outputs whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .quadrature import PolarGrid, build_polar_grid, slice_sample
from .quaternions import (ONE, Quaternion, check_unit_imaginary, from_frame, hamilton, slice_frame,
                          to_frame)
from .series import SliceSeries, _horner

__all__ = [
    "FockParams",
    "SupNorm",
    "build_grid",
    "slice_abs_sq",
    "slice_norms",
    "stem_norms",
    "fock_norm_slice",
    "fock_norm_sup",
    "inner_product",
    "gram_table",
    "kernel_series",
    "projection_series",
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
    acc = _horner(f.coeffs, grid.z)
    s, v1, v2, v3 = acc.real
    t, w1, w2, w3 = acc.imag
    a = s * s + v1 * v1 + v2 * v2 + v3 * v3 + t * t + w1 * w1 + w2 * w2 + w3 * w3
    b = np.stack([t * v1 - s * w1 + (w2 * v3 - w3 * v2),
                  t * v2 - s * w2 + (w3 * v1 - w1 * v3),
                  t * v3 - s * w3 + (w1 * v2 - w2 * v1)])
    return a, b


def _slice_rows(a: np.ndarray, b2: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """A + 2 u.B for each axis u, a row of the (m, 3) array ``axes``, clamped at 0.

    ``b2`` is 2B, doubled once by the caller however many blocks it fills.

    At a zero of f the two terms cancel and rounding can leave a value of
    order -1e-14, which a fractional power would turn into NaN; the clamp
    keeps NaN for NaN input.  Rows are filled one at a time, so the working
    set stays in cache.
    """
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

    ``u`` is one unit imaginary or an (..., 4) array of their components,
    such as the slice sample of ``quadrature.slice_sample``.
    """
    comps = np.reshape(u.as_array() if isinstance(u, Quaternion) else u, (-1, 4))
    check_unit_imaginary(comps)
    return comps[:, 1:]


def slice_abs_sq(f: SliceSeries, u, grid: PolarGrid) -> np.ndarray:
    """|f|^2 at the grid nodes of the slice of u.

    ``u`` is one unit imaginary (result shape (n,)) or an (m, 4) array of
    them (result shape (m, n), one row per axis).  Every row comes from the
    same stem-function sweep of f: |f|^2 = A + 2 u.B (module docstring).
    """
    a, b = _stem_terms(f, grid)
    rows = _slice_rows(a, 2.0 * b, _axis_rows(u))
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
    """Norms from the ring sums of |f|^p: the Gaussian weight of alpha p / 2 per ring."""
    out = {}
    for (p, alpha) in pairs:
        integral = np.sum(rings[p] * grid.ring_weights(0.5 * alpha * p), axis=-1)
        out[(p, alpha)] = integral ** (1.0 / p)
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


def _ring_powers(start: np.ndarray, step: np.ndarray, degree: int) -> np.ndarray:
    """start * step^n per ring, n = 0..degree, shape (n_r, degree + 1).

    A running product from ``start``: step^n is never formed alone, so an
    underflowed weight never meets an overflowed power (0 * inf = NaN).
    """
    table = np.empty((start.size, degree + 1))
    table[:, 0] = start
    table[:, 1:] = step[:, None]
    return np.cumprod(table, axis=1)


def _p2_rings(f: SliceSeries, grid: PolarGrid, alpha: float) -> np.ndarray:
    """lambda_r sum_theta |f|^2 on each ring, shape (n_r,), the same on every slice.

    sum_theta |f|^2 = n_theta sum_{c,m} T[c,r,m]^2 with T[c,r,m] the sum of
    a_{n,c} r^n over n = m mod n_theta (module docstring).  The running
    powers start from sqrt(lambda_r), so e^(-alpha r^2 / 2) is folded in
    before squaring and |f|^2 itself is never formed.
    """
    powers = _ring_powers(np.sqrt(grid.ring_weights(alpha)), grid.r, f.degree)
    terms = f.coeffs.T[:, None, :] * powers
    bins = -(-terms.shape[-1] // grid.n_theta)
    if bins > 1:
        terms = np.pad(terms, ((0, 0), (0, 0), (0, bins * grid.n_theta - terms.shape[-1])))
        terms = np.sum(terms.reshape(4, grid.n_r, bins, grid.n_theta), axis=2)
    return grid.n_theta * np.sum(terms * terms, axis=(0, 2))


def stem_norms(f: SliceSeries, axes, grid: PolarGrid, pairs) -> dict:
    """Weighted p-norms of f on the slice of each axis, for every (p, alpha) pair.

    ``axes`` is one unit imaginary or an (m, 4) array of them; each result
    has shape (m,).  At p = 2 every slice has the one norm of the ring
    table (``_p2_rings``), and no node value is computed.  Other exponents
    share one stem sweep of f and fill |f|^2 rows a block at a time, and
    no (m, nodes) stack is built.
    """
    units = _axis_rows(axes)
    out = {}
    for pair in pairs:
        if pair[0] == 2.0:
            norm = math.sqrt(float(np.sum(_p2_rings(f, grid, pair[1]))))
            out[pair] = np.full(len(units), norm)
    rest = [pair for pair in pairs if pair[0] != 2.0]
    if rest:
        a, b = _stem_terms(f, grid)
        b2 = 2.0 * b
        blocks = ((i, _slice_rows(a, b2, units[i: i + _BLOCK_ROWS]))
                  for i in range(0, len(units), _BLOCK_ROWS))
        rings = _ring_sums(blocks, len(units), grid, _exponents(rest))
        out.update(_weighted_norms(rings, grid, rest))
    return {pair: out[pair] for pair in pairs}


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
    return float(stem_norms(f, u, grid, [pair])[pair][0])


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
    return SupNorm(float(norms[best]), Quaternion.from_components(axes[best]))


def _moments(c1, c2, grid: PolarGrid, alpha: float, degree: int) -> np.ndarray:
    """Moments M_n, n = 0..degree, of the samples c1 + c2 v at the grid nodes,
    as frame pairs, shape (2, degree + 1): one FFT per ring (module docstring)."""
    rows = np.stack([c1, c2]).reshape(2, grid.n_r, grid.n_theta)
    spectrum = np.fft.fft(rows, axis=-1)
    bins = np.arange(degree + 1) % grid.n_theta
    powers = _ring_powers(grid.ring_weights(alpha), grid.r, degree)
    return np.sum(spectrum[:, :, bins] * powers, axis=1)


def inner_product(f: SliceSeries, g: SliceSeries, u: Quaternion, params: FockParams,
                  grid: Optional[PolarGrid] = None) -> Quaternion:
    """Gaussian-measure inner product of f and g on the slice of u.

    The integral of conj(f(z)) g(z) against (alpha/pi) e^(-alpha|z|^2) dA.
    Conjugating the left argument makes the form right-linear in g and
    hermitian, which is the structure the p = 2 space carries; the p
    parameter plays no role here.  It is sum_n conj(a_n) M_n(g) over the
    coefficients a_n of f, with M_n the moments of g's grid samples that
    ``projection_series`` reads (module docstring).
    """
    if grid is None:
        grid = build_grid(params)
    pair = g.split(u)
    moments = _moments(*pair.eval_components(grid.z), grid, params.alpha, f.degree)
    terms = hamilton(f.conjugate().coeffs, from_frame(*moments, pair.frame))
    return Quaternion.from_components(np.sum(terms, axis=0))


def gram_table(params: FockParams, grid: Optional[PolarGrid] = None) -> np.ndarray:
    """Monomial Gram diagonal ||q^m||^2, m = 0..degree, measured with the grid.

    A read-only (degree + 1,) array, the radial sum of the ring table,
    gamma_m = n_theta sum_r lambda_r r^(2m).  On the unit disk the entries
    match the incomplete-gamma values gamma(m+1, alpha)/alpha^m; in plane
    mode they approach m!/alpha^m as the truncation radius grows.
    """
    if grid is None:
        grid = build_grid(params)
    powers = _ring_powers(grid.ring_weights(params.alpha), grid.r * grid.r, params.degree)
    diag = grid.n_theta * np.sum(powers, axis=0)
    diag.flags.writeable = False
    return diag


def _kernel_weights(params: FockParams, grid: Optional[PolarGrid], corrected: bool) -> np.ndarray:
    """Kernel weights c_n, n = 0..degree: alpha^n / n!, or 1 / gram_n if corrected."""
    if corrected:
        return 1.0 / gram_table(params, grid)
    weights = np.empty(params.degree + 1)
    acc = 1.0
    for n in range(params.degree + 1):
        weights[n] = acc
        acc *= params.alpha / (n + 1)
    return weights


def kernel_series(w: Quaternion, params: FockParams, *, corrected: bool = False) -> SliceSeries:
    """Section q -> K(q, w) of the reproducing kernel: coefficients conj(w)^n c_n.

    Left slice regular in q, right slice regular in w; truncated at params.degree.
    The rows from the first underflowed weight on stay 0, so a power of w
    that overflows is never multiplied by a zero weight into NaN.
    """
    weights = _kernel_weights(params, None, corrected)
    rows = np.zeros((params.degree + 1, 4))
    wbar = w.conjugate()
    acc = ONE
    for n, weight in enumerate(weights):
        if weight == 0.0:
            break
        rows[n] = acc.as_array() * weight
        acc = acc * wbar
    return SliceSeries(rows)


def projection_series(samples: np.ndarray, u: Quaternion, params: FockParams,
                      grid: Optional[PolarGrid] = None, *,
                      corrected: bool = False) -> SliceSeries:
    """Project grid samples onto a slice-regular series.

    Coefficient n of the result is

        c_n * integral conj(z)^n f(z) dlambda(z)

    against the Gaussian probability measure, with the kernel weights c_n
    of ``kernel_series`` (alpha^n / n!, or 1 / gram_n with ``corrected=True``,
    which makes monomial reproduction exact on the domain).  This is the
    kernel paired on the left of the samples; the kernel hermiticity
    K(q, w) = conj(K(w, q)) makes this the adjoint-consistent order, and it
    keeps the output a genuine left series even for quaternion-valued samples.
    The integral is the moment M_n of ``_moments``.
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
    a, b = (_moments(*to_frame(s, frame), grid, params.alpha, params.degree)
            * _kernel_weights(params, grid, corrected))
    return SliceSeries(from_frame(a, b, frame))


def sample_on_grid(f: SliceSeries, u: Quaternion, grid: PolarGrid) -> np.ndarray:
    """Values of f at the grid nodes of the slice of u, as (n, 4) components."""
    pair = f.split(u)
    return from_frame(*pair.eval_components(grid.z), pair.frame)
