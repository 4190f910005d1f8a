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
monomials on either domain by construction.  ``_kernel_weights`` is the one
definition of c_n, as the ratios rho_n = c_n / c_(n-1), rho_0 = c_0: alpha / n,
or e^(L_(n-1) - L_n) from the log Gram sums below.  ``projection_series`` and
``kernel_series`` multiply them up to c_n and to c_n conj(w)^n; K(q, w) itself
is ``kernel_series(w, params).eval(q)``.

Slice norms go through the stem function F = F1 + i F2 of the series
(Ghiloni and Perotti, Slice regular functions on real alternative algebras,
Adv. Math. 226 (2011)).  With z = x + iy every power splits as
(x + yu)^n = Re(z^n) + u Im(z^n) on the slice of u, so

    f(x + yu) = F1(z) + u F2(z),
    F1 = sum_n Re(z^n) a_n,   F2 = sum_n Im(z^n) a_n,

and F1 + i F2 on the grid serves every slice at once (it is read from the
ring table below).  ``SliceSeries.eval_many`` evaluates at
arbitrary points by the same identity, with u the unit axis and y the
length of each point's imaginary part.  Writing F1 = (s, v) and
F2 = (t, w) in real and vector parts, the squared modulus on the slice of
u is affine in u:

    |f(x + yu)|^2 = A(z) + 2 u.B(z),
    A = |F1|^2 + |F2|^2,   B = t v - s w + w x v.

The Gaussian depends on the radius alone: ring r of the grid carries one
weight lambda_r = area_r (alpha/pi) e^(-alpha r^2) at each of its n_theta
nodes, and every radial sum reads it in logs (``PolarGrid.log_ring_weights``),
with each power of r as n log r, so a Gaussian that underflows never meets a
power that overflows.  The angular rule is the equispaced trapezoid, so the
angular sum of each ring is a DFT: with theta_j = 2 pi j / n_theta,
sum_j e^(-i n theta_j) x_j is bin n mod n_theta of ``np.fft.fft(x)``, and
conj(z)^n aliases mod n_theta on the grid exactly as the bins do.  The Gram
diagonal and the moments sum over lambda_r r^n = exp(log lambda_r + n log r)
(``_log_weighted_powers``):

  * Gram diagonal: gamma_m = e^(L_m), L_m = log(n_theta sum_r lambda_r r^(2m))
    by one log-sum-exp over the rings (``_log_gram``), finite past the float range;
  * moment n of grid samples g, M_n = integral conj(z)^n g dlambda:
    sum_r lambda_r r^n spectrum[r, n mod n_theta], one FFT over the angles
    of each ring of the frame samples (``_moments``); the projection is
    c_n M_n, the inner product sum_n conj(a_n) M_n(g) for f = sum z^n a_n.

Every slice norm and every grid sample reads f from one ring table
(``_ring_table``), T[c,r,m] = 2^-k_r sum over n = m mod n_theta of
a_{n,c} r^n, with k_r = ceil(log2 M_r) and M_r = max over n, c of
|a_{n,c}| r^n (k_r = 0 where f = 0 or M_r is not finite).  Its log terms
split r as 2^e m, so the exponent n e - k_r is an exact integer and a term
carries the rounding of n log2 m alone.  Row r holds the angular Fourier
coefficients of 2^-k_r F (z^n aliases mod n_theta on ring r), and every
reader puts 2^k_r back exactly (``_scale_rings`` for values on the grid).
The nodes read T through one gemm against cos and sin of m theta_j from
``quadrature.angle_table`` (``_angle_sums``), 2^-k_r F = C + i S: the
stem terms read it on half the angles, and ``sample_on_grid`` as
f = 2^k_r (C + u S), +-inf past the float range, never NaN.
(|f|^2 e^(-alpha r^2))^(p/2) folds the Gaussian into the ring weight
lambda_r(alpha p / 2), which carries the normalization alpha p / (2 pi), and
every exponent reduces its ring sums of |2^-k_r f|^p the same way: ring r
weighs lambda_r(alpha p / 2) 2^(p (k_r - K)) in logs, K the largest k_r
(``_ring_weights``), the p-th root is multiplied by 2^K (``_root``), and the
ring sums serve every alpha.

  * p = 2: by Parseval sum_theta |2^-k_r f|^2 = n_theta sum_{c,m} T[c,r,m]^2,
    and sum_theta B = 0 exactly, since B pairs F1 with F2 antisymmetrically
    and T is real.  So every p = 2 slice norm is the same number, computed
    from the coefficients without a node value, and ``fock_norm_sup`` at
    p = 2 reports the first sample axis.
  * p != 2: a block of rows A + 2 u.B is one BLAS product (``np.matmul``)
    of the axes [u | 1] against the rows (2B, A) of ``_stem_terms``,
    clamped at 0 (``_slice_rows``);
  * the angular sum of |f|^p, with s = |f|^2, is one fused product-sum
    sum_theta x y at p = 4, 3, 3/2, 4/3, with (x, y) = (s, s), (s, sqrt(s)),
    (sqrt(s), sqrt(sqrt(s))) and (cbrt(s), cbrt(s)); p = 3 and 3/2 share
    sqrt(s).  p = 2 sums s, and any other p sums s ** (p/2) (``_power_sums``);
  * rows are filled, powered and summed in blocks of ``_BLOCK_ROWS`` slices
    (512 kB of rows on the default grid).  The basis, fill, power and bound
    buffers come from storage that each thread keeps across calls
    (``_workspace.scratch``), so a sweep in steady state faults no pages.

The supremum over a slice sample (``_sup_norms``, behind ``fock_norm_sup``
and the plane sups of the growth and embedding checks) fills only the
slices that a moment bound cannot rule out (Hardy, Littlewood and Polya,
Inequalities, 2.9).  Each ring is cut into sectors of k consecutive angles
(``_SECTORS`` of them, 8 on the default grid).  The sums m = sum b and
G = sum b b^T of a sector's basis rows b = (2B, A) give, on the slice of
every axis u at once, sum s = [u|1].m and sum s^2 = [u|1]^T G [u|1] for
s = |2^-k_r f|^2, and Hoelder's inequality bounds the sector's sum of s^q,
q = p/2:

    sum s^q <= k^(1-q) (sum s)^q                    for q <= 1,
    sum s^q <= (sum s)^(2-q) (sum s^2)^(q-1)        for 1 <= q <= 2.

Weighed like the ring sums, the sector bounds give U(u) >= N(u)^p e^(-t),
with t the largest log ring weight (``_moment_bounds``).  Exact rows are
then filled in blocks in decreasing order of U, and the fill stops when
every unfilled axis has U(u) (1 + ``_SUP_MARGIN``) below the best filled
value of every pair; the margin, 1e-6, covers the clamp, the rounding of the
bound and the rounding of the p-th root, so an unfilled axis can never tie
the maximum.  An unfilled axis keeps ring sums of 0.  The filled rows come
from the same gemm and the same ring sums as in ``stem_norms``, and the norms
are weighed on arrays of every axis, so the value and the first axis that
reaches it are those of the full sweep, bit for bit.  On the default plane
at p = 3 a random series fills a median of 4 of the 67 sampled slices.  A
series with B = 0 (real coefficients, a constant) has the same rows on
every slice and fills one.  p > 4, a non-finite bound, a NaN value, and a
best norm past the float range or below the normal range (where norms the
margin separates can round to a tie) fill every slice.

The projection splits its samples, and the inner product splits g, as
F + G v in the frame (1, u, v, uv) of ``quaternions.slice_frame``
(``to_frame``/``from_frame``).  The inner product keeps its g samples on
that split and the complex Horner sweep (``SplitPair.eval_components``):
samples from the ring table would hand ``_moments`` back nearly the table
itself, and orthogonality and hermiticity would hold almost by
construction, not as quadrature residuals.

The angle sums and the row fill are the BLAS calls behind a norm: a gemm
gives an entry the same bits whatever the number of BLAS threads (a test
compares one and two), a row of the fill also whatever the block size
(``_slice_rows``), and the moment bound's gemms only choose which rows to
fill.  No reduction goes through BLAS: ``np.sum`` is pairwise and
``np.einsum`` without ``optimize`` a single-threaded loop in a fixed order,
and numpy's FFT runs no threads, so equal inputs give bit-identical outputs
whatever the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._workspace import scratch
from .quadrature import PolarGrid, angle_table, build_polar_grid, slice_sample
from .quaternions import (Quaternion, _slice_coords_rows, check_unit_imaginary, from_frame,
                          hamilton, slice_frame, to_frame)
from .series import SliceSeries

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
# At the cap the half-angle sums of ``_stem_terms`` are 128 MB and its B terms 96 MB.
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
    Gram-corrected kernel reproduces every degree on any radius.  On a wide
    plane 64 rings do not resolve the Gram sums at middle degrees: on radius
    30 the corrected weights are 3.4e-6 off 1/n! at n = 50 and 6.1e-5 at
    n = 100; 128 rings are within 1.2e-13 through n = 169.
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


def _params_grid(params: FockParams, grid: Optional[PolarGrid]) -> PolarGrid:
    """``build_grid(params)`` when no grid is given; a given grid must match the
    params' (n_r, n_theta, r_max), so it can never silently override them."""
    if grid is not None:
        shape = (grid.n_r, grid.n_theta, grid.r_max)
        wanted = (params.n_r, params.n_theta, params.r_max)
        if shape != wanted:
            raise ValueError("grid (n_r, n_theta, r_max) = %r is not the params' grid %r"
                             % (shape, wanted))
        return grid
    return build_grid(params)


def _ring_table(f: SliceSeries, grid: PolarGrid):
    """(T, k): T[c,r,m] = 2^-k_r sum over n = m mod n_theta of a_{n,c} r^n, shape
    (4, n_r, min(degree + 1, n_theta)), and the ring exponents k_r, an int array
    (module docstring).  With r = 2^e m, a term is
    sign(a) 2^(((n e - k_r) + n log2 m) + log2 |a|)."""
    e = np.round(np.log2(grid.r))
    n = np.arange(f.degree + 1)
    whole = e[:, None] * n
    power = np.log2(np.ldexp(grid.r, -e.astype(int)))[:, None] * n
    with np.errstate(divide="ignore"):
        log2_a = np.log2(np.abs(f.coeffs.T))
    top = np.max((whole + power) + np.max(log2_a, axis=0), axis=1)
    k = np.where(np.isfinite(top), np.ceil(top), 0.0).astype(int)
    terms = np.sign(f.coeffs.T)[:, None, :] * np.exp2(((whole - k[:, None]) + power)
                                                      + log2_a[:, None, :])
    bins = -(-terms.shape[-1] // grid.n_theta)
    if bins > 1:
        terms = np.pad(terms, ((0, 0), (0, 0), (0, bins * grid.n_theta - terms.shape[-1])))
        terms = np.sum(terms.reshape(4, grid.n_r, bins, grid.n_theta), axis=2)
    return terms, k


def _scale_rings(values: np.ndarray, k: np.ndarray) -> None:
    """Multiply the values of ring r by 2^k_r in place, for ``values`` of shape
    (..., n_r * n_theta) with the nodes ring by ring: exact, and past the float
    range +-inf, never 0 * inf = NaN, with no warning."""
    n_theta = values.shape[-1] // len(k)
    with np.errstate(over="ignore"):
        if np.all(np.abs(k) <= 1022):
            values *= np.repeat(np.exp2(k), n_theta)
        else:
            np.ldexp(values, np.repeat(k, n_theta), out=values)


# Bytes of (cos m theta, sin m theta) columns per gemm of ``_angle_sums``: 1 MB.
_ANGLE_BYTES = 1 << 20


def _angle_sums(table: np.ndarray, grid: PolarGrid, count: int) -> np.ndarray:
    """(C, S), shape (2, 4, n_r, count): C = sum_m T_m cos(m theta_j) and
    S = sum_m T_m sin(m theta_j), j < count, for the ring table T.  One gemm against
    columns gathered from ``quadrature.angle_table`` at m j mod n_theta, ``_ANGLE_BYTES``
    at a time: O(width n_theta) per row, so on a 64 x 256 grid ``_stem_terms`` takes about
    1 ms at degree 150 and 3 ms at 250, against 0.5 ms for an FFT at any degree."""
    width = table.shape[-1]
    rows = table.reshape(-1, width)
    base = angle_table(grid.n_theta)
    m = np.arange(width)[:, None]
    sums = np.empty((2, len(rows), count))
    step = max(1, _ANGLE_BYTES // (16 * width))
    for j in range(0, count, step):
        angles = np.arange(j, min(j + step, count))
        np.matmul(rows, np.take(base, m * angles % grid.n_theta, axis=1),
                  out=sums[:, :, j: j + step])
    return sums.reshape((2,) + table.shape[:-1] + (count,))


def _stem_terms(table: np.ndarray, grid: PolarGrid) -> np.ndarray:
    """Rows (2B1, 2B2, 2B3, A), shape (4, n), with 4^-k_r |f|^2 = A + 2 u.B at the
    nodes of every slice u, from F1 = C and F2 = S of ``_angle_sums``: A is even in
    theta and B odd (T is real), so both are formed on angles 0..n_theta/2 and
    mirrored.  The rows live in the thread's ``_workspace.scratch`` until the next call."""
    count = grid.n_theta // 2 + 1
    (s, v1, v2, v3), (t, w1, w2, w3) = _angle_sums(table, grid, count)
    basis = scratch("basis", (4, grid.n_r, grid.n_theta))
    half = basis[..., :count]
    half[0] = t * v1 - s * w1 + (w2 * v3 - w3 * v2)
    half[1] = t * v2 - s * w2 + (w3 * v1 - w1 * v3)
    half[2] = t * v3 - s * w3 + (w1 * v2 - w2 * v1)
    half[:3] *= 2.0
    half[3] = s * s + v1 * v1 + v2 * v2 + v3 * v3 + t * t + w1 * w1 + w2 * w2 + w3 * w3
    parity = np.array([-1.0, -1.0, -1.0, 1.0])[:, None, None]
    np.multiply(half[..., grid.n_theta - count: 0: -1], parity, out=basis[..., count:])
    return basis.reshape(4, -1)


def _slice_rows(basis: np.ndarray, lifted: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A + 2 u.B for each row [u | 1] of ``lifted``, clamped at 0, written into the
    first len(lifted) rows of ``out`` and returned.

    One BLAS gemm (``np.matmul``) against the basis rows (2B1, 2B2, 2B3, A)
    of ``_stem_terms`` forms each value as a dot product of length 4.  gemm
    gives a row the same bits whatever the number of rows (two or more) and
    of BLAS threads, which split the rows and columns but never that dot
    product.  numpy sends a one-row product to gemv, which rounds
    differently, so a single row is filled as the first of two equal rows.
    At a zero of f the terms cancel and rounding can leave a value of order
    -1e-14, which a fractional power would turn into NaN; the clamp keeps NaN
    for NaN input.
    """
    rows = out[: len(lifted)]
    if len(rows) == 1:
        rows[:] = np.matmul(np.repeat(lifted, 2, axis=0), basis)[:1]
    else:
        np.matmul(lifted, basis, out=rows)
    return np.maximum(rows, 0.0, out=rows)


def _axis_rows(u) -> np.ndarray:
    """Rows [u1, u2, u3, 1], shape (m, 4), of the slice axes u (one, or an (..., 4)
    array such as ``quadrature.slice_sample``), checked by ``check_unit_imaginary``."""
    comps = check_unit_imaginary(u).reshape(-1, 4)
    return np.column_stack([comps[:, 1:], np.ones(len(comps))])


def slice_abs_sq(f: SliceSeries, u, grid: PolarGrid) -> np.ndarray:
    """|f|^2 at the grid nodes of the slice of u.

    ``u`` is one unit imaginary (result shape (n,)) or an (m, 4) array of
    them (result shape (m, n), one row per axis).  Every row comes from the
    same stem-function fill of f: 4^-k_r |f|^2 = A + 2 u.B (module
    docstring), with the (4, n) basis rows multiplied by 4^k_r ring by ring
    (``_scale_rings``, exact) before the fill, and written into the result a
    block of rows at a time, so that the clamp of ``_slice_rows`` reads rows
    still in cache.
    """
    table, k = _ring_table(f, grid)
    basis = _stem_terms(table, grid)
    _scale_rings(basis, 2 * k)
    lifted = _axis_rows(u)
    rows = np.empty((len(lifted), grid.size))
    for i in range(0, len(lifted), _BLOCK_ROWS):
        _slice_rows(basis, lifted[i: i + _BLOCK_ROWS], rows[i:])
    return rows[0] if isinstance(u, Quaternion) else rows


# Rows of |f|^2 values filled, powered and summed together: 4 rows of the
# default 64 x 256 grid are 512 kB, and with the two power buffers of
# ``_ring_rows`` a block's working set is 1.5 MB.
_BLOCK_ROWS = 4


def _dot_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[..., k] y[..., k] in one pass, with no product array."""
    return np.einsum("...k,...k->...", x, y)


def _power_sums(s: np.ndarray, ps, work: np.ndarray) -> dict:
    """Sums over the last axis of s ** (p/2), {p: s.shape[:-1]}, for s >= 0 or NaN.

    The exponents in use are fused products summed in one pass: s s at p = 4,
    s sqrt(s) at p = 3, sqrt(s) sqrt(sqrt(s)) at p = 3/2 and c c with
    c = cbrt(s) at p = 4/3.  p = 2 sums s itself, and any other p sums
    s ** (p/2).  ``work`` holds two arrays of s's shape, overwritten here.
    """
    root, other = work
    if 3.0 in ps or 1.5 in ps:
        np.sqrt(s, out=root)
    sums = {}
    for p in ps:
        if p == 2.0:
            sums[p] = np.sum(s, axis=-1)
        elif p == 4.0:
            sums[p] = _dot_last(s, s)
        elif p == 3.0:
            sums[p] = _dot_last(s, root)
        elif p == 1.5:
            sums[p] = _dot_last(root, np.sqrt(root, out=other))
        elif p == 4.0 / 3.0:
            cbrt = np.cbrt(s, out=other)
            sums[p] = _dot_last(cbrt, cbrt)
        else:
            sums[p] = np.sum(np.power(s, 0.5 * p, out=other), axis=-1)
    return sums


def _ring_rows(rings: dict, index, rows: np.ndarray, grid: PolarGrid) -> None:
    """Angular sums of |f|^p per ring of ``rows``, a (k, nodes) block of |f|^2
    values with k <= ``_BLOCK_ROWS``, written into rows ``index`` of
    ``rings[p]`` for every exponent p of ``rings``."""
    k = len(rows)
    work = scratch("power", (2, _BLOCK_ROWS, grid.n_r, grid.n_theta))[:, :k]
    polar = rows.reshape(k, grid.n_r, grid.n_theta)
    for p, sums in _power_sums(polar, list(rings), work).items():
        rings[p][index] = sums


def _fill_rings(rings: dict, basis: np.ndarray, lifted: np.ndarray, index: np.ndarray,
                grid: PolarGrid) -> None:
    """The ring sums of ``_ring_rows`` for the axes ``lifted[index]``, their rows
    A + 2 u.B filled a block at a time into one reused buffer."""
    fill = scratch("fill", (_BLOCK_ROWS, basis.shape[1]))
    for i in range(0, len(index), _BLOCK_ROWS):
        block = index[i: i + _BLOCK_ROWS]
        _ring_rows(rings, block, _slice_rows(basis, lifted[block], fill), grid)


def _ring_weights(grid: PolarGrid, pairs, k) -> dict:
    """{pair: (e^(l_r - t), t, K)} for every (p, alpha) pair: ring r weighs
    lambda_r(alpha p / 2) 2^(p (k_r - K)) = e^(l_r), with k_r the ring exponents of
    ``_ring_table``, K the largest and t the largest l_r.  A sweep takes them once."""
    big = int(np.max(k))
    weights = {}
    for p, alpha in pairs:
        logs = grid.log_ring_weights(0.5 * alpha * p) + p * (k - big) * math.log(2.0)
        top = np.max(logs)
        weights[p, alpha] = np.exp(logs - top), top, big
    return weights


def _root(total, p: float, weights):
    """total^(1/p) e^(t/p) 2^K: the norm of a sum weighed by ``_ring_weights``."""
    _, top, big = weights
    return np.ldexp(total ** (1.0 / p) * np.exp(top / p), big)


def _weighted_norms(rings: dict, weights: dict) -> dict:
    """Norms from the ring sums of |2^-k_r f|^p for every pair of ``weights``, the
    dict of ``_ring_weights``: with (w_r, t, K) the norm is
    (sum_r ring_r w_r)^(1/p) e^(t/p) 2^K, a log-sum-exp over rings."""
    return {pair: _root(np.sum(rings[pair[0]] * w[0], axis=-1), pair[0], w)
            for pair, w in weights.items()}


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
    rings = {p: np.empty((len(flat), grid.n_r)) for p in _exponents(pairs)}
    for i in range(0, len(flat), _BLOCK_ROWS):
        _ring_rows(rings, slice(i, i + _BLOCK_ROWS), flat[i: i + _BLOCK_ROWS], grid)
    rings = {p: r.reshape(lead + (grid.n_r,)) for p, r in rings.items()}
    return _weighted_norms(rings, _ring_weights(grid, pairs, np.zeros(grid.n_r, dtype=int)))


def _stem_rings(f: SliceSeries, grid: PolarGrid, ps, n_axes: int):
    """(table, k, rings) for the sweeps of ``stem_norms`` and ``_sup_norms``: the
    ring table of f and its ring exponents (``_ring_table``), and the ring sums
    {p: (n_axes, n_r)}, which at p = 2 hold the Parseval sums of every slice
    and at other p zeros for the sweep to fill."""
    table, k = _ring_table(f, grid)
    rings = {p: np.zeros((n_axes, grid.n_r)) for p in ps if p != 2.0}
    if 2.0 in ps:
        parseval = grid.n_theta * np.sum(table * table, axis=(0, 2))
        rings[2.0] = np.broadcast_to(parseval, (n_axes, grid.n_r))
    return table, k, rings


def stem_norms(f: SliceSeries, axes, grid: PolarGrid, pairs) -> dict:
    """Weighted p-norms of f on the slice of each axis, for every (p, alpha) pair.

    ``axes`` is one unit imaginary or an (m, 4) array of them; each result
    has shape (m,).  Every exponent reads one ring table of f, scaled by
    2^-k_r.  At p = 2 its Parseval sums are the ring sums of every slice,
    and no node value is computed.  Other exponents share one stem fill of
    f from the same table and fill |2^-k_r f|^2 rows a block at a time into
    one reused buffer, and no (m, nodes) stack is built.
    """
    lifted = _axis_rows(axes)
    table, k, rings = _stem_rings(f, grid, _exponents(pairs), len(lifted))
    swept = {p: r for p, r in rings.items() if p != 2.0}
    if swept:
        _fill_rings(swept, _stem_terms(table, grid), lifted, np.arange(len(lifted)), grid)
    return _weighted_norms(rings, _ring_weights(grid, pairs, k))


# Sectors of consecutive angles per ring behind the moment bound of
# ``_moment_bounds`` (the largest divisor of n_theta up to this), and the
# relative margin of the stop rule of ``_fill_open_axes``, which covers the
# clamp and the rounding of the bound and of the p-th root.
_SECTORS = 8
_SUP_MARGIN = 1e-6


def _moment_bounds(basis: np.ndarray, lifted: np.ndarray, grid: PolarGrid, weights: dict) -> dict:
    """U(u) >= sum_r ring_r(u) w_r for each axis row of ``lifted`` and each pair of
    ``weights`` ({pair: (w_r, t, K)}), with ring_r the sum of |2^-k_r f|^p over ring r:
    the Hoelder bound of each sector from its sums m = sum b and G = sum b b^T of
    the basis rows b = (2B, A) (module docstring), summed with the ring weights.
    p > 4 has no bound here: U = inf.
    """
    sectors = math.gcd(_SECTORS, grid.n_theta)
    cols = grid.n_r * sectors
    polar = basis.reshape(4, cols, grid.n_theta // sectors)
    moments = scratch("moments", (20, cols))  # m, then G
    np.sum(polar, axis=-1, out=moments[:4])
    np.einsum("irk,jrk->ijr", polar, polar, out=moments[4:].reshape(4, 4, cols))
    n = len(lifted)
    outer = (lifted[:, :, None] * lifted[:, None, :]).reshape(n, 16)
    first, second = sums = scratch("sector", (2, n, cols))
    np.matmul(lifted, moments[:4], out=first)
    np.matmul(outer, moments[4:], out=second)
    np.maximum(sums, 0.0, out=sums)  # rounding can leave either below 0
    bounds = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for pair, (w, *_) in weights.items():
            q = 0.5 * pair[0]
            if q <= 1.0:
                sector = (grid.n_theta // sectors) ** (1.0 - q) * first ** q
            elif q <= 2.0:
                sector = first ** (2.0 - q) * second ** (q - 1.0)
            else:
                bounds[pair] = np.full(n, np.inf)
                continue
            bounds[pair] = np.matmul(sector, np.repeat(w, sectors))
    return bounds


def _fill_open_axes(rings: dict, basis: np.ndarray, lifted: np.ndarray, grid: PolarGrid,
                    weights: dict) -> None:
    """Fill the ring sums of the axes that the moment bound cannot rule out, a
    block of ``_BLOCK_ROWS`` at a time in decreasing order of the bound, for
    ``weights``, the ``_ring_weights`` of the swept pairs; the stop rule is the
    module docstring's.  An axis left out keeps ring sums of 0, below the best
    norm.  Where the best norm is past the float range or below the normal
    range, norms that the margin separates can round to a tie, so every axis is
    filled.
    """
    if not np.any(basis[:3]):  # B = 0: every slice has the rows of the first axis
        _fill_rings(rings, basis, lifted, np.arange(1), grid)
        for sums in rings.values():
            sums[1:] = sums[0]
        return
    bounds = _moment_bounds(basis, lifted, grid, weights)
    filled = np.zeros(len(lifted), dtype=bool)
    best = dict.fromkeys(weights, -np.inf)
    while True:
        for pair, bound in bounds.items():
            # a NaN bound or a NaN best rules nothing out
            open_ = ~filled & ~(bound * (1.0 + _SUP_MARGIN) < best[pair])
            if open_.any():
                break
        else:
            break
        index = np.flatnonzero(open_)
        index = index[np.argsort(-bound[index], kind="stable")[:_BLOCK_ROWS]]
        _fill_rings(rings, basis, lifted, index, grid)
        filled[index] = True
        for pair, (w, *_) in weights.items():
            best[pair] = np.maximum(best[pair], np.max(np.sum(rings[pair[0]][index] * w, axis=-1)))
    for pair, weight in weights.items():
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            norm = _root(best[pair], pair[0], weight)
        if not np.finfo(float).tiny <= norm < np.inf:
            _fill_rings(rings, basis, lifted, np.flatnonzero(~filled), grid)
            return


def _sup_norms(f: SliceSeries, axes, grid: PolarGrid, pairs) -> dict:
    """{pair: (value, first index)}: the largest slice norm of f over the axes and
    the first axis that reaches it, for every (p, alpha) pair, bit for bit
    those of ``np.max``/``np.argmax`` over ``stem_norms``.

    Only the axes that ``_fill_open_axes`` cannot rule out are filled, and the
    norms are weighed, with the weights the stop rule read, as ``stem_norms``
    weighs them, on arrays of every axis.  p = 2 fills nothing.
    """
    lifted = _axis_rows(axes)
    table, k, rings = _stem_rings(f, grid, _exponents(pairs), len(lifted))
    weights = _ring_weights(grid, pairs, k)
    swept = {pair: w for pair, w in weights.items() if pair[0] != 2.0}
    if swept:
        _fill_open_axes({p: rings[p] for p in _exponents(swept)}, _stem_terms(table, grid),
                        lifted, grid, swept)
    out = {}
    for pair, norms in _weighted_norms(rings, weights).items():
        top = int(np.argmax(norms))
        out[pair] = (float(norms[top]), top)
    return out


def fock_norm_slice(f: SliceSeries, u: Quaternion, params: FockParams,
                    grid: Optional[PolarGrid] = None) -> float:
    """Weighted p-norm of f on the slice of u:

        ((alpha p / 2 pi) * integral |f(z) e^(-alpha |z|^2 / 2)|^p dA)^(1/p)

    with the integral over the unit disk or the radius-R disk of the slice.
    It is ``stem_norms`` on row 1 of ``slice_frame(u)``, so it matches
    ``fock_norm_sup`` bit for bit.  A grid, if given, must be the params' grid (else ValueError).
    """
    grid = _params_grid(params, grid)
    pair = (params.p, params.alpha)
    return float(stem_norms(f, slice_frame(u)[1], grid, [pair])[pair][0])


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
    Only the slices that a moment bound cannot rule out are filled
    (``_sup_norms``); value and axis are those of the full sweep of
    ``stem_norms``, bit for bit.  A grid, if given, must be the params' grid
    (else ValueError).
    """
    grid = _params_grid(params, grid)
    axes = slice_sample(params.n_slices)
    pair = (params.p, params.alpha)
    value, best = _sup_norms(f, axes, grid, [pair])[pair]
    return SupNorm(value, Quaternion.from_components(axes[best]))


def _log_weighted_powers(grid: PolarGrid, alpha: float, n: np.ndarray) -> np.ndarray:
    """log lambda_r + n log r per ring and exponent, shape (n_r, len(n)): an
    underflowed weight never meets an overflowed power (0 * inf = NaN)."""
    return grid.log_ring_weights(alpha)[:, None] + np.log(grid.r)[:, None] * n


def _moments(c1, c2, grid: PolarGrid, alpha: float, degree: int) -> np.ndarray:
    """Moments M_n, n = 0..degree, of the samples c1 + c2 v at the grid nodes,
    as frame pairs, shape (2, degree + 1): one FFT per ring (module docstring).
    c1 and c2 are transformed one at a time: a stack of both (a fresh 512 kB
    spectrum per call) made a cold seed-3 verify pass fault 115k pages, not 3.1k."""
    n = np.arange(degree + 1)
    powers = np.exp(_log_weighted_powers(grid, alpha, n))
    return np.stack([np.sum(np.fft.fft(c.reshape(grid.n_r, grid.n_theta))[:, n % grid.n_theta]
                            * powers, axis=0) for c in (c1, c2)])


def inner_product(f: SliceSeries, g: SliceSeries, u: Quaternion, params: FockParams,
                  grid: Optional[PolarGrid] = None) -> Quaternion:
    """Gaussian-measure inner product of f and g on the slice of u.

    The integral of conj(f(z)) g(z) against (alpha/pi) e^(-alpha|z|^2) dA.
    Conjugating the left argument makes the form right-linear in g and
    hermitian, which is the structure the p = 2 space carries; the p
    parameter plays no role here.  It is sum_n conj(a_n) M_n(g) over the
    coefficients a_n of f, with M_n the moments of g's grid samples that
    ``projection_series`` reads (module docstring).  A grid, if given, must
    be the params' grid (else ValueError).
    """
    grid = _params_grid(params, grid)
    pair = g.split(u)
    moments = _moments(*pair.eval_components(grid.z), grid, params.alpha, f.degree)
    terms = hamilton(f.conjugate().coeffs, from_frame(*moments, pair.frame))
    return Quaternion.from_components(np.sum(terms, axis=0))


def _log_gram(params: FockParams, grid: Optional[PolarGrid]) -> np.ndarray:
    """L_m = log gamma_m = log(n_theta sum_r lambda_r r^(2m)), m = 0..degree, one
    log-sum-exp over the rings: finite wherever some lambda_r r^(2m) is."""
    grid = _params_grid(params, grid)
    terms = _log_weighted_powers(grid, params.alpha, 2 * np.arange(params.degree + 1))
    top = np.max(terms, axis=0)
    return top + np.log(grid.n_theta * np.sum(np.exp(terms - top), axis=0))


def gram_table(params: FockParams, grid: Optional[PolarGrid] = None) -> np.ndarray:
    """Monomial Gram diagonal ||q^m||^2, m = 0..degree, measured with the grid.

    A read-only (degree + 1,) array, gamma_m = exp(L_m) of ``_log_gram``, inf past
    the float range: gamma(m+1, alpha)/alpha^m on the unit disk, approaching
    m!/alpha^m in plane mode as the truncation radius grows.  A grid, if given,
    must be the params' grid (else ValueError).
    """
    with np.errstate(over="ignore"):
        diag = np.exp(_log_gram(params, grid))
    diag.flags.writeable = False
    return diag


def _kernel_weights(params: FockParams, grid: Optional[PolarGrid], corrected: bool) -> np.ndarray:
    """Ratios rho_0 = c_0, rho_n = c_n / c_(n-1) of the kernel weights c_n, n = 0..degree:
    alpha / n, or gamma_(n-1) / gamma_n = e^(L_(n-1) - L_n) of ``_log_gram`` if
    corrected, finite where gamma_n itself is past the float range."""
    if corrected:
        return np.exp(-np.diff(_log_gram(params, grid), prepend=0.0))
    return np.r_[1.0, params.alpha / np.arange(1, params.degree + 1)]


def kernel_series(w: Quaternion, params: FockParams, *, corrected: bool = False) -> SliceSeries:
    """Section q -> K(q, w) of the reproducing kernel: coefficients conj(w)^n c_n.

    Left slice regular in q, right slice regular in w; truncated at params.degree.
    With w = 2^e (x + yI), e the exponent of its largest component, and z = x + iy
    (``quaternions._slice_coords_rows``), row n is Re + I Im of 2^(e n) c_n conj(z)^n:
    the running product of the steps rho_n conj(z) (``_kernel_weights``; rho_0 alone
    at n = 0), each scaled by a power of two to modulus about 1, times 2^(k_n + e n),
    k_n the rounded sum of log2 |step|.  The scaling is exact, and a row past the
    float range is +-inf in its nonzero components and 0 in the others, never NaN.
    """
    e = int(np.frexp(np.max(np.abs(w.as_array())))[1])  # |Im w| / 2^e is finite
    z, axis = _slice_coords_rows(np.ldexp(w.as_array(), -e)[:, None])
    factors = np.r_[1.0, np.full(params.degree, np.conj(z[0]))]
    steps = _kernel_weights(params, None, corrected) * factors
    with np.errstate(divide="ignore"):
        k = np.round(np.cumsum(np.log2(np.abs(steps))))
    k = np.where(np.isfinite(k), k, 0.0).astype(int)  # from a zero step on every row is 0
    d = np.diff(k, prepend=0)
    unit = np.cumprod(np.ldexp(steps.real, -d) + np.ldexp(steps.imag, -d) * 1j)
    coeffs = np.outer(unit.imag, axis[:, 0])
    coeffs[:, 0] = unit.real
    with np.errstate(over="ignore"):
        return SliceSeries(np.ldexp(coeffs, (k + e * np.arange(len(k)))[:, None]))


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
    The integral is the moment M_n of ``_moments``.  A grid, if given, must
    be the params' grid (else ValueError), and the samples are its nodes.
    """
    grid = _params_grid(params, grid)
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2 or s.shape[1] != 4:
        raise ValueError("samples must form an (n, 4) component array")
    if s.shape[0] != grid.size:
        raise ValueError("samples do not match the grid: %d values for %d nodes"
                         % (s.shape[0], grid.size))
    frame = slice_frame(u)
    a, b = (_moments(*to_frame(s, frame), grid, params.alpha, params.degree)
            * np.cumprod(_kernel_weights(params, grid, corrected)))
    return SliceSeries(from_frame(a, b, frame))


def sample_on_grid(f: SliceSeries, u: Quaternion, grid: PolarGrid) -> np.ndarray:
    """Values of f at the grid nodes of the slice of u, as (n, 4) components:
    2^k_r (C + u S) from the ring table and the angle sums (C, S) of ``_angle_sums``,
    u S one product of the left-multiplication matrix of u (row 1 of its
    ``slice_frame``) against the rows of S, and 2^k_r put back by ``_scale_rings``."""
    left = hamilton(slice_frame(u)[1], np.eye(4)).T  # column d is u e_d
    table, k = _ring_table(f, grid)
    cos_sums, sin_sums = _angle_sums(table, grid, grid.n_theta).reshape(2, 4, -1)
    values = np.matmul(left, sin_sums)
    values += cos_sums
    _scale_rings(values, k)
    return values.T
