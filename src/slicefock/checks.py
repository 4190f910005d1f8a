"""Registry of numerical verification checks.

Each check draws its own deterministic random data from the run seed and
its own identifier, so records do not depend on which other checks run.
Every check returns a CheckResult, the one record type: ``_outcome``
fills lhs, rhs, constant, margin and passed, ``run_check`` stamps the
check id and paper reference, and the harness stamps the wall time;
``record()`` gives exactly the REPORT_COLUMNS that reports emit.  A check
passes when lhs <= rhs*(1+slack) with lhs and rhs finite, and
margin = rhs*(1+slack) - lhs.  Identity-style
checks put the worst residual in lhs and the tolerance in rhs with zero
slack.  A check's config is also the FockParams of its integrals; a check
that needs other parameters passes dataclasses.replace(config, ...).

A draw-wise check is registry data (count, draw, judge): ``run_check``
stacks its draws, one row each, through the one seeded loop ``_draw_rows``,
the only place a check's generator is made, and the judge reduces the rows
once, with np.max (``_below``, or ``_flagged`` for rows that start with a
flag every draw must hold), or with ``_worst`` when it also reports the worst
draw's constant.  Both propagate NaN: a NaN residual makes lhs NaN and fails
the check instead of being skipped by a comparison.  An entry with ``run``
is a whole check: quad-calibration, gram-oracle and orthogonality draw
nothing, and norm-sandwich and the growth pair keep the code paths that the
benchmark's tests pin.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import reference
from .fock import (
    _sup_norms,
    build_grid,
    fock_norm_sup,
    gram_table,
    inner_product,
    projection_series,
    sample_on_grid,
    slice_abs_sq,
    slice_norms,
)
from .quadrature import slice_sample
from .quaternions import I, J, K, ONE, Quaternion, random_unit_imaginary
from .series import SliceSeries, pointwise_star_residual, random_series

__all__ = ["CheckResult", "REPORT_COLUMNS", "CheckDef", "REGISTRY", "DEFAULT_CHECKS",
           "lookup_check", "run_check"]

# The emitted columns, in order; "pass" is the field ``passed``.
REPORT_COLUMNS = ("check_id", "paper_ref", "lhs", "rhs", "constant", "margin", "pass")


@dataclass
class CheckResult:
    """One check's result.  Timings and notes stay off the emitted record."""

    lhs: float
    rhs: float
    constant: float
    margin: float
    passed: bool
    note: str = ""
    check_id: str = ""
    paper_ref: str = ""
    seconds: float = 0.0

    def record(self) -> dict:
        """The emitted record: exactly the report columns, floats as they are."""
        return {col: getattr(self, "passed" if col == "pass" else col)
                for col in REPORT_COLUMNS}


def _outcome(lhs: float, rhs: float, constant: float = 0.0, slack: float = 0.0,
             also: bool = True, note: str = "") -> CheckResult:
    bound = rhs * (1.0 + slack)
    passed = bool(lhs <= bound) and also and math.isfinite(lhs) and math.isfinite(rhs)
    return CheckResult(float(lhs), float(rhs), float(constant),
                       float(bound - lhs), passed, note)


def _draw_rows(config, rng_id: str, count: int, draw: Callable) -> np.ndarray:
    """The one seeded draw loop: draw(rng, k, config) for k = 0..count-1, in order,
    on the generator of (config.seed, rng_id), stacked with one row per draw."""
    rng = np.random.default_rng([config.seed, zlib.crc32(rng_id.encode())])
    return np.array([draw(rng, k, config) for k in range(count)])


def _below(rhs: float, note: str = "") -> Callable:
    """The judge of a plain residual check: one np.max over every row, against rhs."""
    return lambda rows: _outcome(np.max(rows), rhs, note=note)


def _flagged(rhs: float, note: str, failed_note: Optional[str] = None) -> Callable:
    """The judge of rows (flag, residuals...): one np.max over the residual columns,
    against rhs, and the check also needs every draw's flag; failed_note, if given,
    replaces note when a flag is down."""
    def judge(rows) -> CheckResult:
        flags = bool(rows[:, 0].all())
        return _outcome(np.max(rows[:, 1:]), rhs, also=flags,
                        note=note if flags or failed_note is None else failed_note)
    return judge


def _worst(ratios, constants) -> tuple[float, float]:
    """The first largest ratio and its draw's constant; NaN wins, as in np.max."""
    k = int(np.argmax(ratios))
    return float(ratios[k]), float(constants[k])


def _ball_points(rng: np.random.Generator, n: int, r_scale: float = 0.98) -> np.ndarray:
    """n random quaternions in the open unit ball, as (n, 4) components."""
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = r_scale * rng.uniform(size=n) ** 0.25
    return v * radii[:, None]


# ---------------------------------------------------------------------------
# star-algebra checks


def _star_assoc_draw(rng, k, config) -> list:
    f, g, h = (random_series(rng, int(d)) for d in rng.integers(0, 6, size=3))
    one = SliceSeries.constant(ONE)
    pairs = ((f.star(g).star(h), f.star(g.star(h))), (one.star(f), f), (f.star(one), f))
    return [np.abs((a - b).coeffs).max() for a, b in pairs]


def _star_conj_real_draw(rng, k, config) -> float:
    f = random_series(rng, int(rng.integers(0, 11)))
    return np.abs(f.star(f.conjugate()).coeffs[:, 1:]).max()


def _split_roundtrip_draw(rng, k, config) -> list:
    """Row (coordinate-axis splits bit-exact, relative errors at 8 random axes)."""
    f = random_series(rng, 10)
    exact = all(np.array_equal(f.split(u).recombine().coeffs, f.coeffs) for u in (I, J, K))
    scale = 1.0 + np.abs(f.coeffs).max()
    backs = (f.split(random_unit_imaginary(rng)).recombine() for _ in range(8))
    return [exact] + [np.abs((back - f).coeffs).max() / scale for back in backs]


def _rep_formula_draw(rng, k, config) -> np.ndarray:
    f = random_series(rng, int(rng.integers(0, 11)))
    pair = f.split(random_unit_imaginary(rng))
    points = _ball_points(rng, 100)
    diff = pair.extend_many(points) - f.eval_many(points)
    return np.sqrt(np.sum(diff * diff, axis=1))


def _star_reciprocal_draw(rng, k, config) -> float:
    order = 10
    f = random_series(rng, order)
    while abs(f.coefficient(0)) < 0.1:
        f = random_series(rng, order)
    recip = f.star_reciprocal(order)
    resid = f.star(recip, cap=order).coeffs.copy()
    resid[0, 0] -= 1.0
    scale = 1.0 + float(np.linalg.norm(recip.coeffs, axis=1).max())
    return float(np.abs(resid).max()) / scale


def _star_pointwise_draw(rng, k, config) -> float:
    """Draws 0..49 take f = (x - q) * h, which vanishes at the tested point q."""
    g = random_series(rng, 4)
    if k < 50:
        q = Quaternion.from_components(_ball_points(rng, 1)[0])
        f = SliceSeries.from_quaternions([-q, ONE]).star(random_series(rng, 3))
    else:
        f = random_series(rng, 4)
        q = Quaternion.from_components(_ball_points(rng, 1)[0])
    return pointwise_star_residual(f, g, q)


# ---------------------------------------------------------------------------
# quadrature and Gram checks


def _check_quad_calibration(config) -> CheckResult:
    disk = build_grid(replace(config, domain="disk"))
    errors = [abs(disk.gaussian_mass(alpha) - reference.gaussian_disk_mass(alpha, 1.0))
              for alpha in (0.5, 1.0, 2.0)]
    plane = build_grid(replace(config, domain="plane"))
    errors.append(abs(plane.gaussian_mass(config.alpha)
                      - reference.gaussian_disk_mass(config.alpha, config.radius)))
    return _outcome(np.max(errors), 1e-10)


# gram-oracle's bound on |gamma_m - ref_m| / gamma_m, in units of n_r eps: the
# Gauss-Legendre weights round worse as n_r grows.  The worst of its 39 entries
# measured 64 eps (1.0 n_r eps) at the default n_r = 64 and at most 7.9 n_r eps
# for n_r = 14..600; below 14 rings the radial rule itself is under-resolved.
_GRAM_EPS_PER_RING = 16


def _check_gram_oracle(config) -> CheckResult:
    errors = []
    for alpha in (0.5, 1.0, 2.0):
        diag = gram_table(replace(config, alpha=alpha, domain="disk", degree=12))
        errors += [abs(diag[m] - reference.monomial_gram_reference(m, alpha, 1.0)) / diag[m]
                   for m in range(13)]
    return _outcome(np.max(errors), _GRAM_EPS_PER_RING * config.n_r * np.finfo(float).eps)


def _check_orthogonality(config) -> CheckResult:
    params = replace(config, domain="disk", degree=12)
    diag = gram_table(params)
    monos = [SliceSeries.monomial(m) for m in range(13)]
    errors = [abs(inner_product(monos[m], monos[n], I, params))
              / math.sqrt(diag[m] * diag[n])
              for m in range(13) for n in range(m + 1, 13)]
    return _outcome(np.max(errors), 1e-10)


# ---------------------------------------------------------------------------
# norm checks (shared slice-norm machinery)


def _slice_norm_matrix(f: SliceSeries, slices, grid, pairs) -> dict:
    """Slice norms of f for every (p, alpha) pair: one row per slice.

    One stem-function fill serves every slice (``fock.slice_abs_sq``, one
    BLAS product), and ``fock.slice_norms`` powers and sums the rows off
    BLAS, so results are bit-identical regardless of thread count.
    """
    return slice_norms(slice_abs_sq(f, slices, grid), grid, pairs)


_SANDWICH_PAIRS = [(p, a) for p in (4.0 / 3.0, 2.0, 3.0) for a in (0.5, 1.0, 2.0)]


def _norm_sandwich_draw(rng, k, config) -> list:
    """sup_p / (2^p lo_p) over the sampled slices, per pair of _SANDWICH_PAIRS."""
    f = random_series(rng, int(rng.integers(0, 11)))
    norms = _slice_norm_matrix(f, slice_sample(config.n_slices), build_grid(config),
                               _SANDWICH_PAIRS)
    return [float(vals.max()) ** p / (2.0 ** p * float(vals.min()) ** p)
            for (p, _), vals in norms.items()]


def _check_norm_sandwich(config) -> CheckResult:
    rows = _draw_rows(config, "norm-sandwich", config.n_series, _norm_sandwich_draw)
    # skips NaN ratios: perfbench's test_nan_injection_raises_fail_ratio pins this loop
    worst = 0.0
    worst_const = 2.0 ** 2
    for row in rows:
        for (p, _), ratio in zip(_SANDWICH_PAIRS, row):
            if ratio > worst:
                worst = ratio
                worst_const = 2.0 ** p
    return _outcome(worst, 1.0, constant=worst_const, slack=1e-8,
                    note="sup over sampled slices never exceeds 2^p times any slice")


def _plane_norms(f: SliceSeries, config, ps) -> list:
    """f's sup norms on the truncated plane over the sampled slices, one per exponent,
    from ``fock._sup_norms``.  The rows keep only the sups: the sweep's buffers are
    reused across calls, so no norm array has to stay alive to keep the C allocator
    from trimming the heap after each draw.  Over eight cold seed-3 verify passes a
    median of 3.1k pages fault (2.8k-3.6k), against 3.3k (3.3k-10.9k) when these rows
    held every slice norm; that takes ``fock._moments`` building no stack of its
    samples, without which the pass faults about 115k."""
    pairs = [(p, config.alpha) for p in ps]
    grid = build_grid(replace(config, domain="plane"))
    sups = _sup_norms(f, slice_sample(config.n_slices), grid, pairs)
    return [sups[pa][0] for pa in pairs]


_GROWTH_CACHE: dict = {}
_GROWTH_PS = (4.0 / 3.0, 2.0, 3.0)


def _growth_data(config):
    """Read-only data of the two growth checks, per draw: the peak of |f| e^(-alpha|q|^2/2)
    at 500 ball points (100,) and the plane sup norms at _GROWTH_PS (100, 3)."""
    key = (config.seed, config.alpha, config.radius, config.degree,
           config.n_r, config.n_theta, config.n_slices)
    if key in _GROWTH_CACHE:
        return _GROWTH_CACHE[key]
    peaks = np.empty(100)

    def draw(rng, k, config):
        f = random_series(rng, int(rng.integers(0, 11)))
        pts = _ball_points(rng, 500, r_scale=0.999)
        vals = np.linalg.norm(f.eval_many(pts), axis=1)
        weights = np.exp(-0.5 * config.alpha * np.sum(pts * pts, axis=1))
        peaks[k] = np.max(vals * weights)
        return _plane_norms(f, config, _GROWTH_PS)

    sups = _draw_rows(config, "growth", 100, draw)
    peaks.flags.writeable = sups.flags.writeable = False
    # a miss returns a new tuple: perfbench counts a repeated result object as a cache hit
    _GROWTH_CACHE[key] = (peaks, sups)
    if len(_GROWTH_CACHE) > 4:
        _GROWTH_CACHE.pop(next(iter(_GROWTH_CACHE)))
    return peaks, sups


def _check_growth_normalized(config) -> CheckResult:
    peaks, sups = _growth_data(config)
    return _outcome(np.max(peaks[:, None] / sups), 2.0, constant=2.0, slack=5e-7)


def _check_growth_bound(config) -> CheckResult:
    peaks, sups = _growth_data(config)
    consts = np.array([2.0 ** (p + 1) for p in _GROWTH_PS])
    ratios = peaks[:, None] / (consts * sups)
    worst, const = _worst(ratios.ravel(), np.tile(consts, len(peaks)))
    return _outcome(worst, 1.0, constant=const, slack=1e-8)


# the embedding's conjugate exponent pairs (p, u); its rows are _plane_norms at _EMBED_PS
_EMBED_PAIRS = ((4.0 / 3.0, 4.0), (1.5, 3.0))
_EMBED_PS = sorted({p for pu in _EMBED_PAIRS for p in pu})


def _embedding_draw(rng, k, config) -> list:
    return _plane_norms(random_series(rng, int(rng.integers(0, 11))), config, _EMBED_PS)


def _judge_embedding(sups) -> CheckResult:
    # column j of lo, hi, exps and consts belongs to conjugate pair j
    lo = sups[:, [_EMBED_PS.index(p) for p, _ in _EMBED_PAIRS]]
    hi = sups[:, [_EMBED_PS.index(u) for _, u in _EMBED_PAIRS]]
    exps = np.array([u for _, u in _EMBED_PAIRS])
    consts = np.array([2.0 ** (u + 1) * u / p for p, u in _EMBED_PAIRS])
    ratios = hi ** exps / (consts * lo ** exps)
    flagged = int(np.sum(ratios >= 0.99))
    worst, const = _worst(ratios.ravel(), np.tile(consts, len(sups)))
    note = "%d instance(s) within 1%% of saturating the constant" % flagged
    return _outcome(worst, 1.0, constant=const, slack=1e-8, note=note)


def _dilation_draw(rng, k, config) -> list:
    """Row (||f_r - f|| shrinks as r -> 1, ||f_r - f||^p / ||f||^p at r = 0.999)."""
    f = random_series(rng, 10)
    base = fock_norm_sup(f, config).value
    tails = [fock_norm_sup(f.dilate(r) - f, config).value for r in (0.9, 0.99, 0.999)]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(tails, tails[1:]))
    return [monotone, (tails[-1] / base) ** config.p]


def _hermiticity_draw(rng, k, config) -> list:
    f, g, h = (random_series(rng, int(rng.integers(0, 11))) for _ in range(3))
    a = Quaternion.from_components(rng.standard_normal(4))
    u = random_unit_imaginary(rng)
    fg = inner_product(f, g, u, config)
    lin = inner_product(f, g.scale_right(a) + h, u, config)
    ff = inner_product(f, f, u, config)
    return [abs(fg - inner_product(g, f, u, config).conjugate()),
            abs(lin - (fg * a + inner_product(f, h, u, config))),
            abs(ff.imag), max(-ff.x0, 0.0)]


def _poly_density_draw(rng, k, config) -> list:
    """Row (tail norms ||f - f_{<=m}|| nonincreasing over m = 0..20, the last tail)."""
    f = random_series(rng, 20)
    tails = [fock_norm_sup(f - f.truncate(m), config).value for m in range(21)]
    monotone = all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(tails, tails[1:]))
    return [monotone, tails[-1]]


# ---------------------------------------------------------------------------
# kernel reproduction checks


def _rep_kernel_draw(corrected: bool, **overrides) -> Callable:
    """The draw of a kernel reproduction check on replace(config, **overrides): draw k
    projects q^k, sampled on the slice of i, with the corrected (Gram) or exponential
    kernel weights, and gives the errors at 20 random points of the ball."""
    def draw(rng, k, config) -> np.ndarray:
        params = replace(config, **overrides)
        grid = build_grid(params)
        mono = SliceSeries.monomial(k)
        samples = sample_on_grid(mono, I, grid)
        proj = projection_series(samples, I, params, grid, corrected=corrected)
        points = _ball_points(rng, 20, r_scale=0.95)
        diff = proj.eval_many(points) - mono.eval_many(points)
        return np.sqrt(np.sum(diff * diff, axis=1))
    return draw


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    """A registry entry: a draw-wise check's ``count`` rows of ``draw(rng, k, config)``
    from ``_draw_rows``, which ``judge(rows)`` reduces, or ``run(config)`` for a check
    that draws nothing or keeps a benchmark-pinned path (see the module docstring)."""

    paper_ref: str
    run: Optional[Callable] = None
    default: bool = True
    count: int = 0
    draw: Optional[Callable] = None
    judge: Optional[Callable] = None


REGISTRY: dict[str, CheckDef] = {
    "star-assoc": CheckDef(
        "(f*g)*h = f*(g*h); the constant 1 is the unit of the convolution product",
        count=200, draw=_star_assoc_draw, judge=_below(1e-12)),
    "star-conj-real": CheckDef(
        "f * f^c has real coefficients, f^c the coefficientwise conjugate",
        count=200, draw=_star_conj_real_draw, judge=_below(1e-13)),
    "split-roundtrip": CheckDef(
        "a_n = c1_n + c2_n J recovers the series from its slice components",
        count=100, draw=_split_roundtrip_draw,
        judge=_flagged(1e-14, "coordinate-axis splits are bit-exact",
                       "coordinate-axis split failed bit-exact round-trip")),
    "rep-formula": CheckDef(
        "f(x+y Iq) = ((1 - Iq u) f(x+yu) + (1 + Iq u) f(x-yu)) / 2",
        count=100, draw=_rep_formula_draw, judge=_below(1e-12)),
    "star-reciprocal": CheckDef(
        "f^{-*} = (f*f^c)^{-1} f^c satisfies f * f^{-*} = 1",
        count=200, draw=_star_reciprocal_draw,
        judge=_below(1e-10, note="residual scaled by the reciprocal coefficient magnitude")),
    "star-pointwise": CheckDef(
        "f*g(q) = 0 if f(q) = 0, else f(q) g(f(q)^{-1} q f(q))",
        count=500, draw=_star_pointwise_draw, judge=_below(1e-10)),
    "quad-calibration": CheckDef(
        "mass of (alpha/pi) e^{-alpha|z|^2} dA over the radius-r disk is 1 - e^{-alpha r^2}",
        _check_quad_calibration),
    "gram-oracle": CheckDef(
        "||q^m||^2 under the Gaussian slice measure equals gamma(m+1, alpha)/alpha^m on the unit disk",
        _check_gram_oracle),
    "orthogonality": CheckDef(
        "distinct monomials are orthogonal under the Gaussian slice inner product",
        _check_orthogonality),
    "norm-sandwich": CheckDef(
        "slice-norm^p <= sup-norm^p <= 2^p slice-norm^p",
        _check_norm_sandwich),
    "growth-bound": CheckDef(
        "|f(q)| <= 2^{p+1} e^{alpha|q|^2/2} ||f||",
        _check_growth_bound),
    "growth-normalized": CheckDef(
        "sup over the ball of |f(q)| e^{-alpha|q|^2/2} <= 2 for unit-norm f",
        _check_growth_normalized),
    "embedding": CheckDef(
        "||f||_u^u <= 2^{u+1} (u/p) ||f||_p^u for conjugate exponents p < u",
        count=100, draw=_embedding_draw, judge=_judge_embedding),
    "dilation": CheckDef(
        "||f_r - f||^p decreases to 0 as r -> 1, where f_r(q) = f(rq)",
        count=50, draw=_dilation_draw,
        judge=_flagged(1e-3, "compares the p-th powers ||f_r - f||^p / ||f||^p")),
    "hermiticity": CheckDef(
        "<f,g> = conj(<g,f>); <f, g a + h> = <f,g> a + <f,h>; <f,f> is real and >= 0",
        count=100, draw=_hermiticity_draw, judge=_below(1e-10)),
    "poly-density": CheckDef(
        "truncation tails ||f - f_{<=m}|| decrease to zero",
        count=1, draw=_poly_density_draw,
        judge=_flagged(1e-6, "tail norms are nonincreasing", "tail norms failed to decrease")),
    "rep-kernel-disk": CheckDef(
        "the Gram-normalized kernel sum_m q^m conj(w)^m / ||q^m||^2 reproduces monomials",
        count=9, draw=_rep_kernel_draw(True, domain="disk"), judge=_below(1e-8)),
    "rep-kernel-plane": CheckDef(
        "projection against the exponential kernel reproduces monomials on the truncated plane",
        count=9, draw=_rep_kernel_draw(False, domain="plane"),
        judge=_below(1e-6, note="truncation of the plane at the run radius")),
    "rep-kernel-plane-r4": CheckDef(
        "exponential-kernel reproduction with the truncation radius pinned at 4",
        count=9, draw=_rep_kernel_draw(False, domain="plane", radius=4.0),
        judge=_below(1e-6, note="radius-4 truncation drops Gaussian tail mass of order 1e-2 "
                                "for degree-8 moments; expected to exceed the tolerance"),
        default=False),
}

DEFAULT_CHECKS = tuple(name for name, spec in REGISTRY.items() if spec.default)


def lookup_check(check_id: str) -> CheckDef:
    """The registry entry of check_id; ValueError names the known ids."""
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise ValueError("unknown check id %r (known: %s)"
                         % (check_id, ", ".join(sorted(REGISTRY)))) from None


def run_check(check_id: str, config) -> CheckResult:
    """Run one check; the result carries its id and paper reference.  A draw-wise
    check's draw loop runs in here, so a timer around run_check sees all its work."""
    spec = lookup_check(check_id)
    result = (spec.judge(_draw_rows(config, check_id, spec.count, spec.draw))
              if spec.run is None else spec.run(config))
    return replace(result, check_id=check_id, paper_ref=spec.paper_ref)
