"""Slow, independent reference integrals for cross-checking the grids.

The Gaussian disk mass is a closed form, and the monomial Gram and norm
references go through the power series of the lower incomplete gamma
function.  ``adaptive_simpson`` integrates in one variable.  Nothing here
shares code with the polar product grids it certifies.
"""

from __future__ import annotations

import math

_EPS = 2.0 ** -52
_RESCALE = 2.0 ** 512

__all__ = [
    "adaptive_simpson",
    "lower_incomplete_gamma",
    "gaussian_disk_mass",
    "monomial_gram_reference",
    "monomial_norm_reference",
]


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    # the rounding floor keeps huge-magnitude integrals from subdividing
    # past the precision the arithmetic can deliver; a NaN delta stops too,
    # since bisecting cannot make it finite
    stop = 15.0 * max(tol, 4e-16 * (abs(left) + abs(right)))
    if depth <= 0 or not abs(delta) > stop:
        return left + right + delta / 15.0
    return (_adapt(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature of f on [a, b].

    The tolerance is absolute, floored locally by machine precision
    relative to the integrand's magnitude.
    """
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def _log_lower_incomplete_gamma(s: float, x: float) -> float:
    """log of the lower incomplete gamma function gamma(s, x), for x >= 0.

    The positive series of DLMF 8.7.1,

        gamma(s, x) = x^s e^(-x) sum_k x^k / (s (s+1) ... (s+k)),

    with the prefactor taken in logs.  The running term and sum are divided
    by the sum whenever it passes 2^512 and the divisor's log is kept, so
    neither can overflow.  The sum stops once the remaining terms, bounded
    by a geometric tail past the largest term, fall below rounding: about
    x + 6 sqrt(x) terms for large x.
    """
    if not 1.0 <= s < math.inf:
        raise ValueError("only finite s >= 1 is supported")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be finite and non-negative")
    if x == 0.0:
        return -math.inf
    term = 1.0 / s
    total = term
    log_scale = 0.0
    k = 0
    while True:
        k += 1
        ratio = x / (s + k)
        term *= ratio
        total += term
        if ratio < 1.0 and term * ratio <= 0.5 * _EPS * (1.0 - ratio) * total:
            break
        if total > _RESCALE:
            log_scale += math.log(total)
            term /= total
            total = 1.0
    return s * math.log(x) - x + log_scale + math.log(total)


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma integral of t^(s-1) e^(-t) over [0, x], s >= 1,
    by the series of ``_log_lower_incomplete_gamma`` (OverflowError past the
    float range)."""
    return math.exp(_log_lower_incomplete_gamma(s, x))


def gaussian_disk_mass(alpha: float, r_max: float) -> float:
    """Mass of (alpha/pi) e^(-alpha r^2) dA on the disk of radius r_max, in
    closed form: 1 - exp(-alpha r_max^2), through expm1 so it keeps full
    relative precision on small disks."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return -math.expm1(-alpha * r_max * r_max)


def monomial_gram_reference(m: int, alpha: float, r_max: float) -> float:
    """Squared Gaussian-measure norm of q^m on the radius-r_max slice disk."""
    return lower_incomplete_gamma(m + 1, alpha * r_max * r_max) / alpha ** m


def monomial_norm_reference(m: int, p: float, alpha: float, r_max: float) -> float:
    """p-norm of the monomial q^m under the weighted slice integral.

    Radial reduction of (alpha p / 2 pi) * integral over the disk of
    (r^m e^(-alpha r^2 / 2))^p dA, which evaluates to
    gamma_lower(mp/2 + 1, beta r_max^2) / beta^(mp/2) with beta = alpha p/2.
    """
    beta = 0.5 * alpha * p
    s = 0.5 * m * p + 1.0
    log_val = _log_lower_incomplete_gamma(s, beta * r_max * r_max) - (s - 1.0) * math.log(beta)
    return math.exp(log_val / p)
