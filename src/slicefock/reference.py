"""Slow, independent reference integrals for cross-checking the grids.

The Gaussian disk mass is a closed form, and the monomial Gram and norm
references go through the power series of the lower incomplete gamma
function, kept in logs, so a value past the float range is inf.  Nothing
here shares code with the polar product grids it certifies.
"""

from __future__ import annotations

import math

_EPS = 2.0 ** -52
_RESCALE = 2.0 ** 512

__all__ = [
    "lower_incomplete_gamma",
    "gaussian_disk_mass",
    "monomial_gram_reference",
    "monomial_norm_reference",
]


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


def _exp(x: float) -> float:
    """e^x, inf past the float range (where ``math.exp`` raises OverflowError)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma integral of t^(s-1) e^(-t) over [0, x], s >= 1,
    by the series of ``_log_lower_incomplete_gamma`` (inf past the float range)."""
    return _exp(_log_lower_incomplete_gamma(s, x))


def gaussian_disk_mass(alpha: float, r_max: float) -> float:
    """Mass of (alpha/pi) e^(-alpha r^2) dA on the disk of radius r_max, in
    closed form: 1 - exp(-alpha r_max^2), through expm1 so it keeps full
    relative precision on small disks."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return -math.expm1(-alpha * r_max * r_max)


def monomial_gram_reference(m: int, alpha: float, r_max: float) -> float:
    """Squared Gaussian-measure norm of q^m on the radius-r_max slice disk,
    gamma_lower(m + 1, alpha r_max^2) / alpha^m, inf past the float range."""
    return _exp(_log_lower_incomplete_gamma(m + 1, alpha * r_max * r_max) - m * math.log(alpha))


def monomial_norm_reference(m: int, p: float, alpha: float, r_max: float) -> float:
    """p-norm of the monomial q^m under the weighted slice integral.

    Radial reduction of (alpha p / 2 pi) * integral over the disk of
    (r^m e^(-alpha r^2 / 2))^p dA, which evaluates to
    gamma_lower(mp/2 + 1, beta r_max^2) / beta^(mp/2) with beta = alpha p/2.
    """
    beta = 0.5 * alpha * p
    s = 0.5 * m * p + 1.0
    log_val = _log_lower_incomplete_gamma(s, beta * r_max * r_max) - (s - 1.0) * math.log(beta)
    return _exp(log_val / p)
