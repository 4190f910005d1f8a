"""Slow, independent reference integrals for cross-checking the grids.

The Gaussian disk mass is a closed form, and the monomial Gram and norm
references go through the lower incomplete gamma function, kept in logs
(its power series up to x = s + 1, the continued fraction of its
complement above), so a value past the float range is inf.  Nothing
here shares code with the polar product grids it certifies.
"""

from __future__ import annotations

import math

_EPS = 2.0 ** -52
_GAMMA_MAX_ARG = 171.0  # Gamma(s) is finite up to about s = 171.6

__all__ = [
    "lower_incomplete_gamma",
    "gaussian_disk_mass",
    "monomial_gram_reference",
    "monomial_norm_reference",
]


def _check_domain(s: float, x: float) -> None:
    if not 1.0 <= s < math.inf:
        raise ValueError("only finite s >= 1 is supported")
    if not 0.0 <= x < math.inf:
        raise ValueError("x must be finite and non-negative")


def _log_lower_incomplete_gamma(s: float, x: float) -> float:
    """log of the lower incomplete gamma function gamma(s, x), for x >= 0.

    At and below x = s + 1, the positive series of DLMF 8.7.1,

        gamma(s, x) = x^s e^(-x) sum_k x^k / (s (s+1) ... (s+k)),

    with the prefactor taken in logs.  Its terms fall from the first, so the
    sum cannot overflow; it stops once the remaining terms, bounded by a
    geometric tail, fall below rounding.

    Above x = s + 1 the series would form s log x - x and log(sum) as two
    large logs that cancel, losing about x eps.  There gamma(s, x) =
    Gamma(s) (1 - Q(s, x)), kept in logs as lgamma(s) + log1p(-Q), with Q
    from the continued fraction (``_log_upper_gamma_ratio``).
    """
    _check_domain(s, x)
    if x == 0.0:
        return -math.inf
    if x > s + 1.0:
        return math.lgamma(s) + math.log1p(-math.exp(_log_upper_gamma_ratio(s, x)))
    term = 1.0 / s
    total = term
    k = 0
    while True:
        k += 1
        ratio = x / (s + k)
        term *= ratio
        total += term
        if ratio < 1.0 and term * ratio <= 0.5 * _EPS * (1.0 - ratio) * total:
            break
    return s * math.log(x) - x + math.log(total)


def _log_upper_gamma_ratio(s: float, x: float) -> float:
    """log Q(s, x) = log(Gamma(s, x) / Gamma(s)) for x > s + 1, from the
    continued fraction of DLMF 8.9.2,

        Gamma(s, x) = x^s e^(-x) / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / ...)),

    by the modified Lentz method: the running convergent h is multiplied by
    c d until that factor is 1 to rounding."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    k = 0
    while True:
        k += 1
        a = -k * (k - s)
        b += 2.0
        d = a * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        step = c * d
        h *= step
        if abs(step - 1.0) <= _EPS:
            return s * math.log(x) - x - math.lgamma(s) + math.log(h)


def _exp(x: float) -> float:
    """e^x, inf past the float range (where ``math.exp`` raises OverflowError)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma integral of t^(s-1) e^(-t) over [0, x], s >= 1,
    by the series or continued fraction of ``_log_lower_incomplete_gamma``
    (inf past the float range).  Above x = s + 1, where Gamma(s) is finite,
    it is Gamma(s) (1 - Q) formed directly, so it is Gamma(s) itself to
    rounding wherever Q is below rounding."""
    _check_domain(s, x)
    if x > s + 1.0 and s <= _GAMMA_MAX_ARG:
        return math.gamma(s) * -math.expm1(_log_upper_gamma_ratio(s, x))
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
