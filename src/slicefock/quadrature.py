"""Polar product grids on slice disks and deterministic sphere sampling.

The grid is a tensor product of Gauss-Legendre nodes in the radius (with
the polar Jacobian folded into the weights) and equispaced angles with the
trapezoid rule, which is exact for trigonometric polynomials of degree
below the angle count.  Every node of a ring has the same weight, so the
grid keeps one Lebesgue area weight per ring.  The Gaussian depends on the
radius alone, so its measure weights are derived from that area on demand,
in logs (``PolarGrid.log_ring_weights``): a weight that underflows stays a
finite log, to be added to the log of a power that would overflow.

The angles theta_k = 2 pi k / n_theta have one table, ``angle_table``, behind
the grid's nodes and ``fock._angle_sums``.  Each angle is reduced by whole
quarter turns in integers to |t| <= pi/4 before cos and sin, so every entry
is within 0.51 eps of the exact circle (n_theta up to 4096); the cos and sin
of a rounded 2 pi k / n_theta are up to 4 eps off, which z^m carries m times.

The slice sample is the one format of the sphere of unit imaginaries that
the norm code reads: a cached, read-only (m, 4) array of quaternion
components, one slice axis per row.  Grids and samples are both cached by
their arguments, since they are immutable and reused by every norm call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PolarGrid", "angle_table", "build_polar_grid", "fibonacci_sphere", "slice_sample"]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class PolarGrid:
    """Flattened polar quadrature nodes over a disk of radius r_max."""

    r_max: float
    n_r: int
    n_theta: int
    r: np.ndarray          # radial nodes, shape (n_r,)
    z: np.ndarray          # complex nodes r (cos theta + i sin theta), ring by ring, flattened
    ring_area: np.ndarray  # Lebesgue dA weight of each node of ring r, shape (n_r,)

    @property
    def size(self) -> int:
        return self.z.size

    def log_ring_weights(self, alpha: float) -> np.ndarray:
        """log lambda_r, the weight of (alpha/pi) exp(-alpha r^2) dA at each node of
        ring r, shape (n_r,): the one form of the Gaussian weight, finite on every
        ring even where lambda_r underflows."""
        return np.log(self.ring_area) + math.log(alpha / math.pi) - alpha * self.r * self.r

    def gaussian_mass(self, alpha: float) -> float:
        return float(self.n_theta * np.sum(np.exp(self.log_ring_weights(alpha))))


@functools.lru_cache(maxsize=16)
def angle_table(n_theta: int) -> np.ndarray:
    """Rows (cos theta_k, sin theta_k), shape (2, n_theta), at theta_k = 2 pi k / n_theta;
    read-only, cached like ``build_polar_grid``.  With 4k = q n_theta + j and
    |j| <= n_theta / 2, theta_k is q quarter turns plus t = pi j / (2 n_theta)."""
    k = np.arange(n_theta)
    quarters = (8 * k + n_theta) // (2 * n_theta)
    t = math.pi * (4 * k - quarters * n_theta) / (2 * n_theta)
    cos, sin = np.cos(t), np.sin(t)
    turn = quarters % 4
    table = np.stack([np.choose(turn, [cos, -sin, -cos, sin]),
                      np.choose(turn, [sin, cos, -sin, -cos])]) + 0.0  # no -0.0
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def build_polar_grid(n_r: int, n_theta: int, r_max: float) -> PolarGrid:
    """Tensor Gauss-Legendre x trapezoid grid on the disk of radius r_max.

    The 16 most recent grids are cached by their arguments, since they are
    immutable and reused heavily by the norm and projection code; invalid
    arguments raise on every call (exceptions are not cached).
    """
    if n_r < 4 or n_theta < 4:
        raise ValueError("need at least 4 radial and 4 angular nodes")
    if not 0 < r_max < math.inf:
        raise ValueError("grid radius must be positive and finite")
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * w * r            # polar Jacobian r dr
    cos, sin = angle_table(n_theta)
    z = (r[:, None] * (cos + 1j * sin)).ravel()
    ring_area = wr * (2.0 * math.pi / n_theta)
    for a in (r, z, ring_area):
        a.flags.writeable = False
    return PolarGrid(float(r_max), n_r, n_theta, r, z, ring_area)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic Fibonacci lattice of n points on the unit 2-sphere."""
    if n < 1:
        raise ValueError("need at least one sample point")
    k = np.arange(n)
    y = 1.0 - (2.0 * k + 1.0) / n
    rad = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = k * _GOLDEN_ANGLE
    pts = np.stack([np.cos(phi) * rad, y, np.sin(phi) * rad], axis=1)
    return pts


@functools.lru_cache(maxsize=16)
def slice_sample(n_slices: int) -> np.ndarray:
    """Deterministic sample of unit imaginaries as a read-only (n_slices + 3, 4)
    component array: the Fibonacci lattice, then the axes i, j, k (always
    included so canonical slices are exact).  Cached like ``build_polar_grid``."""
    units = np.zeros((n_slices + 3, 4))
    units[:n_slices, 1:] = fibonacci_sphere(n_slices)
    units[n_slices:, 1:] = np.eye(3)
    units.flags.writeable = False
    return units
