"""The benchmark workloads and the oracles that judge their outputs.

Each workload has a set-up (what a fresh interpreter must do before the
first op: import, grid builds, slice sample, inputs from the seed), an op,
and an oracle that counts failed outputs without trusting a check's own
``pass`` flag.  The package is called through module attributes at call
time, so a tracer installed on those attributes sees every call.

    verify-default     op = one default ``run_suite`` pass (18 checks at the
                       default RunConfig); output = one check record.
    library-roundtrip  op = one round trip through the public fock API;
                       output = the round trip.

Suite op k uses seed ``seed + k``, so passes in one process never repeat a
seed and never read the growth checks from the module cache.  A suite run
makes op 0 only, however fast it is, so runs at one seed always time and
judge the same work.  Round trip k uses input k of a pool drawn from the
seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import slicefock
from slicefock import fock, harness, quadrature, reference
from slicefock.quaternions import random_unit_imaginary

# checks whose lhs is a ratio of norms or values of a nonzero series; an
# lhs <= 0 there means the accumulator swallowed NaN
RATIO_CHECKS = frozenset(("norm-sandwich", "growth-bound", "growth-normalized",
                          "embedding", "dilation"))

# library-roundtrip sizes
MAX_DEGREE = 32
BALL_POINTS = 20_000
INPUT_POOL = 8 * (MAX_DEGREE + 1)

# oracle tolerances, relative to the coefficient scale 1 + max|a_n| (or the
# value scale 1 + sum|a_n| for point values, or the exact norm)
ROUNDTRIP_TOL = 1e-12
EVAL_TOL = 1e-12
P2_NORM_TOL = 1e-10
# Plane coefficient n is a sum of samples of size |z|^n |f(z)| e^{-alpha|z|^2}
# that cancel to |a_n|, so its rounding error scales with
# B_n = (alpha^n/n!) sum_m |a_m| Gamma((n+m)/2 + 1) / alpha^((n+m)/2),
# not with |a_n|.  The worst seen over 120 inputs was 165 eps B_n.
PLANE_TOL_EPS = 1e4


def record_failed(rec: dict) -> bool:
    """Oracle for one check record: failed, non-finite, or a swallowed NaN."""
    values = (rec["lhs"], rec["rhs"], rec["constant"], rec["margin"])
    if rec["pass"] is not True or not all(math.isfinite(v) for v in values):
        return True
    return rec["check_id"] in RATIO_CHECKS and rec["lhs"] <= 0.0


@dataclass
class OpResult:
    attempted: int
    failed: int
    report: str = ""           # render_json bytes, for the suite workloads
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# suite workloads


@dataclass
class SuiteState:
    seed: int
    config: harness.RunConfig

    def op(self, k: int) -> OpResult:
        results = harness.run_suite(dataclasses.replace(self.config, seed=self.seed + k))
        report = harness.render_json(results)
        records = [r.record() for r in results]
        bad = [rec["check_id"] for rec in records if record_failed(rec)]
        return OpResult(len(records), len(bad), report, bad)


def setup_suite(seed: int, config: harness.RunConfig) -> SuiteState:
    # the disk and plane grids and the slice sample the grid checks use
    quadrature.build_polar_grid(config.n_r, config.n_theta, 1.0)
    quadrature.build_polar_grid(config.n_r, config.n_theta, config.radius)
    quadrature.slice_sample(config.n_slices)
    return SuiteState(seed, config)


# ---------------------------------------------------------------------------
# library round trip


@dataclass
class LibraryState:
    disk: fock.FockParams
    plane: fock.FockParams
    disk_grid: quadrature.PolarGrid
    plane_grid: quadrature.PolarGrid
    inputs: list
    points: np.ndarray
    gamma: Optional[np.ndarray] = None       # disk Gram diagonal, slow reference
    plane_keep: Optional[np.ndarray] = None  # P(n+1, alpha R^2)
    plane_scale: Optional[np.ndarray] = None  # B_n = plane_scale @ |a|

    def precompute_oracles(self):
        """Reference values the oracles compare against (not part of set-up)."""
        a = self.disk.alpha
        self.gamma = np.array([reference.monomial_gram_reference(m, a, 1.0)
                               for m in range(MAX_DEGREE + 1)])
        a = self.plane.alpha
        x = a * self.plane.radius ** 2
        degrees = range(MAX_DEGREE + 1)
        self.plane_keep = np.array([reference.lower_incomplete_gamma(n + 1, x)
                                    / math.factorial(n) for n in degrees])
        self.plane_scale = np.array([[math.exp(n * math.log(a) - math.lgamma(n + 1)
                                               + math.lgamma(0.5 * (n + m) + 1)
                                               - 0.5 * (n + m) * math.log(a))
                                      for m in degrees] for n in degrees])

    def op(self, k: int) -> OpResult:
        f, u = self.inputs[k % len(self.inputs)]   # the pool repeats past INPUT_POOL ops
        samples_disk = fock.sample_on_grid(f, u, self.disk_grid)
        samples_plane = fock.sample_on_grid(f, u, self.plane_grid)
        proj_disk = fock.projection_series(samples_disk, u, self.disk, self.disk_grid,
                                           corrected=True)
        proj_plane = fock.projection_series(samples_plane, u, self.plane, self.plane_grid)
        got = proj_disk.eval_many(self.points)
        want = f.eval_many(self.points)
        sup2 = fock.fock_norm_sup(f, self.disk, self.disk_grid)
        sup3 = fock.fock_norm_sup(f, self.plane, self.plane_grid)
        problems = self.judge(f, proj_disk, proj_plane, got, want, sup2.value, sup3.value)
        return OpResult(1, int(bool(problems)), problems=problems)

    def judge(self, f, proj_disk, proj_plane, got, want, sup2, sup3) -> list:
        """Names of the oracles this round trip violates."""
        a = np.zeros((MAX_DEGREE + 1, 4))
        a[: f.degree + 1] = f.coeffs
        scale = 1.0 + float(np.abs(a).max())
        problems = []
        if not _close(proj_disk.coeffs, a, ROUNDTRIP_TOL * scale):
            problems.append("disk-roundtrip")
        if not _close(got, want, EVAL_TOL * (1.0 + float(np.linalg.norm(a, axis=1).sum()))):
            problems.append("eval-agree")
        exact = math.sqrt(float(np.sum(np.sum(a * a, axis=1) * self.gamma)))
        if not abs(sup2 - exact) <= P2_NORM_TOL * exact:
            problems.append("p2-closed-form")
        plane_err = np.linalg.norm(proj_plane.coeffs - a * self.plane_keep[:, None], axis=1)
        bound = PLANE_TOL_EPS * np.finfo(float).eps * (self.plane_scale @ np.linalg.norm(a, axis=1))
        if not np.all(plane_err <= bound):
            problems.append("plane-tail")
        if not (math.isfinite(sup3) and sup3 > 0.0):
            problems.append("p3-finite")
        return problems


def _close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= tol))


def setup_library(seed: int) -> LibraryState:
    disk = fock.FockParams()                      # p = 2 on the unit disk
    plane = fock.FockParams(p=3.0, domain="plane")
    disk_grid = fock.build_grid(disk)
    plane_grid = fock.build_grid(plane)
    quadrature.slice_sample(disk.n_slices)
    rng = np.random.default_rng([seed, 0x5F0C])
    # each block of 33 consecutive ops takes every degree 0..32 once, in a
    # seeded order, so the work in the fixed ops does not depend on the seed
    degrees = np.concatenate([rng.permutation(MAX_DEGREE + 1)
                              for _ in range(INPUT_POOL // (MAX_DEGREE + 1))])
    inputs = [(harness.random_series(rng, int(d)), random_unit_imaginary(rng))
              for d in degrees]
    v = rng.standard_normal((BALL_POINTS, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    points = v * (0.98 * rng.uniform(size=BALL_POINTS) ** 0.25)[:, None]
    return LibraryState(disk, plane, disk_grid, plane_grid, inputs, points)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    setup: Callable[[int], object]
    fixed_ops: int     # ops in the timed fixed body that wall_s measures
    block: int = 1     # a run stops only after a whole number of blocks
    fill: bool = True  # whether ops continue after the fixed ones until the time is up


WORKLOADS = {
    # one pass, no time fill: extra passes would run other seeds' work
    "verify-default": Workload(lambda seed: setup_suite(seed, harness.RunConfig()), 1,
                               fill=False),
    # four blocks of 33 round trips, each block every degree 0..32 once
    "library-roundtrip": Workload(setup_library, 4 * (MAX_DEGREE + 1), MAX_DEGREE + 1),
}

DEFAULT_CHECK_IDS = slicefock.DEFAULT_CHECKS
