"""Quaternionic slice-regular series and Gaussian-weighted slice function spaces.

The package provides four layers: quaternion arithmetic with slice
coordinates (``quaternions``), truncated slice-regular power series with
their non-commutative convolution algebra (``series``), Gaussian-measure
quadrature with weighted norms, kernels and projections (``quadrature``,
``fock``, ``reference``), and a seeded verification harness with a command
line front end (``checks``, ``harness``, ``cli``).
"""

from .quaternions import (
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    SliceCoords,
    orthogonal_unit,
    slice_coords,
)
from .series import (
    DEGREE_CAP,
    SeriesFormatError,
    SliceSeries,
    SplitPair,
    parse_series,
    pointwise_star_residual,
    random_series,
    read_series,
    write_series,
)
from .quadrature import PolarGrid, build_polar_grid, fibonacci_sphere, slice_sample
from .fock import (
    FockParams,
    SupNorm,
    build_grid,
    fock_norm_slice,
    fock_norm_sup,
    gram_table,
    inner_product,
    kernel_series,
    projection_series,
    sample_on_grid,
)
from .harness import (
    CheckResult,
    RunConfig,
    render_csv,
    render_json,
    run_suite,
    write_reports,
)
from .checks import DEFAULT_CHECKS, REGISTRY

__version__ = "0.1.0"

__all__ = [
    "I", "J", "K", "ONE", "ZERO", "Quaternion", "SliceCoords",
    "orthogonal_unit", "slice_coords",
    "DEGREE_CAP", "SeriesFormatError", "SliceSeries", "SplitPair", "parse_series",
    "pointwise_star_residual", "read_series", "write_series",
    "PolarGrid", "build_polar_grid", "fibonacci_sphere", "slice_sample",
    "FockParams", "SupNorm", "build_grid",
    "fock_norm_slice", "fock_norm_sup", "gram_table", "inner_product",
    "kernel_series", "projection_series", "sample_on_grid",
    "CheckResult", "RunConfig", "random_series", "render_csv", "render_json",
    "run_suite", "write_reports", "DEFAULT_CHECKS", "REGISTRY",
    "__version__",
]
