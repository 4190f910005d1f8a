"""Reproducing kernels and the integral projection onto series form.

Both kernels are sum_n q^n conj(w)^n c_n and differ only in the weights
c_n: alpha^n / n! for the exponential kernel, 1 / ||q^n||^2 for the
corrected one (``kernel_series(w, params, corrected=True)``).
The exponential kernel pairs with the Gaussian measure to reproduce
series on the (large-radius) plane; dividing by the measured Gram
diagonal instead produces a kernel adapted to whatever domain is
configured, reproducing monomials there by construction.  The script
also shows what a too-small truncation radius does to the exponential
kernel: the lost Gaussian tail shows up, to the digit, as the
reproduction error.
"""

import math

import numpy as np

from slicefock import (
    FockParams,
    I,
    Quaternion,
    SliceSeries,
    build_grid,
    inner_product,
    kernel_eval,
    kernel_series,
    project_T,
    sample_on_grid,
)
from slicefock.reference import lower_incomplete_gamma

q = Quaternion(0.3, 0.4, -0.2, 0.1)
w = Quaternion(0.5, -0.1, 0.3, 0.0)

plane = FockParams(domain="plane", radius=6.5, degree=40)
print("kernel(q, w)           =", kernel_eval(q, w, plane).to_text())
print("conj(kernel(w, q))     =", kernel_eval(w, q, plane).conjugate().to_text())

disk = FockParams(domain="disk", degree=24)
print("\non the unit disk the corrected kernel replaces factorial weights")
print("with measured Gram entries; at w = 0 only the constant term is left:")
print("corrected(q, 0) =", kernel_eval(q, Quaternion(), disk, corrected=True).to_text(),
      " = 1/(1 - e^-1) =", 1.0 / (1.0 - math.exp(-1.0)))

# Projection of sampled values back onto a series: on a large plane
# truncation the exponential kernel reproduces monomials.
grid = build_grid(plane)
for m in (1, 4, 8):
    mono = SliceSeries.monomial(m)
    samples = sample_on_grid(mono, I, grid)
    err = abs(project_T(samples, q, I, plane) - mono.eval(q))
    print("plane radius 6.5: |T(q^%d) - q^%d| = %.2e" % (m, m, err))

# The corrected kernel reproduces exactly on the disk, where the
# exponential kernel would not.
gridd = build_grid(disk)
mono = SliceSeries.monomial(5)
samples = sample_on_grid(mono, I, gridd)
err = abs(project_T(samples, q, I, disk, corrected=True) - mono.eval(q))
print("unit disk, corrected kernel: |T(q^5) - q^5| = %.2e" % err)

# The name "reproducing" is literal: pairing any series against the
# kernel section under the Gaussian inner product returns its value.
np_rng = np.random.default_rng(3)
f = SliceSeries(np_rng.standard_normal((7, 4)))
section = kernel_series(w, disk, corrected=True)
paired = inner_product(section, f, I, disk, gridd)
print("\n<K(., w), f> =", paired.to_text())
print("f(w)         =", f.eval(w).to_text())

# Shrink the plane truncation to radius 4 and the exponential kernel
# visibly under-reproduces: the deficit is exactly the Gaussian tail
# mass beyond the radius, Q(m+1, alpha R^2).
small = FockParams(domain="plane", radius=4.0, degree=40)
grids = build_grid(small)
print("\nradius-4 truncation: measured deficit vs predicted Gaussian tail")
for m in (2, 5, 8):
    mono = SliceSeries.monomial(m)
    samples = sample_on_grid(mono, I, grids)
    got = project_T(samples, q, I, small)
    want = mono.eval(q)
    predicted = 1.0 - lower_incomplete_gamma(m + 1, 16.0) / math.factorial(m)
    measured = abs(got - want) / abs(want)
    print("m=%d   measured %.6e   predicted %.6e" % (m, measured, predicted))
