"""Gaussian-weighted norms on slice disks and the monomial Gram diagonal.

The weighted p-norm integrates |f(z) e^{-alpha|z|^2/2}|^p over a slice
disk; the full norm takes the largest value over a deterministic sample
of slices.  Monomials are mutually orthogonal under the Gaussian measure
and their squared norms are incomplete-gamma numbers on the unit disk,
approaching factorials when the domain grows into the whole plane.
"""

import math
from dataclasses import replace

import numpy as np

from slicefock import (
    FockParams,
    I,
    J,
    SliceSeries,
    build_grid,
    fock_norm_slice,
    fock_norm_sup,
    gram_table,
    inner_product,
)
from slicefock.reference import monomial_gram_reference

params = FockParams()            # unit disk, alpha = 1, p = 2
grid = build_grid(params)

# Quadrature calibration: the Gaussian measure of the unit disk.
print("Gaussian mass of the unit disk:", grid.gaussian_mass(1.0),
      " exact:", 1.0 - math.exp(-1.0))

# The constant function has a closed-form norm.
one = SliceSeries.constant(1.0)
print("||1|| =", fock_norm_slice(one, I, params),
      " exact:", math.sqrt(1.0 - math.exp(-1.0)))

# Random quaternion coefficients make slices differ; the sup norm tracks
# the largest slice and reports which direction achieved it.
rng = np.random.default_rng(11)
f = SliceSeries(rng.standard_normal((8, 4)))
sup = fock_norm_sup(f, params)
print("\nslice norm at i:", fock_norm_slice(f, I, params))
print("slice norm at j:", fock_norm_slice(f, J, params))
print("sup over %d slices: %.6f at axis %s" % (params.n_slices + 3, sup.value, sup.axis.to_text()))

# Two-sided comparability: no slice is smaller than sup^p / 2^p.
vals = [fock_norm_slice(f, u, params) for u in (I, J)]
print("sup^2 / (4 * slice^2):", [sup.value ** 2 / (4 * v ** 2) for v in vals], "(<= 1)")

# Monomial Gram diagonal on the disk: lower incomplete gamma values.
diag = gram_table(replace(params, degree=6), grid)
print("\n m   measured            gamma(m+1,1)/1^m")
for m in range(7):
    print("%2d   %-18.12g %.12g" % (m, diag[m], monomial_gram_reference(m, 1.0, 1.0)))

# In plane mode the same diagonal approaches m!.
plane = FockParams(domain="plane", radius=8.0, n_r=96, degree=6)
print("\nplane-mode diagonal vs m!:")
for m in range(7):
    print("%2d   %-18.12g %d" % (m, gram_table(plane)[m], math.factorial(m)))

# Distinct monomials are orthogonal: the angular rule wipes out every
# nonzero frequency exactly.
q2, q5 = SliceSeries.monomial(2), SliceSeries.monomial(5)
print("\n<q^2, q^5> =", abs(inner_product(q2, q5, I, params, grid)))
