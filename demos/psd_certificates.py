"""
Certifying positive semidefiniteness
====================================

A kernel is only useful downstream if its Gram matrices are positive
semidefinite. Rather than trusting the theory blindly, every Gram
matrix here can be certified: the smallest and largest eigenvalues
come from LAPACK's symmetric eigensolver through numpy, and the
verdict compares the smallest one against a tolerance scaled by
the largest.
"""

import numpy as np

from transportkernels import (
    GramMatrix,
    Histogram,
    WeightSpec,
    build_gram,
    certify_psd,
    pseudo_kernel_pairs,
    psd_weight_check,
    weighted_volume_pairs,
)

# the certificate on a hand-checkable matrix: eigenvalues -1 and 3
cert = certify_psd(GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
print("extreme eigenvalues:", cert.min_eigenvalue, cert.max_eigenvalue, cert.verdict)
assert np.allclose([cert.min_eigenvalue, cert.max_eigenvalue], [-1.0, 3.0])
assert not cert.passed

# certify the weight matrix itself before using it in a kernel
w = WeightSpec.from_weight([[1.0, 0.7, 0.5], [0.7, 1.0, 0.7], [0.5, 0.7, 1.0]])
print("weight matrix PSD:", psd_weight_check(w).verdict)

rng = np.random.default_rng(7)
hists = [Histogram(tuple(int(v) for v in rng.multinomial(5, np.ones(3) / 3)))
         for _ in range(9)]

# the full-sum kernel produces a certified PSD Gram matrix. build_gram
# asks the kernel for the values of the upper triangle's index pairs;
# the volume reads each Gram row off one slab of a generating-polynomial
# recurrence, one stacked box per run of Gram rows (here all nine), with
# budget = height x cells x passes
volume_gram = build_gram(hists, lambda hs, pairs: weighted_volume_pairs(hs, pairs, w))
volume_cert = certify_psd(volume_gram)
print("volume kernel:", volume_cert.verdict,
      "min eigenvalue", f"{volume_cert.min_eigenvalue:.3e}")
assert volume_cert.passed

# keeping only the single cheapest table is NOT positive definite in
# general. Three point masses and a cost that is nearly free against
# bin 1 but expensive between bins 2 and 3 make it fail outright.
points = [Histogram((1, 0, 0)), Histogram((0, 1, 0)), Histogram((0, 0, 1))]
m = np.array([[0.0, 0.105, 0.105],
              [0.105, 0.0, 2.303],
              [0.105, 2.303, 0.0]])
wm = WeightSpec.from_cost(m)
pseudo_gram = build_gram(points, lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, wm))
pseudo_cert = certify_psd(pseudo_gram)
print("min-cost pseudo kernel:", pseudo_cert.verdict,
      "min eigenvalue", f"{pseudo_cert.min_eigenvalue:.3f}")
assert not pseudo_cert.passed

# Gram matrices refuse to be built from asymmetric data
try:
    GramMatrix(np.array([[1.0, 0.9], [0.5, 1.0]]))
except Exception as exc:
    print("asymmetry guard:", exc)
