"""
The corner-rule kernel
======================

Summing over every table is exponential in the dimension. The
corner-rule kernel keeps one vertex per pair of bin relabellings: fill
the table greedily from the top-left corner, sweeping a seeded set of
row and column orders, and sum exp(-cost) over those vertices only.
"""

import numpy as np

from transportkernels import (
    Histogram,
    Permutation,
    WeightSpec,
    build_gram,
    certify_psd,
    nw_cost_matrix,
    nw_kernel,
    nw_kernel_pairs,
    nw_permuted,
    nw_table,
    sample_permutations,
)

r = Histogram((2, 5, 3))
c = Histogram((5, 1, 4))

# the greedy corner vertex: min(row residual, column residual) per cell
base = nw_table(r, c)
print("corner vertex:")
for row in base.entries:
    print("  ", row)
assert base.entries == ((2, 0, 0), (3, 1, 1), (0, 0, 3))
# at most 2d-1 cells are ever nonzero
assert base.nonzero_count() <= 5

# relabelling rows by sigma and columns by sigma' gives a different vertex
t = nw_permuted(r, c, Permutation((3, 1, 2)), Permutation((3, 2, 1)))
assert t.entries == ((0, 1, 1), (5, 0, 0), (0, 0, 3))
assert t.row_sums == r and t.col_sums == c  # margins never move

# a reproducible relabelling set: identity first, then seeded draws
rset = sample_permutations(3, 6, seed=42)
assert rset.perms[0].image == (1, 2, 3)
assert sample_permutations(3, 6, seed=42).perms == rset.perms

# per-pair transport costs for the whole set at once, then the kernel
w = WeightSpec.from_weight([[1.0, 0.6, 0.4], [0.6, 1.0, 0.6], [0.4, 0.6, 1.0]])
costs = nw_cost_matrix(r, c, w, rset)
print("cost matrix over the relabelling set:\n", np.round(costs, 3))
value = nw_kernel(r, c, w, rset)
assert value == np.exp(-costs).sum()
print("corner-rule kernel value:", value)

# with an entrywise nonnegative PSD weight matrix the Gram matrix of
# this kernel is positive semidefinite; certify it on a small dataset
rng = np.random.default_rng(0)
hists = [Histogram(tuple(int(v) for v in rng.multinomial(10, np.ones(3) / 3)))
         for _ in range(8)]
# (the pairs kernel prices every vertex of the upper triangle in one
# stream; one-pair calls give the same matrix)
gram = build_gram(hists, lambda hs, pairs: nw_kernel_pairs(hs, pairs, w, rset))
assert gram.values[0, 1] == nw_kernel(hists[0], hists[1], w, rset)
one_by_one = build_gram(
    hists, lambda hs, pairs: (nw_kernel(hs[p], hs[q], w, rset) for p, q in pairs)
)
assert np.array_equal(gram.values, one_by_one.values)
cert = certify_psd(gram)
print("gram certificate:", cert.verdict, "min eigenvalue", cert.min_eigenvalue)
assert cert.passed
