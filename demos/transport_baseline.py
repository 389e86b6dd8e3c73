"""
Exact transport as a baseline
=============================

The classical way to compare histograms over the same table set is the
minimum transport cost. It is the hard-minimum counterpart of the
soft sums used by the kernels, and it doubles as a sanity baseline.
"""

import numpy as np

from transportkernels import (
    Histogram,
    WeightSpec,
    monge_check,
    nw_table,
    ot_cost,
    pseudo_kernel,
    weighted_volume,
)

r = Histogram((2, 5, 3))
c = Histogram((5, 1, 4))

# 0/1 mismatch cost: moving a unit between distinct bins costs 1,
# so the optimum is half the L1 distance between the count vectors
tv = WeightSpec.from_cost(np.ones((3, 3)) - np.eye(3))
sol = ot_cost(r, c, tv)
l1 = sum(abs(a - b) for a, b in zip(r.counts, c.counts))
print("min cost:", sol.cost, " half L1:", l1 / 2)
assert sol.cost == l1 / 2
for row in sol.plan.entries:
    print("  ", row)

# costs of the form f(i) + g(j) - lam*i*j (lam >= 0) satisfy the
# quadruple inequalities, and then the greedy corner vertex is already
# optimal: no recurrence runs at all
i = np.arange(1.0, 4.0)
monge = WeightSpec.from_cost(-np.outer(i, i))
assert monge_check(monge)
fast = ot_cost(r, c, monge)
assert fast.plan == nw_table(r, c)
print("greedy-optimal cost on a Monge matrix:", fast.cost)

# the mismatch cost is not Monge for three or more bins, so that
# instance above really did run the (min, +) recurrence over the table set
assert not monge_check(tv)

# exp(-min cost) is a similarity score but carries no PSD guarantee;
# it is always at most the full weighted-volume sum
w = WeightSpec.from_weight([[1.0, 0.5, 0.3], [0.5, 1.0, 0.5], [0.3, 0.5, 1.0]])
assert pseudo_kernel(r, c, w) <= weighted_volume(r, c, w)
print("pseudo kernel:", pseudo_kernel(r, c, w))
print("volume kernel:", weighted_volume(r, c, w))
