"""
Counting tables and the weighted-volume kernel
==============================================

Two histograms with the same total mass bound a polytope of
nonnegative integer tables whose row sums match the first histogram
and whose column sums match the second. Everything in this package is
a sum over that table set.
"""

import math

from transportkernels import (
    EnumerationBudget,
    Histogram,
    WeightSpec,
    count_tables,
    enumerate_tables,
    generating_function,
    softmin,
    weighted_volume,
)

r = Histogram((7, 23))
c = Histogram((12, 18))

# stream the whole table set; for a 2x2 problem it is tiny
tables = list(enumerate_tables(r, c))
print(f"{r} vs {c}: {len(tables)} tables")
for t in tables:
    print("  ", t.entries)

# the count never materializes the tables: it reads one coefficient of
# a generating polynomial, built in exact integers over the column sums
assert count_tables(r, c) == len(tables)
ten = Histogram((10,) * 5)
big = count_tables(ten, ten)
assert big == 79_315_936_751
print(f"{ten} vs {ten}: {big:,} tables, counted without listing one")

# a similarity weight per bin pair turns the count into a kernel:
# each table contributes the product of k[i][j]^x[i][j]
k = WeightSpec.from_weight([[1.0, 0.5], [0.5, 1.0]])
t_value = weighted_volume(r, c, k)
print("weighted volume:", t_value)

# all-ones weights recover the plain count
ones = WeightSpec.from_weight([[1.0, 1.0], [1.0, 1.0]])
assert weighted_volume(r, c, ones) == float(len(tables))

# the same number seen through costs m = -log k: a sum of
# exp(-<X, M>) over tables, which is exp(-softmin of the costs)
v_value = generating_function(r, c, k)
assert abs(v_value - t_value) <= 1e-12 * t_value
m = tuple(map(tuple, k.cost))
costs = tuple(t.cost(m) for t in tables)
assert abs(math.exp(-softmin(costs)) - v_value) <= 1e-12 * v_value
print("softmin of transport costs:", softmin(costs))

# enumeration honors an explicit budget instead of hanging on big inputs
try:
    list(enumerate_tables(Histogram((500, 500)), Histogram((400, 600)),
                          EnumerationBudget(cap=100)))
except Exception as exc:
    print("budget guard:", exc)
