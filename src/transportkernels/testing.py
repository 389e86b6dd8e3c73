"""Test-support namespace: slow, independent oracles for the fast kernel paths.

Everything here recomputes quantities the library already provides, but
through a structurally different route, so agreement is evidence rather
than tautology. The central object is the factorization of the weighted
volume through sequence matchings:

* ``k1`` multiplies entry weights along two aligned sequences,
  prod_t k[rho_t, gamma_t]; it only depends on the pair-counting table
  of the two sequences.
* ``k2`` is the reciprocal Fisher-Yates statistic as an exact rational,
  (prod x_ij!) / (prod r_i! prod c_j!); multiplied by the Fisher-Yates
  count of its own table it gives exactly 1.
* ``permutation_sum_oracle`` sums k1 times the raw entry-factorial
  product over every one of the N! position shuffles of the second
  sequence. Because each table X is induced by exactly
  (prod r_i! prod c_j!) / (prod x_ij!) shuffles, the sum collapses to
  (prod r_i! prod c_j!) times the weighted volume, so dividing by the
  margin factorials must reproduce the volume kernel.
* ``symmetrization_oracle`` assembles the Gram matrix of the
  shuffle-summed kernel k1 * k2 over a histogram family. Summing a
  kernel over a group action preserves positive semidefiniteness, and
  the collapsed value per pair is again the weighted volume, so this
  Gram is an S_N-route replica of the volume-kernel Gram.
* ``factorial_kernel_expansion`` checks the running-product identity
  <a, b>! = prod_t (a_{t+1} b_{t+1} <a_1..t, b_1..t> + 1) for binary
  vectors, the building block behind writing entry factorials as
  inner products of indicator rows (``pattern_factorial_split``).

Everything is exact where exactness is cheap (int and Fraction); floats
appear only where entry weights force them. Explicit S_N iteration is
capped at mass 8. No production module imports this one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import LengthMismatchError, ValidationError
from .histograms import (
    ContingencyTable,
    Histogram,
    IndexSequence,
    canonical_sequence,
    chi,
)
from .polytope import WeightSpec, require_family
from .psd import GramMatrix, build_gram

SN_MASS_CAP = 8


def _factorial_product(rows: Iterable[Iterable[int]]) -> int:
    """prod v! over every v of rows: a table's entries, or a pair's margins."""
    return math.prod(math.factorial(v) for row in rows for v in row)


def _shuffle_pair(
    r: Histogram, c: Histogram, w: WeightSpec | None = None
) -> tuple[IndexSequence, IndexSequence]:
    """Canonical sequences of a pair whose N! shuffles are iterated; mass capped."""
    require_family((r, c), w)
    if r.mass > SN_MASS_CAP:
        raise ValidationError(
            f"explicit permutation sum capped at mass {SN_MASS_CAP}, got {r.mass}"
        )
    return canonical_sequence(r), canonical_sequence(c)


def k1(rho: IndexSequence, gamma: IndexSequence, w: WeightSpec) -> float:
    """Product of entry weights along the aligned sequence pair."""
    if len(rho) != len(gamma):
        raise LengthMismatchError(
            f"sequences of lengths {len(rho)} and {len(gamma)}"
        )
    k = w.weight.tolist()
    pairs = zip(rho.entries, gamma.entries)
    return math.prod((k[i - 1][j - 1] for i, j in pairs), start=1.0)


def k2(rho: IndexSequence, gamma: IndexSequence) -> Fraction:
    """Reciprocal Fisher-Yates statistic of the pair-counting table, exact."""
    table = chi(rho, gamma)
    margins = (table.row_sums.counts, table.col_sums.counts)
    return Fraction(_factorial_product(table.entries), _factorial_product(margins))


def factorial_kernel_expansion(a: Sequence[int], b: Sequence[int]) -> tuple[int, int]:
    """(<a,b>! directly, the same via the running-product identity), binary vectors."""
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    if len(a) != len(b):
        raise LengthMismatchError(f"vectors of lengths {len(a)} and {len(b)}")
    if any(v not in (0, 1) for v in a + b):
        raise ValidationError("the expansion identity is stated for binary vectors")
    inner = sum(x * y for x, y in zip(a, b))
    direct = math.factorial(inner)
    product = 1
    prefix = a[0] * b[0] if a else 0
    for t in range(len(a) - 1):
        product *= a[t + 1] * b[t + 1] * prefix + 1
        prefix += a[t + 1] * b[t + 1]
    return direct, product


def pattern_factorial_split(rho: IndexSequence, gamma: IndexSequence) -> tuple[int, int]:
    """(prod of entry factorials, the same via indicator-row inner products).

    Each entry of the pair-counting table is the inner product of the
    indicator row of a symbol in rho with one in gamma, so the product
    of entry factorials splits into d*d factorials of binary inner
    products.
    """
    direct = _factorial_product(chi(rho, gamma).entries)
    split = 1
    d = rho.d
    for i in range(1, d + 1):
        row_ind = [1 if v == i else 0 for v in rho.entries]
        for j in range(1, d + 1):
            col_ind = [1 if v == j else 0 for v in gamma.entries]
            split *= math.factorial(sum(x * y for x, y in zip(row_ind, col_ind)))
    return direct, split


def permutation_sum_oracle(r: Histogram, c: Histogram, w: WeightSpec) -> float:
    """Sum over all N! shuffles of k1 times the entry-factorial product.

    Equals (prod r_i! prod c_j!) times the weighted volume; callers
    divide by the margin factorials to recover it. Iteration is the
    stdlib lexicographic-successor order over index permutations, capped
    at mass 8.
    """
    rho, gamma = _shuffle_pair(r, c, w)
    k = w.weight.tolist()
    total = 0.0
    for shuffled in itertools.permutations(gamma.entries):
        pairs = list(zip(rho.entries, shuffled))
        weight = math.prod((k[i - 1][j - 1] for i, j in pairs), start=1.0)
        total += weight * _factorial_product([Counter(pairs).values()])
    return total


def shuffle_kernel(r: Histogram, c: Histogram, w: WeightSpec) -> float:
    """Sum over all N! shuffles of k1 * k2; collapses to the weighted volume."""
    return permutation_sum_oracle(r, c, w) / _factorial_product((r.counts, c.counts))


def symmetrization_oracle(
    histograms: Sequence[Histogram], w: WeightSpec
) -> GramMatrix:
    """Gram matrix of the shuffle-summed kernel over a histogram family."""
    kernel = lambda hs, pairs: (shuffle_kernel(hs[p], hs[q], w) for p, q in pairs)
    return build_gram(histograms, kernel)


def brute_force_pattern_counts(
    r: Histogram, c: Histogram
) -> dict[ContingencyTable, int]:
    """How many shuffles induce each pair-counting table; the Fisher-Yates law."""
    rho, gamma = _shuffle_pair(r, c)
    return Counter(
        chi(rho, IndexSequence(shuffled, gamma.d))
        for shuffled in itertools.permutations(gamma.entries)
    )
