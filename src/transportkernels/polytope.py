"""Exact operations on the lattice points of a transportation polytope.

For two histograms r and c with d bins and equal mass N, the table set
is the collection of d x d nonnegative integer matrices whose row sums
are r and whose column sums are c. This module enumerates that set and
folds over it row by row: one memoized recursion over (row, residual
column sums) that counts it, sums its weights and, in `ot`, finds its
cheapest table, each in its own semiring. The memo depends only on r,
so one fold serves every c of a Gram row. Two sums over the set:

* the weighted volume  T(r, c; K) = sum over tables X of prod k_ij^x_ij,
  a positive definite kernel in (r, c) whenever the entry-weight matrix
  K is positive semidefinite with nonnegative entries;
* the generating function  V(r, c; M) = sum over tables of exp(-<X, M>),
  the same quantity written through the cost matrix M = -log K.

The two are tied together by the soft minimum: V = exp(-softmin of the
table costs). With K identically one, T is the plain lattice point count.

The Fisher-Yates statistic of a table, n(X) = (prod r_i! prod c_j!) /
prod x_ij!, counts the permutations that induce the table when one
histogram's canonical sequence is matched against a shuffled copy of the
other's; summed over the table set it partitions N!.

Conventions: 0^0 = 1, and a zero table entry contributes nothing to a
cost even when the matching cost entry is +inf.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    ValidationError,
)
from .histograms import ContingencyTable, Histogram, require_compatible

DEFAULT_MAX_TABLES = 10_000_000


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the tables enumeration streams or the row compositions a fold visits."""

    max_tables: int = DEFAULT_MAX_TABLES

    def __post_init__(self) -> None:
        if int(self.max_tables) != self.max_tables or self.max_tables <= 0:
            raise ValidationError(
                f"budget must be a positive integer, got {self.max_tables!r}"
            )
        object.__setattr__(self, "max_tables", int(self.max_tables))


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Paired cost/weight matrices related entrywise by k = exp(-m).

    Exactly one side is supplied; the other is derived once at
    construction, so the pair stays consistent to the rounding of a
    single exp or log. Costs may contain +inf (zero weight); weights are
    finite and nonnegative.
    """

    cost: np.ndarray
    weight: np.ndarray
    origin: str

    def __post_init__(self) -> None:
        if self.origin not in ("cost", "weight"):
            raise ValidationError(f"origin must be 'cost' or 'weight': {self.origin!r}")
        for name in ("cost", "weight"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @classmethod
    def from_cost(cls, m) -> WeightSpec:
        m = np.array(m, dtype=float)
        _require_square(m)
        if np.isnan(m).any() or np.isneginf(m).any():
            raise ValidationError("cost entries must be reals or +inf")
        with np.errstate(over="ignore"):
            k = np.exp(-m)
        if np.isinf(k).any():
            i, j = np.argwhere(np.isinf(k))[0]
            raise ValidationError(
                f"cost entry ({i}, {j}) = {float(m[i, j])!r} gives weight exp(-m) "
                "beyond the float range; weights must be finite"
            )
        return cls(cost=m, weight=k, origin="cost")

    @classmethod
    def from_weight(cls, k) -> WeightSpec:
        k = np.array(k, dtype=float)
        _require_square(k)
        if not np.isfinite(k).all() or (k < 0).any():
            raise ValidationError("weight entries must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            m = -np.log(k)
        return cls(cost=m, weight=k, origin="weight")

    @property
    def d(self) -> int:
        return self.cost.shape[0]

    def is_symmetric(self, rel_tol: float = 1e-12) -> bool:
        k = self.weight
        scale = max(1.0, float(np.abs(k).max()))
        return float(np.abs(k - k.T).max()) <= rel_tol * scale


def _require_square(arr: np.ndarray) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"matrix must be square and nonempty, got shape {arr.shape}")


def require_matching_weights(r: Histogram, w: WeightSpec) -> None:
    if w.d != r.d:
        raise DimensionMismatchError(
            f"weight matrix is {w.d}x{w.d} but histograms have {r.d} bins"
        )


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield x with sum(x) == total and 0 <= x_j <= caps_j, ascending lexicographic."""
    d = len(caps)
    tail = [0] * (d + 1)
    for j in range(d - 1, -1, -1):
        tail[j] = tail[j + 1] + caps[j]
    x = [0] * d

    def rec(j: int, rem: int) -> Iterator[tuple[int, ...]]:
        if j == d - 1:
            if rem <= caps[j]:
                x[j] = rem
                yield tuple(x)
            return
        lo = max(0, rem - tail[j + 1])
        hi = min(rem, caps[j])
        for v in range(lo, hi + 1):
            x[j] = v
            yield from rec(j + 1, rem - v)

    return rec(0, total)


def enumerate_tables(
    r: Histogram, c: Histogram, budget: EnumerationBudget | None = None
) -> Iterator[ContingencyTable]:
    """Stream every table with margins (r, c) in row-major lexicographic order.

    Rows are filled top-down with bounded compositions of each row sum,
    so the flattened entry tuples ascend lexicographically. Raises
    BudgetExceededError instead of truncating when the stream would
    exceed the budget.
    """
    require_compatible(r, c)
    budget = budget if budget is not None else EnumerationBudget()
    return _table_stream(r, c, budget)


def _table_stream(
    r: Histogram, c: Histogram, budget: EnumerationBudget
) -> Iterator[ContingencyTable]:
    d = r.d
    rows: list[tuple[int, ...]] = []
    emitted = 0

    def rec(i: int, residual: tuple[int, ...]) -> Iterator[ContingencyTable]:
        nonlocal emitted
        if i == d - 1:
            # Mass conservation forces the last row.
            emitted += 1
            if emitted > budget.max_tables:
                raise BudgetExceededError(
                    f"more than {budget.max_tables} tables exist for margins "
                    f"{r} / {c}",
                    count_so_far=emitted - 1,
                )
            yield ContingencyTable(tuple(rows) + (residual,))
            return
        for x in _bounded_compositions(r.counts[i], residual):
            rows.append(x)
            yield from rec(i + 1, tuple(a - b for a, b in zip(residual, x)))
            rows.pop()

    return rec(0, c.counts)


def _cells(r: Histogram, mat: np.ndarray, value) -> list:
    """cell[i][j][e] = value(mat[i, j], e) for e up to the row sum r_i."""
    return [
        [[value(float(mat[i, j]), e) for e in range(n + 1)] for j in range(r.d)]
        for i, n in enumerate(r.counts)
    ]


def _fold(r: Histogram, cell, times, plus, zero):
    """fold(c, budget): `plus` over the tables of (r, c) of the `times` product of their cells.

    cell[i][j][e] is the value of e units in cell (i, j); products run in
    row-major order. The memo is keyed by (row i, residual column sums) and
    the last row is forced. It depends only on r, the cells and the
    semiring, so one memo serves every c folded against the same r. A row
    whose value equals `zero` is skipped with its subtree. More than
    budget.max_tables row compositions visited in one call raise
    BudgetExceededError; a memo hit left by an earlier call is free.
    """
    d = r.d
    memo: dict[tuple[int, tuple[int, ...]], object] = {}

    def fold(c: Histogram, budget: EnumerationBudget | None):
        cap = budget.max_tables if budget is not None else math.inf
        visited = 0

        def rec(i: int, residual: tuple[int, ...]):
            nonlocal visited
            row = cell[i]
            if i == d - 1:
                return reduce(times, map(list.__getitem__, row, residual))
            key = (i, residual)
            cached = memo.get(key)
            if cached is not None:
                return cached
            total = zero
            for x in _bounded_compositions(r.counts[i], residual):
                visited += 1
                if visited > cap:
                    msg = f"more than {cap} row compositions needed for margins {r} / {c}"
                    raise BudgetExceededError(msg, count_so_far=visited - 1)
                term = reduce(times, map(list.__getitem__, row, x))
                if term != zero:
                    sub = rec(i + 1, tuple(map(operator.sub, residual, x)))
                    total = plus(total, times(term, sub))
            memo[key] = total
            return total

        return rec(0, c.counts)

    return fold


def count_tables(r: Histogram, c: Histogram) -> int:
    """Exact number of tables with margins (r, c): the row fold over ints.

    Always equals the length of the enumeration stream.
    """
    require_compatible(r, c)
    cells = [[[1] * (n + 1)] * r.d for n in r.counts]
    return _fold(r, cells, operator.mul, operator.add, 0)(c, None)


def weighted_volume_row(
    r: Histogram,
    cs: Sequence[Histogram],
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> list[float]:
    """[T(r, c; K) for c in cs]: one row of a weighted-volume Gram matrix.

    Every c is folded against one memo for r, so the sums over the lower
    rows of the tables are shared across the row. Every partial product
    of the fold is at least kmin^N (kmin the smallest nonzero weight
    capped at 1, N the mass). While that bound is a normal float and no
    power k_ij^e overflows, the fold runs on the float powers; otherwise,
    and for any c whose float value is inf or NaN, it runs on log weights
    -e m_ij under logaddexp. 0^0 = 1 throughout. The budget caps the row
    compositions each c visits.
    """
    for c in cs:
        require_compatible(r, c)
    require_matching_weights(r, w)
    budget = budget if budget is not None else EnumerationBudget()
    fold = log_fold = None
    floor = float(w.weight[w.weight > 0.0].min(initial=1.0))
    if r.mass * math.log(floor) >= math.log(sys.float_info.min):
        try:
            cells = _cells(r, w.weight, lambda k, e: k**e)
            fold = _fold(r, cells, operator.mul, operator.add, 0.0)
        except OverflowError:
            pass
    values = []
    for c in cs:
        value = fold(c, budget) if fold is not None else math.inf
        if not value < math.inf:
            if log_fold is None:
                logs = _cells(r, -w.cost, lambda lk, e: lk * e if e else 0.0)
                log_fold = _fold(r, logs, operator.add, np.logaddexp, -math.inf)
            value = _safe_exp(log_fold(c, budget))
        values.append(value)
    return values


def weighted_volume(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """T(r, c; K): sum over all tables of the product of k_ij^x_ij.

    The one-column row of `weighted_volume_row`.
    """
    return weighted_volume_row(r, (c,), w, budget)[0]


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def generating_function(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """V(r, c; M): sum over all tables of exp(-<X, M>).

    Evaluated directly over the enumeration stream with an exactly
    rounded float sum. Equals the weighted volume under k = exp(-m) and
    exp(-softmin of the table costs); both identities are held to 1e-12
    relative by the test suite rather than by sharing code paths.
    """
    require_compatible(r, c)
    require_matching_weights(r, w)
    m = w.cost
    return math.fsum(
        _safe_exp(-table.cost(m)) for table in enumerate_tables(r, c, budget)
    )


def softmin(values) -> float:
    """Soft minimum -log(sum exp(-u_i)), stabilized by shifting at the minimum."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValidationError("softmin of an empty collection")
    lo = min(vals)
    if lo == math.inf:
        return math.inf
    if lo == -math.inf:
        return -math.inf
    return lo - math.log(math.fsum(math.exp(lo - v) for v in vals))


def fisher_yates(x: ContingencyTable) -> int:
    """Exact count of sequence matchings inducing the table.

    n(X) = (prod of row-sum factorials * prod of column-sum factorials)
    divided by the product of entry factorials; the division is exact
    for any table with consistent margins.
    """
    numerator = 1
    for v in x.row_sums.counts:
        numerator *= math.factorial(v)
    for v in x.col_sums.counts:
        numerator *= math.factorial(v)
    denominator = 1
    for row in x.entries:
        for v in row:
            if v > 1:
                denominator *= math.factorial(v)
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0, "inexact division: table margins are inconsistent"
    return quotient
