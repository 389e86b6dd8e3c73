"""Optimal transport baseline: exact minimum cost over integral tables.

The transportation problem between equal-mass integral histograms always
has an integral minimizer, so the exact optimum is the minimum of
<X, M> over the finite table set: the zero-temperature limit of the
softmin behind the weighted volume, computed by its recurrence in the
(min, +) semiring. For Monge costs (m_ij + m_kl <= m_il + m_kj for
i<k, j<l) the northwestern corner vertex is already optimal and no
recurrence runs. exp(-optimal cost) is a useful similarity but not
positive definite in general, hence the "pseudo" in its name.
`pseudo_kernel_pairs` prices a list of index pairs of a family and
checks the costs once: on Monge costs one staircase stream prices every
pair, otherwise each run of pairs with the same first index is one slab
of a recurrence whose stacked box consecutive runs share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .histograms import ContingencyTable, Histogram
from .northwest import _staircases, nw_table
from .polytope import (
    _MIN,
    EnumerationBudget,
    WeightSpec,
    _cheapest_table,
    _generating_values,
    _rows,
    _safe_exp,
    require_family,
)


@dataclass(frozen=True)
class TransportSolution:
    """An optimal plan and its cost under the cost matrix it was solved for."""

    plan: ContingencyTable
    cost: float


def monge_check(w: WeightSpec) -> bool:
    """True only for Monge costs: m_ij + m_kl <= m_il + m_kj for i<k, j<l.

    Checks that every adjacent 2x2 minor satisfies the inequality and
    that no +inf entry lies weakly south-west of one finite entry and
    weakly north-east of another. Then every quadruple whose anti-
    diagonal pair is finite spans a finite rectangle, and its inequality
    is the sum of the adjacent ones inside it; a quadruple with an
    infinite anti-diagonal entry holds trivially. Without +inf entries
    the test is exact. Costs whose +inf entries do lie between finite
    ones are reported as not Monge, even where the inequality holds, and
    take the recurrence.
    """
    m = w.cost
    with np.errstate(over="ignore"):
        adjacent = (m[:-1, :-1] + m[1:, 1:] <= m[:-1, 1:] + m[1:, :-1]).all()
    finite = np.isfinite(m)
    # Finite entries weakly north-east of, and weakly south-west of, each cell.
    north_east = np.logical_or.accumulate(
        np.logical_or.accumulate(finite[:, ::-1], axis=1)[:, ::-1], axis=0
    )
    south_west = np.logical_or.accumulate(
        np.logical_or.accumulate(finite[::-1], axis=0)[::-1], axis=1
    )
    return bool(adjacent and not (~finite & north_east & south_west).any())


def ot_cost(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> TransportSolution:
    """Exact minimum transport cost and a minimizing table.

    Monge costs take the O(d) corner-rule shortcut. Everything else runs
    the volume's recurrence in the (min, +) semiring, budgeted alike, so
    exact ties, infeasible costs included, resolve to the first table
    `enumerate_tables` streams; costs that differ only in rounding may
    compare either way.
    """
    require_family((r, c), w)
    m = w.cost
    if monge_check(w):
        plan = nw_table(r, c)
    else:
        plan = _cheapest_table(r, c, m, budget)
    return TransportSolution(plan, plan.cost(m))


def _corner_values(
    hs: Sequence[Histogram], pairs, m: np.ndarray, budget: EnumerationBudget | None
) -> Iterator[float]:
    """exp(-cost) of the corner vertex of each pair of hs, as ContingencyTable.cost sums it.

    The staircase visits cells in row-major order, so column adds left to
    right give that sum bit for bit; sum(axis=1) goes pairwise at 8 terms.
    The stream's pairs times 2d merge keys are checked against the budget.
    """
    identity = np.arange(len(m))[None, :]
    for priced in _staircases(hs, pairs, identity, m, budget):
        with np.errstate(over="ignore"):  # a sum too large for a float is inf
            total = functools.reduce(np.add, priced.T)
        yield from map(_safe_exp, (-total).tolist())


def pseudo_kernel_pairs(
    hs: Sequence[Histogram],
    pairs,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> Iterator[float]:
    """pseudo_kernel(hs[p], hs[q], w) for each index pair (p, q) of pairs, in order.

    The costs are checked for the Monge property once. On Monge costs
    one staircase stream prices the corner vertex of every pair, its
    segments summed in row-major order as ContingencyTable.cost sums them;
    more merge keys (pairs times 2d) than the budget, the default
    EnumerationBudget when None, raise BudgetExceededError before any key
    is built, and masses too large for the keys raise ValidationError. Other
    costs run the (min, +) recurrence with each run of consecutive pairs
    with the same p as one slab of a stacked box, under the rule of
    `polytope._boxes` and the default EnumerationBudget when budget is
    None, and read each pair's least cost from its slab; on
    real-valued costs that may differ in the last bits from the cost
    `ot_cost` reports for its plan. exp(-cost) overflowing gives inf. p
    and q index hs under the rule of `polytope._pair_index`.
    """
    require_family(hs, w)
    m = w.cost
    if monge_check(w):
        return _corner_values(hs, pairs, m, budget)
    stacks = _generating_values(_rows(hs, pairs), m, _MIN, budget)
    return (_safe_exp(-v) for stack in stacks for _, _, vs in stack for v in vs)


def pseudo_kernel(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """exp(-minimum cost): a similarity that is indefinite in general.

    Dominated term by term by the generating function over the same
    margins, since the optimum is one of the summed costs. The one-pair
    stream of `pseudo_kernel_pairs`.
    """
    return next(pseudo_kernel_pairs((r, c), [(0, 1)], w, budget))
