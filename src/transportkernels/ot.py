"""Optimal transport baseline: exact minimum cost over integral tables.

The transportation problem between equal-mass integral histograms always
has an integral minimizer, so the exact optimum is the minimum of
<X, M> over the finite table set: the zero-temperature limit of the
softmin behind the weighted volume, computed by its recurrence in the
(min, +) semiring. For Monge costs (m_ij + m_kl <= m_il + m_kj for
i<k, j<l) the northwestern corner vertex is already optimal and no
recurrence runs. exp(-optimal cost) is a useful similarity but not
positive definite in general, hence the "pseudo" in its name. Its row
form checks the costs once and shares the work that depends only on
the row histogram: one staircase merge on Monge costs, one box otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .histograms import ContingencyTable, Histogram, require_compatible
from .northwest import _staircases, nw_table
from .polytope import (
    EnumerationBudget,
    WeightSpec,
    _cheapest_tables,
    _safe_exp,
    require_matching_weights,
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
    require_compatible(r, c)
    require_matching_weights(r, w)
    m = w.cost
    if monge_check(w):
        plan = nw_table(r, c)
    else:
        (plan,) = _cheapest_tables(r, (c,), m, budget)
    return TransportSolution(plan, plan.cost(m))


def pseudo_kernel_row(
    r: Histogram,
    cs: Sequence[Histogram],
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> list[float]:
    """[pseudo_kernel(r, c, w) for c in cs]: one row of a pseudo-kernel Gram matrix.

    The cost matrix is checked for the Monge property once per row. On
    Monge costs every corner vertex of (r, c) is priced by one staircase
    merge over all of cs, and its nonzero segments are summed with fsum,
    exactly as ContingencyTable.cost prices the vertex; masses too large
    for the merge keys raise ValidationError. Other costs share the
    (min, +) recurrence boxes of the row and price each plan with its cost.
    exp(-cost) overflowing returns inf.
    """
    for c in cs:
        require_compatible(r, c)
    require_matching_weights(r, w)
    m = w.cost
    if monge_check(w):
        identity = np.arange(r.d)[None, :]
        blocks = _staircases(r, identity, cs, identity, m)
        costs = [math.fsum(segments) for priced in blocks for segments in priced.tolist()]
    else:
        costs = [plan.cost(m) for plan in _cheapest_tables(r, cs, m, budget)]
    return [_safe_exp(-cost) for cost in costs]


def pseudo_kernel(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """exp(-minimum cost): a similarity that is indefinite in general.

    Dominated term by term by the generating function over the same
    margins, since the optimum is one of the summed costs. The
    one-column row of `pseudo_kernel_row`.
    """
    return pseudo_kernel_row(r, (c,), w, budget)[0]
