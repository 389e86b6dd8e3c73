"""Optimal transport baseline: exact minimum cost over integral tables.

The transportation problem between equal-mass integral histograms always
has an integral minimizer, so the exact optimum is the minimum of
<X, M> over the finite table set: the zero-temperature limit of the
softmin behind the weighted volume, computed by the same row fold in
the (min, +) semiring. For Monge costs (submodular: adjacent 2x2 minors
tilt toward the diagonal) the northwestern corner vertex is already
optimal and no fold runs. exp(-optimal cost) is a useful similarity but
not positive definite in general, hence the "pseudo" in its name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .histograms import ContingencyTable, Histogram, require_compatible
from .northwest import nw_table
from .polytope import (
    EnumerationBudget,
    WeightSpec,
    _cells,
    _fold,
    require_matching_weights,
)


@dataclass(frozen=True)
class TransportSolution:
    """An optimal plan and its cost under the cost matrix it was solved for."""

    plan: ContingencyTable
    cost: float


def monge_check(w: WeightSpec) -> bool:
    """True iff the cost matrix is Monge: m_ij + m_kl <= m_il + m_kj for i<k, j<l.

    Checking adjacent quadruples (k = i+1, l = j+1) is sufficient; the
    general inequality follows by summing adjacent ones.
    """
    m = w.cost
    d = w.d
    for i in range(d - 1):
        for j in range(d - 1):
            if m[i, j] + m[i + 1, j + 1] > m[i, j + 1] + m[i + 1, j]:
                return False
    return True


def ot_cost(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> TransportSolution:
    """Exact minimum transport cost and a minimizing table.

    Monge costs take the O(d) corner-rule shortcut. Everything else runs
    the row fold in the (min, +) semiring over (cost, row-major entries)
    pairs, so exact ties of the fold's sums, infeasible costs included,
    resolve to the lexicographically earliest table; costs that differ
    only in rounding may compare either way.
    """
    require_compatible(r, c)
    require_matching_weights(r, w)
    m = w.cost
    if monge_check(w):
        plan = nw_table(r, c)
    else:
        budget = budget if budget is not None else EnumerationBudget()
        cells = _cells(r, m, lambda cost, e: (cost * e if e else 0.0, (e,)))
        # (inf, (inf,)) sorts after every (cost, entries) pair: the identity of min.
        _, flat = _fold(r, c, cells, _concat, min, (math.inf, (math.inf,)), budget)
        plan = ContingencyTable(tuple(flat[i : i + r.d] for i in range(0, len(flat), r.d)))
    return TransportSolution(plan, plan.cost(m))


def _concat(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1])


def pseudo_kernel(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """exp(-minimum cost): a similarity that is indefinite in general.

    Dominated term by term by the generating function over the same
    margins, since the optimum is one of the summed costs.
    """
    solution = ot_cost(r, c, w, budget)
    try:
        return math.exp(-solution.cost)
    except OverflowError:
        return math.inf
