import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    Histogram,
    WeightSpec,
    enumerate_tables,
    monge_check,
    nw_table,
    ot_cost,
    pseudo_kernel,
    weighted_volume,
)

from conftest import integer_monge_cost, random_pair, random_psd_weight


def total_variation_cost(d: int) -> WeightSpec:
    m = np.ones((d, d)) - np.eye(d)
    return WeightSpec.from_cost(m)


def test_monge_check_fixtures():
    # -i*j satisfies the quadruple inequality with equality margin 1
    d = 4
    i = np.arange(1, d + 1, dtype=float)
    assert monge_check(WeightSpec.from_cost(-np.outer(i, i)))
    # the 0/1 mismatch cost is not Monge beyond two bins
    assert not monge_check(total_variation_cost(3))
    assert monge_check(total_variation_cost(2))
    assert monge_check(WeightSpec.from_cost([[3.0]]))


def test_additively_separable_costs_are_monge():
    # integer-valued so the quadruple sums are exact in floating point
    rng = np.random.default_rng(2)
    f = rng.integers(0, 50, size=5).astype(float)
    g = rng.integers(0, 50, size=5).astype(float)
    assert monge_check(WeightSpec.from_cost(f[:, None] + g[None, :]))


def test_monge_fast_path_matches_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        r, c = random_pair(rng, d, int(rng.integers(1, 8)))
        w = integer_monge_cost(rng, d, lam=int(rng.integers(0, 3)))
        assert monge_check(w)
        sol = ot_cost(r, c, w)
        m = tuple(map(tuple, w.cost))
        best = min(t.cost(m) for t in enumerate_tables(r, c))
        assert sol.cost == best  # integer costs: exact equality
        assert sol.plan == nw_table(r, c)


def test_monge_solution_is_northwest_corner():
    r, c = Histogram((2, 5, 3)), Histogram((5, 1, 4))
    i = np.arange(1.0, 4.0)
    w = WeightSpec.from_cost(-np.outer(i, i))
    sol = ot_cost(r, c, w)
    assert sol.plan.entries == ((2, 0, 0), (3, 1, 1), (0, 0, 3))


def test_general_cost_scans_polytope():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        r, c = random_pair(rng, d, int(rng.integers(1, 7)))
        w = WeightSpec.from_cost(rng.random((d, d)) * 3.0)
        sol = ot_cost(r, c, w)
        m = tuple(map(tuple, w.cost))
        best = min(t.cost(m) for t in enumerate_tables(r, c))
        assert sol.cost == pytest.approx(best, rel=1e-15, abs=1e-15)
        assert sol.plan.row_sums.counts == r.counts
        assert sol.plan.col_sums.counts == c.counts
        assert sol.plan.cost(m) == sol.cost


def test_total_variation_closed_form():
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        r, c = random_pair(rng, d, int(rng.integers(0, 9)))
        w = total_variation_cost(d)
        expected = sum(abs(a - b) for a, b in zip(r.counts, c.counts)) / 2
        sol = ot_cost(r, c, w)
        assert sol.cost == expected
        tables = list(enumerate_tables(r, c))
        costs = [t.cost(w.cost) for t in tables]
        assert sol.plan == tables[costs.index(min(costs))]


def test_infeasible_non_monge_cost_is_inf():
    # the only table uses a +inf cell
    inf = float("inf")
    w = WeightSpec.from_cost([[0.0, 0.0, inf], [0.0, 9.0, 0.0], [inf, 0.0, 0.0]])
    assert not monge_check(w)
    r, c = Histogram((1, 0, 0)), Histogram((0, 0, 1))
    sol = ot_cost(r, c, w)
    assert sol.cost == inf
    assert sol.plan.entries == ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    assert pseudo_kernel(r, c, w) == 0.0


def test_pseudo_kernel_value():
    r, c = Histogram((1, 0)), Histogram((0, 1))
    w = WeightSpec.from_cost([[0.0, 2.0], [2.0, 0.0]])
    assert pseudo_kernel(r, c, w) == pytest.approx(math.exp(-2.0))
    assert pseudo_kernel(r, r, w) == 1.0


def test_pseudo_kernel_bounded_by_volume():
    # one summand of the full sum can never exceed the sum
    rng = np.random.default_rng(37)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        r, c = random_pair(rng, d, int(rng.integers(1, 7)))
        w = random_psd_weight(rng, d)
        assert pseudo_kernel(r, c, w) <= weighted_volume(r, c, w) * (1 + 1e-12)


def test_zero_mass_transport():
    r = Histogram((0, 0))
    sol = ot_cost(r, r, total_variation_cost(2))
    assert sol.cost == 0.0
    assert sol.plan.entries == ((0, 0), (0, 0))


@given(st.integers(2, 4), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_plan_always_feasible(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, c = random_pair(rng, d, mass)
    w = WeightSpec.from_cost(rng.random((d, d)))
    sol = ot_cost(r, c, w)
    assert sol.plan.row_sums.counts == r.counts
    assert sol.plan.col_sums.counts == c.counts


@given(st.integers(2, 4), st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_self_transport_is_free_for_zero_diagonal(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, _ = random_pair(rng, d, mass)
    m = rng.random((d, d)) + 0.5
    np.fill_diagonal(m, 0.0)
    assert ot_cost(r, r, WeightSpec.from_cost(m)).cost == 0.0
