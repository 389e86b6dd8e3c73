import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    BudgetExceededError,
    ContingencyTable,
    EnumerationBudget,
    Histogram,
    MassMismatchError,
    ValidationError,
    WeightSpec,
    count_tables,
    enumerate_tables,
    fisher_yates,
    generating_function,
    softmin,
    weighted_volume,
)
from transportkernels.testing import brute_force_pattern_counts

from conftest import random_pair, random_psd_weight


def test_weight_spec_roundtrip():
    w = WeightSpec.from_weight([[0.5, 1.0], [1.0, 0.25]])
    assert w.d == 2
    assert np.allclose(np.exp(-w.cost), w.weight)
    assert w.is_symmetric()
    w2 = WeightSpec.from_cost([[0.0, 1.0], [2.0, 0.0]])
    assert not w2.is_symmetric()


def test_weight_spec_validation():
    with pytest.raises(ValidationError):
        WeightSpec.from_weight([[-0.1]])
    with pytest.raises(ValidationError):
        WeightSpec.from_weight([[float("inf")]])
    with pytest.raises(ValidationError):
        WeightSpec.from_cost([[float("nan")]])
    with pytest.raises(ValidationError):
        WeightSpec.from_cost([[1.0, 2.0]])
    # +inf cost is legal: it is a zero weight
    w = WeightSpec.from_cost([[float("inf")]])
    assert w.weight[0, 0] == 0.0


def test_weight_arrays_are_frozen():
    w = WeightSpec.from_cost([[1.0]])
    with pytest.raises(ValueError):
        w.cost[0, 0] = 2.0


def test_enumeration_small_fixture():
    # the 2x2 polytope of [7,23] vs [12,18] has exactly 8 integer tables
    r, c = Histogram((7, 23)), Histogram((12, 18))
    tables = list(enumerate_tables(r, c))
    assert len(tables) == 8
    assert count_tables(r, c) == 8
    firsts = [t.entries[0][0] for t in tables]
    assert firsts == sorted(firsts)  # first row ascending lexicographic
    for t in tables:
        assert t.row_sums.counts == r.counts
        assert t.col_sums.counts == c.counts
    assert len(set(tables)) == 8


def test_enumeration_single_bin():
    tables = list(enumerate_tables(Histogram((4,)), Histogram((4,))))
    assert tables == [ContingencyTable(((4,),))]
    assert count_tables(Histogram((0, 0)), Histogram((0, 0))) == 1


def test_enumeration_validates_margins():
    with pytest.raises(MassMismatchError):
        list(enumerate_tables(Histogram((1, 2)), Histogram((2, 2))))


def test_budget_exceeded_carries_progress():
    r, c = Histogram((7, 23)), Histogram((12, 18))
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_tables(r, c, EnumerationBudget(max_tables=7)))
    assert exc.value.count_so_far == 7
    with pytest.raises(ValidationError):
        EnumerationBudget(max_tables=0)


def test_weighted_volume_respects_budget():
    r, c = Histogram((7, 23)), Histogram((12, 18))
    w = WeightSpec.from_weight([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(BudgetExceededError):
        weighted_volume(r, c, w, EnumerationBudget(max_tables=7))


def test_two_bin_volume_closed_form():
    # r=c=[1,1]: the polytope is the two permutation matrices
    a, b = 0.3, 1.7
    w = WeightSpec.from_weight([[a, b], [b, a]])
    r = Histogram((1, 1))
    assert weighted_volume(r, r, w) == pytest.approx(a * a + b * b, rel=1e-15)


def test_uniform_weight_counts_tables():
    rng = np.random.default_rng(7)
    ones = WeightSpec.from_weight(np.ones((3, 3)))
    for _ in range(10):
        r, c = random_pair(rng, 3, 6)
        assert weighted_volume(r, c, ones) == float(count_tables(r, c))


def test_volume_zero_weight_reduces_polytope():
    # zero weight forbids a cell unless the table leaves it empty
    r, c = Histogram((2, 1)), Histogram((1, 2))
    w = WeightSpec.from_weight([[1.0, 1.0], [1.0, 0.0]])
    # tables: [[1,1],[0,1]] uses the forbidden cell; [[0,2],[1,0]] does not
    assert weighted_volume(r, c, w) == pytest.approx(1.0)


def test_volume_matches_generating_function():
    rng = np.random.default_rng(21)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        r, c = random_pair(rng, d, int(rng.integers(2, 7)))
        w = random_psd_weight(rng, d)
        v = weighted_volume(r, c, w)
        g = generating_function(r, c, w)
        assert v == pytest.approx(g, rel=1e-12)


def test_volume_tiny_weight_matches_direct_sum():
    # a weight far below 1 keeps full relative accuracy against a direct sum
    r, c = Histogram((3, 2)), Histogram((2, 3))
    tiny = 1e-30
    w = WeightSpec.from_weight([[0.5, tiny], [0.25, 0.75]])
    direct = math.fsum(
        math.prod(w.weight[i, j] ** t.entries[i][j] for i in range(2) for j in range(2))
        for t in enumerate_tables(r, c)
    )
    assert weighted_volume(r, c, w) == pytest.approx(direct, rel=1e-10, abs=0)


def test_volume_large_mass_keeps_relative_accuracy():
    # a mass-70 product of weights below 1 comes back at full relative accuracy
    r, c = Histogram((70, 0)), Histogram((0, 70))
    w = WeightSpec.from_weight([[0.3, 0.5], [0.9, 0.1]])
    assert weighted_volume(r, c, w) == pytest.approx(0.5 ** 70, rel=1e-12, abs=0)


def test_volume_log_weights_when_powers_leave_float_range():
    # e^40 to the 20th power overflows a float; every table is worth exactly 1
    e = math.exp(1.0)
    w = WeightSpec.from_weight([[e ** 40, 1.0], [1.0, e ** -40]])
    r = Histogram((20, 20))
    assert weighted_volume(r, r, w) == pytest.approx(21.0, rel=1e-12)
    # 1e160 squared overflows in the first row, the total is about 1e168
    w = WeightSpec.from_weight([[1e160, 1.0], [1.0, 1e-76]])
    r = Histogram((2, 2))
    v = weighted_volume(r, r, w)
    assert 1e167 < v < math.inf
    assert v == pytest.approx(generating_function(r, r, w), rel=1e-12, abs=0)


def test_volume_intermediate_underflow_keeps_dominant_term():
    # (1e-170)^2 underflows to 0 in the first row, yet its table is worth
    # 1e-32 and dominates the 1e-216 of the only other nonzero table
    w = WeightSpec.from_weight([[1e-170, 1e-100], [1e-100, 1e154]])
    r = Histogram((2, 2))
    v = weighted_volume(r, r, w)
    assert v == pytest.approx(generating_function(r, r, w), rel=1e-12, abs=0)
    assert v == pytest.approx(1e-32, rel=1e-12, abs=0)


def test_volume_and_transport_never_enumerate(monkeypatch):
    import transportkernels.ot as ot
    import transportkernels.polytope as polytope

    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_tables called")

    monkeypatch.setattr(polytope, "enumerate_tables", refuse)
    assert not hasattr(ot, "enumerate_tables")
    r, c = Histogram((4, 3, 2, 1)), Histogram((1, 2, 3, 4))
    d = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    forbidden = WeightSpec.from_cost(np.where(d > 2, np.inf, 0.5 * d))
    assert weighted_volume(r, c, forbidden) > 0.0
    rng = np.random.default_rng(3)
    scan = WeightSpec.from_cost(rng.random((4, 4)))
    assert not ot.monge_check(scan)
    assert ot.ot_cost(r, c, scan).plan.col_sums.counts == c.counts


def test_softmin_identities():
    assert softmin((3.0,)) == 3.0
    u = (1.0, 1.0)
    assert softmin(u) == pytest.approx(1.0 - math.log(2.0))
    assert softmin((0.0, float("inf"))) == 0.0
    assert softmin((float("inf"), float("inf"))) == float("inf")
    # shift equivariance: softmin(u + s) = softmin(u) + s
    vals = (0.2, 1.4, 3.8)
    shifted = tuple(v + 5.0 for v in vals)
    assert softmin(shifted) == pytest.approx(softmin(vals) + 5.0, rel=1e-15)
    assert softmin(vals) <= min(vals)


def test_generating_function_is_exp_neg_softmin():
    rng = np.random.default_rng(5)
    r, c = random_pair(rng, 3, 5)
    w = random_psd_weight(rng, 3)
    costs = tuple(t.cost(tuple(map(tuple, w.cost))) for t in enumerate_tables(r, c))
    assert generating_function(r, c, w) == pytest.approx(
        math.exp(-softmin(costs)), rel=1e-12
    )


def test_fisher_yates_values():
    # r=(1,1), c=(1,1): each permutation matrix has count 1!1!/(1!1!) = 1
    assert fisher_yates(ContingencyTable(((1, 0), (0, 1)))) == 1
    # r=(2,1), c=(2,1): 2!1!2!1!/(1!1!1!0!) = 4
    assert fisher_yates(ContingencyTable(((1, 1), (1, 0)))) == 4
    assert isinstance(fisher_yates(ContingencyTable(((3, 1), (0, 2)))), int)


def test_fisher_yates_partitions_factorial():
    # summed over the polytope, the counts account for every way of pairing
    # two sequences position by position: exactly N! arrangements
    for r_counts, c_counts in (((1, 1), (1, 1)), ((2, 1), (1, 2)), ((2, 2), (3, 1))):
        r, c = Histogram(r_counts), Histogram(c_counts)
        n = r.mass
        assert sum(fisher_yates(t) for t in enumerate_tables(r, c)) == math.factorial(n)


def test_brute_force_pattern_counts_match_fisher_yates():
    r, c = Histogram((2, 1)), Histogram((1, 2))
    counts = brute_force_pattern_counts(r, c)
    assert sum(counts.values()) == math.factorial(3)
    for table, hits in counts.items():
        assert hits == fisher_yates(table)


@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration_length(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, c = random_pair(rng, d, mass)
    assert count_tables(r, c) == len(list(enumerate_tables(r, c)))


@given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_fisher_yates_partition_property(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, c = random_pair(rng, d, mass)
    total = sum(fisher_yates(t) for t in enumerate_tables(r, c))
    assert total == math.factorial(mass)


def test_fisher_yates_is_exact_rational_inverse():
    x = ContingencyTable(((2, 0, 1), (1, 1, 0), (0, 2, 1)))
    n = fisher_yates(x)
    direct = Fraction(
        math.prod(math.factorial(s) for s in x.row_sums.counts)
        * math.prod(math.factorial(s) for s in x.col_sums.counts),
        math.prod(math.factorial(e) for row in x.entries for e in row),
    )
    assert Fraction(n, 1) == direct
