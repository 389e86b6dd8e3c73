import builtins
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from transportkernels import (
    BudgetExceededError,
    EnumerationBudget,
    Histogram,
    ValidationError,
    WeightSpec,
    enumerate_tables,
    monge_check,
    nw_table,
    ot_cost,
    pseudo_kernel,
    pseudo_kernel_pairs,
    weighted_volume,
)
from transportkernels import northwest, polytope

from conftest import integer_monge_cost, random_histogram, random_pair, random_psd_weight


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


def _monge_by_definition(m) -> bool:
    d = len(m)
    return all(
        m[i][j] + m[k][l] <= m[i][l] + m[k][j]
        for i in range(d) for k in range(i + 1, d) for j in range(d) for l in range(j + 1, d)
    )


def test_monge_check_against_definition():
    # integer costs keep every sum exact; with +inf entries the check may
    # only err on the side of the exact plan search, never take an unsound shortcut
    rng = np.random.default_rng(43)
    verdicts = {(finite, v): 0 for finite in (True, False) for v in (True, False)}
    for trial in range(400):
        d = int(rng.integers(1, 7))
        m = integer_monge_cost(rng, d, lam=int(rng.integers(0, 3))).cost.copy()
        if trial % 4 == 1:
            m[rng.integers(d), rng.integers(d)] += rng.integers(-3, 4)
        if trial % 4 == 2:
            m[rng.random((d, d)) < 0.3] = np.inf
        if trial % 4 == 3:
            gap = np.subtract.outer(np.arange(d), np.arange(d))
            m[np.abs(gap) > int(rng.integers(0, 3))] = np.inf
        expected = _monge_by_definition(m.tolist())
        got = monge_check(WeightSpec.from_cost(m))
        finite = bool(np.isfinite(m).all())
        if finite:
            assert got == expected
        else:
            assert expected or not got
        verdicts[finite, got] += 1
    assert min(verdicts.values()) > 0


def test_monge_check_rejects_inf_between_finite_entries():
    # every adjacent minor holds (each touches an +inf column or row), yet
    # 1 + 1 > 0 + 0 on rows 0, 1 and columns 0, 2: the corner vertex costs 2
    # where the optimum costs 0
    inf = math.inf
    m = [[1.0, inf, 0.0], [0.0, inf, 1.0], [inf, inf, inf]]
    w = WeightSpec.from_cost(m)
    assert not _monge_by_definition(m)
    assert not monge_check(w)
    r, c = Histogram((1, 1, 0)), Histogram((1, 0, 1))
    assert ot_cost(r, c, w).cost == 0.0
    assert pseudo_kernel(r, c, w) == 1.0


def _corner_value(r, c, w) -> float:
    try:
        return math.exp(-nw_table(r, c).cost(w.cost))
    except OverflowError:
        return math.inf


def test_monge_pseudo_row_matches_corner_vertex():
    # the staircase merge reproduces exp(-<M, corner vertex>) bit for bit
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(20):
        d = int(rng.integers(1, 7))
        mass = int(rng.integers(0, 30))
        cases.append(([random_histogram(rng, d, mass) for _ in range(8)],
                      integer_monge_cost(rng, d, lam=int(rng.integers(0, 3)))))
    for _ in range(10):
        # real costs, where only a sum in the table's row-major order matches the vertex
        d = int(rng.integers(3, 9))
        x = np.arange(d) + 0.5 * rng.random(d)
        lam = rng.random() + 0.1
        m = 3.0 * rng.random((d, 1)) + 3.0 * rng.random((1, d)) - lam * np.outer(x, x)
        mass = int(rng.integers(5, 40))
        hists = [random_histogram(rng, d, mass) for _ in range(8)]
        cases.append((hists, WeightSpec.from_cost(m)))
    i = np.arange(5)
    gap = np.subtract.outer(i, i).astype(float)
    # +inf band beyond |i - j| = 1, real costs; negative costs whose exp overflows
    cases.append(([random_histogram(rng, 5, 9) for _ in range(8)],
                  WeightSpec.from_cost(np.where(np.abs(gap) > 1, np.inf, 0.3 * gap**2))))
    cases.append(([random_histogram(rng, 5, 9) for _ in range(8)],
                  WeightSpec.from_cost(-40.0 * np.outer(i, i) + 0.1 * gap**2)))
    cases.append(([Histogram((0,) * 4)] * 3, integer_monge_cost(rng, 4, lam=1)))
    seen = set()
    for hists, w in cases:
        assert monge_check(w)
        for p, r in enumerate(hists):
            row = list(pseudo_kernel_pairs(hists, [(p, q) for q in range(p, len(hists))], w))
            expected = [_corner_value(r, c, w) for c in hists[p:]]
            assert row == expected
            assert row == [pseudo_kernel(r, c, w) for c in hists[p:]]
            seen.update("inf" if v == math.inf else "0" if v == 0.0 else "finite" for v in row)
    assert seen == {"inf", "0", "finite"}


def test_monge_pseudo_row_spans_pair_blocks(monkeypatch):
    # three pairs per block: a row of eight columns takes three blocks
    rng = np.random.default_rng(67)
    w = integer_monge_cost(rng, 4, lam=2)
    assert monge_check(w)
    hists = [random_histogram(rng, 4, 11) for _ in range(8)]
    expected = [_corner_value(hists[0], c, w) for c in hists]
    monkeypatch.setattr(northwest, "BLOCK", 2 * 4 * 3)
    assert list(pseudo_kernel_pairs(hists, [(0, q) for q in range(8)], w)) == expected


def test_monge_pseudo_stream_is_capped_by_its_merge_keys():
    # 8 pairs of one corner vertex at d = 4: 8 * 8 = 64 merge keys
    rng = np.random.default_rng(69)
    w = integer_monge_cost(rng, 4, lam=1)
    assert monge_check(w)
    hists = [random_histogram(rng, 4, 11) for _ in range(8)]
    pairs = [(0, q) for q in range(8)]
    expected = [_corner_value(hists[0], c, w) for c in hists]
    assert list(pseudo_kernel_pairs(hists, pairs, w, EnumerationBudget(64))) == expected
    with pytest.raises(BudgetExceededError, match="need 64 merge keys, more than 63"):
        next(pseudo_kernel_pairs(hists, pairs, w, EnumerationBudget(63)))


def test_non_monge_pseudo_row_matches_transport():
    # ties from integer costs, and +inf cells that make some pairs infeasible
    rng = np.random.default_rng(61)
    seen_zero = False
    for trial in range(30):
        d = int(rng.integers(2, 5))
        m = rng.integers(0, 3, size=(d, d)).astype(float)
        if trial % 2:
            m[rng.random((d, d)) < 0.4] = np.inf
        w = WeightSpec.from_cost(m)
        if monge_check(w):
            continue
        mass = int(rng.integers(1, 7))
        hists = [random_histogram(rng, d, mass) for _ in range(6)]
        for p, r in enumerate(hists):
            row = list(pseudo_kernel_pairs(hists, [(p, q) for q in range(p, len(hists))], w))
            assert row == [math.exp(-ot_cost(r, c, w).cost) for c in hists[p:]]
            assert row == [pseudo_kernel(r, c, w) for c in hists[p:]]
            seen_zero = seen_zero or 0.0 in row
    assert seen_zero


def test_non_monge_pseudo_on_real_costs_matches_transport_to_rounding():
    # off Monge the pseudo value is the least cost the (min, +) box holds,
    # summed in its own order, so on real costs it may differ from
    # exp(-cost of the plan) in the last bits, never by more
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        w = WeightSpec.from_cost(rng.random((d, d)) * 3.0)
        if monge_check(w):
            continue
        r, c = random_pair(rng, d, int(rng.integers(1, 7)))
        assert pseudo_kernel(r, c, w) == pytest.approx(
            math.exp(-ot_cost(r, c, w).cost), rel=1e-12, abs=0
        )
        checked += 1
    assert checked


def test_monge_cost_whose_sum_overflows_is_inf():
    # two finite cells of the corner vertex add past the float range
    w = WeightSpec.from_cost(np.full((2, 2), 1e308))
    assert monge_check(w)
    r = Histogram((1, 1))
    assert ot_cost(r, r, w).cost == math.inf
    assert pseudo_kernel(r, r, w) == 0.0
    assert list(pseudo_kernel_pairs([r, r], [(0, 1), (1, 1)], w)) == [0.0, 0.0]


def test_monge_pseudo_rejects_mass_beyond_keys():
    # like nw_kernel, the staircase merge needs the mass to fit 64-bit keys
    w = WeightSpec.from_cost([[0.0, 1.0], [1.0, 0.0]])
    r = Histogram((2**62, 2**62))
    assert monge_check(w)
    with pytest.raises(ValidationError):
        pseudo_kernel(r, r, w)
    with pytest.raises(ValidationError):
        list(pseudo_kernel_pairs([r, r, r], [(0, 1), (0, 2)], w))
    # the corner vertex alone (|R| = 1) spends bit_length(2 * 3 - 1) = 3 bits
    # past the mass at d=2: 2**60 - 1 is the largest that fits
    half = 2**59
    r, c = Histogram((half, half - 1)), Histogram((half + 5, half - 6))
    assert nw_table(r, c).cost(w.cost) == 5.0
    assert pseudo_kernel(r, c, w) == math.exp(-5.0)
    assert list(pseudo_kernel_pairs([r, c], [(0, 1), (1, 0), (0, 0)], w)) == [
        math.exp(-5.0),
        math.exp(-5.0),
        1.0,
    ]
    r, c = Histogram((half, half)), Histogram((half + 5, half - 5))
    with pytest.raises(ValidationError, match="needs 64 bits"):
        pseudo_kernel(r, c, w)


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


@st.composite
def _off_monge_families(draw):
    """A family under costs that are not Monge, with +inf entries and ties."""
    d = draw(st.integers(2, 5))
    mass = draw(st.integers(0, 8))

    def histogram():
        units = draw(st.lists(st.integers(0, d - 1), min_size=mass, max_size=mass))
        return Histogram(tuple(units.count(j) for j in range(d)))

    hists = [histogram() for _ in range(draw(st.integers(1, 6)))]
    entries = st.sampled_from([0.0, 1.0, 0.25, 2.5, math.inf])
    m = draw(st.lists(entries, min_size=d * d, max_size=d * d))
    return hists, WeightSpec.from_cost(np.reshape(m, (d, d)))


@given(_off_monge_families())
@settings(max_examples=150, deadline=None)
def test_stacked_pseudo_matches_one_pair_values(case):
    # the (min, +) rows of a family share stacked boxes; each value is bit
    # for bit the one its pair gets alone
    hists, w = case
    assume(not monge_check(w))
    pairs = [(p, q) for p in range(len(hists)) for q in range(p, len(hists))]
    values = list(pseudo_kernel_pairs(hists, pairs, w))
    assert values == [pseudo_kernel(hists[p], hists[q], w) for p, q in pairs]


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


@st.composite
def _small_transport_cases(draw):
    d = draw(st.integers(2, 4))
    mass = draw(st.integers(0, 6))
    costs = st.sampled_from([0.0, 1.0, 2.0, math.inf])
    m = draw(st.lists(costs, min_size=d * d, max_size=d * d))

    def histogram():
        units = draw(st.lists(st.integers(0, d - 1), min_size=mass, max_size=mass))
        return Histogram(tuple(units.count(j) for j in range(d)))

    return histogram(), histogram(), np.reshape(m, (d, d))


# every table crosses the +inf top row, so all of them tie at +inf, while
# the rows below have a cheaper completion than the first table's
@example((Histogram((1, 1, 1)), Histogram((1, 1, 1)),
          np.array([[math.inf] * 3, [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])))
@given(_small_transport_cases())
@settings(max_examples=150, deadline=None)
def test_plan_is_first_least_cost_table(case):
    # integer costs keep every sum exact, so ties are real ties
    r, c, m = case
    w = WeightSpec.from_cost(m)
    assume(not monge_check(w))
    tables = list(enumerate_tables(r, c))
    costs = [t.cost(m) for t in tables]
    sol = ot_cost(r, c, w)
    assert sol.plan == tables[costs.index(min(costs))]
    assert sol.cost == min(costs)


def _compensated_sum(items, start=0):
    """Neumaier-compensated float sum, as builtin sum() adds floats from Python 3.12."""
    items = list(items)
    if not items or not all(type(v) is float for v in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for v in items:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_plan_search_adds_row_costs_left_to_right(monkeypatch):
    # Two plans cost 2.6 as ContingencyTable.cost adds, left to right; a
    # compensated row sum in the search told them apart and chose the later.
    monkeypatch.setattr(polytope, "sum", _compensated_sum, raising=False)
    m = np.array([[0.8, 0.9, 0.6], [0.3, 0.1, 0.6], [0.2, 0.3, 0.4]])
    r, c = Histogram((3, 0, 1)), Histogram((1, 2, 1))
    w = WeightSpec.from_cost(m)
    assert not monge_check(w)
    tables = list(enumerate_tables(r, c))
    costs = [t.cost(m) for t in tables]
    sol = ot_cost(r, c, w)
    assert sol.plan.entries == ((0, 2, 1), (0, 0, 0), (1, 0, 0))
    assert sol.plan == tables[costs.index(min(costs))]
    assert sol.cost == min(costs) == 2.6
