import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    BudgetExceededError,
    ContingencyTable,
    EntryError,
    EnumerationBudget,
    Histogram,
    MassMismatchError,
    ValidationError,
    WeightSpec,
    build_gram,
    count_tables,
    enumerate_tables,
    fisher_yates,
    generating_function,
    psd_weight_check,
    softmin,
    weighted_volume,
    weighted_volume_pairs,
)
from transportkernels.testing import brute_force_pattern_counts

from conftest import random_histogram, random_pair, random_psd_weight


def test_weight_spec_roundtrip():
    w = WeightSpec.from_weight([[0.5, 1.0], [1.0, 0.25]])
    assert w.d == 2
    assert np.allclose(np.exp(-w.cost), w.weight)
    # the symmetry check of K: within 1e-12 relative it certifies the mirror mean
    near = WeightSpec.from_weight([[0.5, 1.0 + 1e-13], [1.0, 0.25]])
    expected = psd_weight_check(w).min_eigenvalue
    assert psd_weight_check(near).min_eigenvalue == pytest.approx(expected, rel=1e-12)
    w2 = WeightSpec.from_cost([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="weight matrix asymmetry"):
        psd_weight_check(w2)


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


def test_weight_spec_rejects_costs_whose_weight_overflows():
    # exp(800) is beyond the float range; exp(700) is not
    with pytest.raises(ValidationError, match=r"cost entry \(0, 0\) = -800.0"):
        WeightSpec.from_cost([[-800.0, 0.0], [0.0, 0.0]])
    w = WeightSpec.from_cost([[-700.0, 0.0], [0.0, 0.0]])
    assert w.weight[0, 0] == np.exp(700.0)


@pytest.mark.parametrize(
    "make, matrix, entry, message",
    [
        (WeightSpec.from_cost, [[0.0, -800.0], [np.nan, -np.inf]], (1, 0),
         "cost entries must be reals or +inf"),
        (WeightSpec.from_cost, [[0.0, 1.0], [-800.0, -900.0]], (1, 0),
         "cost entry (1, 0) = -800.0 gives weight exp(-m) beyond the float range"),
        (WeightSpec.from_weight, [[1.0, np.inf], [-1.0, np.nan]], (0, 1),
         "weight entries must be finite and nonnegative"),
    ],
    ids=["cost-nan-after-overflow", "cost-overflow", "weight"],
)
def test_weight_spec_names_the_first_refused_entry(make, matrix, entry, message):
    # row-major order; a NaN or -inf cost is refused before an overflowing one
    with pytest.raises(EntryError) as exc:
        make(matrix)
    assert exc.value.entry == entry
    assert str(exc.value).startswith(message)


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
    stream = enumerate_tables(r, c, EnumerationBudget(cap=7))
    assert len(list(itertools.islice(stream, 7))) == 7
    with pytest.raises(BudgetExceededError, match="more than 7 tables"):
        next(stream)
    for bad in (0, True, "a", float("nan"), None, float("inf")):
        with pytest.raises(ValidationError):
            EnumerationBudget(cap=bad)


def test_weighted_volume_respects_budget():
    # the box e <= (12, 18) has 13 * 19 cells, scanned once per cell of the
    # two nonempty rows: 4 * 247 = 988 cell updates
    r, c = Histogram((7, 23)), Histogram((12, 18))
    w = WeightSpec.from_weight([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(BudgetExceededError, match="need 988 cell updates, more than 987"):
        weighted_volume(r, c, w, EnumerationBudget(cap=987))
    assert weighted_volume(r, c, w, EnumerationBudget(cap=988)) == 8.0
    # with (30, 0) beside it the shared box e <= (30, 18) needs 4 * 589 = 2356;
    # below that each column gets its own box, and (30, 0) needs only 2 * 31
    hs, row = [r, c, Histogram((30, 0))], [(0, 1), (0, 2)]
    with pytest.raises(BudgetExceededError):
        list(weighted_volume_pairs(hs, row, w, EnumerationBudget(cap=987)))
    for cap in (988, 2355, 2356):
        values = weighted_volume_pairs(hs, row, w, EnumerationBudget(cap=cap))
        assert list(values) == [8.0, 1.0]


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


def test_volume_runs_in_floats_below_the_old_log_floor(monkeypatch):
    # kmin^N = e^-720 is below the float minimum; the balanced float pass
    # vouches for every pair, so the log recurrence never runs
    import transportkernels.polytope as polytope

    def refuse(*args):
        raise AssertionError("_log_volumes called")

    monkeypatch.setattr(polytope, "_log_volumes", refuse)
    gap = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    w = WeightSpec.from_cost(30.0 * gap)
    assert w.weight.min() ** 8 < np.finfo(float).tiny
    counts = ((8, 0, 0, 0), (2, 2, 2, 2), (0, 1, 3, 4), (5, 0, 0, 3), (1, 4, 2, 1), (0, 0, 1, 7))
    hs = [Histogram(h) for h in counts]
    values = list(weighted_volume_pairs(hs, _triangle(len(hs)), w))
    for (p, q), v in zip(_triangle(len(hs)), values):
        assert v == pytest.approx(generating_function(hs[p], hs[q], w), rel=1e-12, abs=0)


def test_volume_redoes_in_logs_only_pairs_below_the_trust_bound(monkeypatch):
    # balanced, the weights are 1 and 2^-900: (2, 0) / (0, 2) is worth
    # 2^-1800 times the lift 2^512, which is 0.0 in floats, while its
    # volume 2^-800 is a normal float; every other pair is kept
    import transportkernels.polytope as polytope

    redone = []
    log_volumes = polytope._log_volumes

    def recorded(runs, *args):
        redone.extend((r.counts, [c.counts for c in cs]) for r, cs in runs)
        return log_volumes(runs, *args)

    monkeypatch.setattr(polytope, "_log_volumes", recorded)
    w = WeightSpec.from_weight([[2.0**500, 2.0**-400], [2.0**-400, 2.0**500]])
    hs = [Histogram((2, 0)), Histogram((0, 2)), Histogram((1, 1))]
    values = list(weighted_volume_pairs(hs, _triangle(3), w))
    assert redone == [((2, 0), [(0, 2)])]
    for (p, q), v in zip(_triangle(3), values):
        assert v == pytest.approx(generating_function(hs[p], hs[q], w), rel=1e-12, abs=0)
    assert values[1] == pytest.approx(2.0**-800, rel=1e-12, abs=0)


def _family(d: int, mass: int) -> list[Histogram]:
    """Every histogram with d bins and the given mass."""
    counts = itertools.product(range(mass + 1), repeat=d)
    return [Histogram(t) for t in counts if sum(t) == mass]


def _volume_row_cases():
    rng = np.random.default_rng(89)
    for _ in range(12):
        d = int(rng.integers(2, 5))
        mass = int(rng.integers(0, 7))
        yield [random_histogram(rng, d, mass) for _ in range(6)], random_psd_weight(rng, d)
    e = math.exp(1.0)
    # kmin^N below the normal range: balanced, the weights lie between
    # 2^-613 and 1, and the values beyond the float range come back inf
    yield _family(2, 6), WeightSpec.from_weight([[1e-170, 1e-100], [1e-100, 1e154]])
    # (e^40)^20 overflows unbalanced; balanced, no table is worth less than 2^-20
    yield _family(2, 20), WeightSpec.from_weight([[e**40, 1.0], [1.0, e**-40]])
    # the (2, 0) column is beyond the float range once scaled back: inf
    yield _family(2, 2), WeightSpec.from_weight([[1e300, 1.0], [1e10, 1e-5]])
    # forbidden pairs: +inf cost beyond the band |i - j| <= 1
    gap = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    yield _family(4, 4), WeightSpec.from_cost(np.where(gap > 1, np.inf, 0.5 * gap))


def test_volume_row_matches_pairs():
    for hists, w in _volume_row_cases():
        for p, r in enumerate(hists):
            row = list(weighted_volume_pairs(hists, [(p, q) for q in range(p, len(hists))], w))
            assert row == [weighted_volume(r, c, w) for c in hists[p:]]


def test_volume_row_reruns_only_overflowing_columns():
    # the other columns keep the float recurrence's exact sums, which the log
    # recurrence would miss in the last digits (1.000000000000024e+295)
    w = WeightSpec.from_weight([[1e300, 1.0], [1e10, 1e-5]])
    r = Histogram((1, 1))
    hs = [r, Histogram((2, 0)), r, Histogram((0, 2))]
    row = list(weighted_volume_pairs(hs, [(0, 1), (0, 2), (0, 3)], w))
    assert row == [math.inf, 1e10 + 1e300 * 1e-5, 1.0 * 1e-5]


def _triangle(m: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(m) for q in range(p, m)]


@st.composite
def _stacked_families(draw):
    """A family whose rows are empty in some histograms and not in others,
    under weights that include zeros and exact ones."""
    d = draw(st.integers(1, 5))
    mass = draw(st.integers(0, 8))

    def histogram():
        units = draw(st.lists(st.integers(0, d - 1), min_size=mass, max_size=mass))
        return Histogram(tuple(units.count(j) for j in range(d)))

    hists = [histogram() for _ in range(draw(st.integers(1, 6)))]
    entries = st.sampled_from([0.0, 1.0, 0.25, 0.7, 3.0])
    k = draw(st.lists(entries, min_size=d * d, max_size=d * d))
    return hists, WeightSpec.from_weight(np.reshape(k, (d, d)))


@given(_stacked_families())
@settings(max_examples=150, deadline=None)
def test_stacked_volume_matches_one_pair_values(case):
    # the rows of a family share stacked boxes; each value is bit for bit the
    # one its pair gets alone
    hists, w = case
    values = list(weighted_volume_pairs(hists, _triangle(len(hists)), w))
    assert values == [weighted_volume(hists[p], hists[q], w) for p, q in _triangle(len(hists))]


def test_stacked_volume_matches_one_pair_values_on_log_and_edge_families():
    # weights far from 1, pairs beyond the float range beside finite ones,
    # forbidden pairs, one bin and zero mass
    cases = list(_volume_row_cases()) + [
        ([Histogram((n,)) for n in (5, 5, 5)], WeightSpec.from_weight([[0.7]])),
        ([Histogram((0, 0, 0))] * 3, random_psd_weight(np.random.default_rng(2), 3)),
    ]
    for hists, w in cases:
        values = list(weighted_volume_pairs(hists, _triangle(len(hists)), w))
        assert values == [weighted_volume(hists[p], hists[q], w) for p, q in _triangle(len(hists))]


def test_budget_between_row_and_stack_boxes_splits_the_stack(monkeypatch):
    # every weight is nonzero, so each nonempty row passes once per axis of
    # extent > 0: row p alone needs prod(e_j + 1) * passes over the box
    # e <= max over its columns; the six rows together need more
    import transportkernels.polytope as polytope

    rng = np.random.default_rng(23)
    hists = [random_histogram(rng, 3, 5) for _ in range(6)]
    w = random_psd_weight(rng, 3)
    pairs = _triangle(6)

    def updates(rows, cols):
        extent = [max(c.counts[j] for c in cols) for j in range(3)]
        passes = sum(sum(1 for e in extent if e) or 1
                     for i in range(3) if any(r.counts[i] for r in rows))
        return len(rows) * math.prod(e + 1 for e in extent) * passes

    alone = max(updates([hists[p]], hists[p:]) for p in range(6))
    together = updates(hists, hists)
    assert alone < together
    heights = []
    sweep = polytope._sweep

    def recorded_sweep(counts, *args):
        heights.append(len(counts))
        return sweep(counts, *args)

    monkeypatch.setattr(polytope, "_sweep", recorded_sweep)
    whole = list(weighted_volume_pairs(hists, pairs, w, EnumerationBudget(together)))
    assert heights == [6]
    heights.clear()
    assert list(weighted_volume_pairs(hists, pairs, w, EnumerationBudget(alone))) == whole
    assert len(heights) > 1 and sum(heights) == 6
    # one less, and the widest row gives each of its columns a box of its own
    assert list(weighted_volume_pairs(hists, pairs, w, EnumerationBudget(alone - 1))) == whole


@pytest.mark.parametrize("kernel", ["volume", "pseudo"])
def test_row_budget_counts_visits_made(kernel):
    # both kernels run the recurrence on the same boxes: every weight is
    # nonzero (every cost finite), so each box is scanned 9 times; the
    # pair boxes hold 2*3*4 and 3*3*3 cells (216 and 243 updates), the
    # shared one 3*3*4 (324 updates)
    from transportkernels import ot

    r, c1, c2 = Histogram((2, 2, 2)), Histogram((1, 2, 3)), Histogram((2, 2, 2))
    if kernel == "volume":
        w = WeightSpec.from_weight([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        stream_fn, pair_fn = weighted_volume_pairs, weighted_volume
    else:
        w = WeightSpec.from_cost([[0.0, 2.0, 1.0], [2.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert not ot.monge_check(w)
        stream_fn, pair_fn = ot.pseudo_kernel_pairs, ot.pseudo_kernel
    budget = EnumerationBudget

    def raises(call):
        try:
            call()
        except BudgetExceededError:
            return True
        return False

    assert raises(lambda: pair_fn(r, c1, w, budget(215)))
    assert not raises(lambda: pair_fn(r, c1, w, budget(216)))
    assert raises(lambda: pair_fn(r, c2, w, budget(242)))
    assert not raises(lambda: pair_fn(r, c2, w, budget(243)))
    # below 324 the row falls back to one box per column, so it needs
    # the larger pair count
    hs, row = [r, c1, c2], [(0, 1), (0, 2)]
    assert raises(lambda: list(stream_fn(hs, row, w, budget(242))))
    pairs = [pair_fn(r, c, w) for c in (c1, c2)]
    for cap in (243, 323, 324):
        assert list(stream_fn(hs, row, w, budget(cap))) == pairs


def test_rows_that_scan_nothing_still_count_one_pass():
    # every weight is zero, so nothing is scanned, yet each of the four
    # nonempty rows resets the box e <= (30,) * 4 of 31^4 cells: the box
    # must fit the budget before it is allocated
    from transportkernels import ot

    r = Histogram((30,) * 4)
    w = WeightSpec.from_weight(np.zeros((4, 4)))
    needed = 4 * 31**4
    with pytest.raises(BudgetExceededError, match=f"need {needed} cell updates"):
        weighted_volume(r, r, w, EnumerationBudget(needed - 1))
    assert weighted_volume(r, r, w, EnumerationBudget(needed)) == 0.0
    # the plan search keeps one box per row: the +inf top row scans
    # nothing and counts once, the other two scan three costs each, over
    # the 2^3 cells of e <= (1, 1, 1)
    inf = math.inf
    w = WeightSpec.from_cost([[inf, inf, inf], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    assert not ot.monge_check(w)
    r = Histogram((1, 1, 1))
    with pytest.raises(BudgetExceededError, match="need 56 cell updates, more than 55"):
        ot.ot_cost(r, r, w, EnumerationBudget(55))
    assert ot.ot_cost(r, r, w, EnumerationBudget(56)).cost == inf


def test_count_tables_five_bins_of_ten():
    # far beyond what enumeration reaches
    ten = Histogram((10,) * 5)
    count = count_tables(ten, ten)
    assert type(count) is int
    assert count == 79_315_936_751


def test_count_tables_respects_budget():
    # the box e <= (30,) * 6 holds 31^6 Python ints, about 7 GB; it is
    # refused before it is allocated
    thirty = Histogram((30,) * 6)
    needed = 31**6 * 36
    with pytest.raises(BudgetExceededError, match=f"need {needed} cell updates, more than 1000"):
        count_tables(thirty, thirty, EnumerationBudget(1000))
    # (2, 1) / (2, 1): a 3 x 2 box passed four times
    r = Histogram((2, 1))
    with pytest.raises(BudgetExceededError, match="need 24 cell updates, more than 23"):
        count_tables(r, r, EnumerationBudget(23))
    assert count_tables(r, r, EnumerationBudget(24)) == count_tables(r, r) == 2


def test_count_tables_has_the_default_budget():
    # without a budget the box is capped at DEFAULT_BUDGET cell
    # updates, as for every other recurrence: 14^5 cells passed 25 times
    thirteen = Histogram((13,) * 5)
    with pytest.raises(
        BudgetExceededError, match="need 13445600 cell updates, more than 10000000"
    ):
        count_tables(thirteen, thirteen)
    # 13^5 cells passed 25 times fit
    twelve = Histogram((12,) * 5)
    assert count_tables(twelve, twelve) == 854_560_160_105


def test_spike_family_takes_one_box_per_column():
    # each histogram puts its whole mass in its own bin: the shared box
    # e <= (10,) * 8 has 11^8 cells, far over the default budget, while
    # each column's box has 11 cells scanned once
    d = 8
    spikes = [Histogram(tuple(10 * (j == b) for j in range(d))) for b in range(d)]
    gap = np.subtract.outer(np.arange(d), np.arange(d)).astype(float)
    w = WeightSpec.from_weight(np.exp(-(gap**2) / 8.0))
    gram = build_gram(spikes, lambda hs, pairs: weighted_volume_pairs(hs, pairs, w))
    for p, q in itertools.product(range(d), repeat=2):
        assert gram.values[p, q] == weighted_volume(spikes[p], spikes[q], w)
        assert gram.values[p, q] == pytest.approx(w.weight[p, q] ** 10, rel=1e-14, abs=0)


def _edge_cases():
    rng = np.random.default_rng(17)
    # zero-mass bins on either side
    yield Histogram((3, 0, 2, 0)), Histogram((0, 4, 0, 1)), random_psd_weight(rng, 4)
    yield Histogram((0, 5, 0)), Histogram((2, 0, 3)), random_psd_weight(rng, 3)
    # one bin: the only table is (N)
    yield Histogram((6,)), Histogram((6,)), WeightSpec.from_weight([[0.7]])
    yield Histogram((0,)), Histogram((0,)), WeightSpec.from_weight([[0.0]])
    # the all-zero pair has one table, the empty one, worth 0^0 = 1
    yield Histogram((0, 0, 0)), Histogram((0, 0, 0)), random_psd_weight(rng, 3)
    yield Histogram((0, 0)), Histogram((0, 0)), WeightSpec.from_cost([[np.inf] * 2] * 2)
    # forbidden pairs (+inf cost) beside finite ones
    gap = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    band = WeightSpec.from_cost(np.where(gap > 1, np.inf, 0.3 * gap + 0.1))
    yield Histogram((4, 0, 0, 2)), Histogram((2, 2, 0, 2)), band
    yield Histogram((1, 2, 3, 0)), Histogram((0, 1, 2, 3)), band
    # every table uses a forbidden cell: the volume is exactly 0
    yield Histogram((3, 0, 0, 0)), Histogram((0, 0, 0, 3)), band
    # exp(-1444.65) is 0.0 in floats, yet its cost is finite: the only
    # table that avoids the forbidden cell uses it and is worth e^-138.75
    wide = WeightSpec.from_cost([[-700.0, 1444.65], [-605.9, np.inf]])
    yield Histogram((2, 1)), Histogram((2, 1)), wide
    # balanced, e^-586.67 falls to 0.0 below e^272.9 in its row and 1 in its
    # column, yet the one table of (1, 0) / (1, 0) is worth that weight
    steep = WeightSpec.from_cost([[586.67, -272.9], [0.0, 0.0]])
    yield Histogram((1, 0)), Histogram((1, 0)), steep


@pytest.mark.parametrize("r, c, w", list(_edge_cases()))
def test_volume_edge_cases_match_generating_function(r, c, w):
    assert weighted_volume(r, c, w) == pytest.approx(
        generating_function(r, c, w), rel=1e-12, abs=0
    )


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


def test_softmin_with_minus_inf_is_minus_inf():
    assert softmin([1.0, -math.inf]) == -math.inf


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
