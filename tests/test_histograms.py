import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transportkernels import (
    ContingencyTable,
    DimensionMismatchError,
    EnumerationBudget,
    Histogram,
    IndexSequence,
    LengthMismatchError,
    MassMismatchError,
    Permutation,
    ValidationError,
    WeightSpec,
    canonical_sequence,
    chi,
    permuted_sequence,
    require_family,
    sample_permutations,
    softmin,
)
from transportkernels.testing import factorial_kernel_expansion, k1


def test_histogram_basic():
    h = Histogram((3, 0, 2))
    assert h.d == 3
    assert h.mass == 5
    assert str(h) == "[3,0,2]"


def test_histogram_rejects_negative_and_empty():
    with pytest.raises(ValidationError):
        Histogram((1, -1))
    with pytest.raises(ValidationError):
        Histogram(())
    with pytest.raises(ValidationError):
        Histogram((1.5, 2))  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Histogram((2.0, 1)), "histogram count is not an integer: 2.0"),
        (lambda: Histogram((True, 1)), "histogram count is not an integer: True"),
        (lambda: Histogram((np.True_, 1)), "histogram count is not an integer"),
        (lambda: Histogram((float("inf"), 1)), "histogram count is not an integer: inf"),
        (lambda: Histogram((Fraction(2), 1)), "histogram count is not an integer"),
        (lambda: Histogram((Decimal(2), 1)), "histogram count is not an integer"),
        (lambda: EnumerationBudget(5.0), "budget is not an integer: 5.0"),
        (lambda: EnumerationBudget(True), "budget is not an integer: True"),
        (lambda: EnumerationBudget(Fraction(5)), "budget is not an integer"),
        (lambda: sample_permutations(2.0, 1, 0), "d is not an integer: 2.0"),
        (lambda: sample_permutations(True, 1, 0), "d is not an integer: True"),
        (lambda: sample_permutations(3, Decimal(2), 0), "size_target is not an integer"),
    ],
    ids=["count-float", "count-bool", "count-numpy-bool", "count-inf", "count-fraction",
         "count-decimal", "budget-float", "budget-bool", "budget-fraction", "d-float",
         "d-bool", "size-decimal"],
)
def test_one_integer_rule_refuses_non_integers(make, message):
    # integral floats and bools were accepted as counts, 5.0 as a budget,
    # True as a dimension; inf escaped as OverflowError, 2.0 as TypeError
    with pytest.raises(ValidationError, match=message):
        make()


def test_one_integer_rule_reads_numpy_integers_as_ints():
    h = Histogram((np.int64(2), 1))
    assert h.counts == (2, 1) and type(h.counts[0]) is int
    budget = EnumerationBudget(np.int32(5))
    assert budget.cap == 5 and type(budget.cap) is int
    assert sample_permutations(3, 2, np.int64(1)) == sample_permutations(3, 2, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Histogram((1, 2)).permuted(Permutation((1, 2, 3))), DimensionMismatchError,
         "permutation of size 3 applied to 2 bins"),
        (lambda: Permutation((2, 1)).permute((1, 2, 3)), LengthMismatchError,
         "permutation of size 2 applied to 3 values"),
        (lambda: IndexSequence((), 0), ValidationError, "alphabet size must be at least 1"),
        (lambda: ContingencyTable(((1, 0), (0, 1))).cost(np.zeros((3, 3))),
         DimensionMismatchError, "cost matrix of shape (3, 3) priced against a 2x2 table"),
        (lambda: permuted_sequence(Histogram((1, 2)), Permutation((1, 2, 3))),
         DimensionMismatchError, "permutation of size 3 applied to 2 bins"),
        (lambda: chi(IndexSequence((1,), 1), IndexSequence((1,), 2)), DimensionMismatchError,
         "sequences over alphabets of sizes 1 and 2"),
        (lambda: softmin([]), ValidationError, "softmin of an empty collection"),
        (lambda: k1(IndexSequence((1, 2), 2), IndexSequence((2,), 2),
                    WeightSpec.from_weight([[1.0, 0.5], [0.5, 1.0]])),
         LengthMismatchError, "sequences of lengths 2 and 1"),
        (lambda: factorial_kernel_expansion((1, 0, 1), (1, 0)), LengthMismatchError,
         "vectors of lengths 3 and 2"),
    ],
    ids=["histogram-permuted", "permute", "empty-alphabet", "cost-shape",
         "permuted-sequence", "chi-alphabets", "empty-softmin", "oracle-k1",
         "oracle-factorial-expansion"],
)
def test_precondition_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)


def test_require_family_pair():
    require_family((Histogram((1, 2)), Histogram((3, 0))))
    with pytest.raises(DimensionMismatchError):
        require_family((Histogram((1, 2)), Histogram((1, 1, 1))))
    with pytest.raises(MassMismatchError):
        require_family((Histogram((1, 2)), Histogram((2, 2))))


def test_permutation_algebra():
    s = Permutation((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.inverse().image == (3, 1, 2)
    # permuted values: position i gets the value at sigma(i)
    assert s.permute(("a", "b", "c")) == ("b", "c", "a")


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValidationError):
        Permutation((1, 1, 3))
    with pytest.raises(ValidationError):
        Permutation((0, 1, 2))


def test_histogram_permuted():
    h = Histogram((5, 1, 0))
    s = Permutation((3, 1, 2))
    assert h.permuted(s).counts == (0, 5, 1)


def test_index_sequence_content():
    seq = IndexSequence.from_entries((1, 3, 1, 2, 3, 3))
    assert seq.d == 3
    assert seq.content().counts == (2, 1, 3)
    with pytest.raises(ValidationError):
        IndexSequence((1, 4), 3)


def test_canonical_and_permuted_sequences():
    r = Histogram((2, 1, 3))
    assert canonical_sequence(r).entries == (1, 1, 2, 3, 3, 3)
    # blocks follow sigma's order, each block repeats its symbol count times
    s = Permutation((3, 1, 2))
    assert permuted_sequence(r, s).entries == (3, 3, 3, 1, 1, 2)


def test_permuted_sequence_block_fixture():
    # d=4, counts (3,1,2,2), block order 2,1,4,3
    r = Histogram((3, 1, 2, 2))
    s = Permutation((2, 1, 4, 3))
    assert permuted_sequence(r, s).entries == (2, 1, 1, 1, 4, 4, 3, 3)


def test_chi_counts_index_pairs():
    rho = IndexSequence.from_entries((1, 2, 2, 3))
    gamma = IndexSequence((2, 2, 1, 1), 3)  # alphabet padded to match rho
    x = chi(rho, gamma)
    # entry (i,j) counts positions t with rho_t = i and gamma_t = j
    assert x.entries == ((0, 1, 0), (1, 1, 0), (1, 0, 0))
    assert x.row_sums == rho.content()
    assert x.col_sums == gamma.content()


def test_chi_pair_fixtures():
    rho = IndexSequence.from_entries((1, 3, 3, 2))
    gamma = IndexSequence((1, 1, 2, 2), 3)
    assert chi(rho, gamma).entries == ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    with pytest.raises(LengthMismatchError):
        chi(rho, IndexSequence((1, 2), 3))


def test_chi_worked_examples():
    rho = IndexSequence.from_entries((1, 2, 2, 2, 1, 3, 1, 3))
    gamma = IndexSequence.from_entries((1, 1, 2, 1, 3, 3, 3, 3))
    assert chi(rho, gamma).entries == ((1, 0, 2), (2, 1, 0), (0, 0, 2))

    # reordering both sequences by the same pi leaves the pattern unchanged;
    # reordering gamma alone moves mass between cells but keeps the margins
    pi = Permutation((3, 6, 8, 5, 2, 1, 4, 7))
    gamma_pi = IndexSequence(pi.permute(gamma.entries), 3)
    assert gamma_pi.entries == (2, 3, 3, 3, 1, 1, 1, 3)
    x = chi(rho, gamma_pi)
    assert x.entries == ((2, 1, 0), (0, 0, 3), (1, 0, 1))
    assert x.row_sums == rho.content()
    assert x.col_sums == gamma.content()


def test_contingency_table_validation():
    t = ContingencyTable(((1, 0), (2, 3)))
    assert t.row_sums.counts == (1, 5)
    assert t.col_sums.counts == (3, 3)
    assert t.nonzero_count() == 3
    with pytest.raises(ValidationError):
        ContingencyTable(((1, 0), (2,)))
    with pytest.raises(ValidationError):
        ContingencyTable(((1, -1), (0, 0)))
    with pytest.raises(ValidationError, match="at least one row"):
        ContingencyTable(())


def test_contingency_table_cost_skips_zero_entries():
    t = ContingencyTable(((2, 0), (0, 1)))
    m = ((0.5, float("inf")), (float("inf"), 0.25))
    assert t.cost(m) == 2 * 0.5 + 1 * 0.25


def test_contingency_table_cost_adds_cells_in_row_major_order():
    t = ContingencyTable(((1, 1, 1), (0, 0, 0), (0, 0, 0)))
    m = ((1e16, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    # each 1e16 + 1 rounds back to 1e16; the exactly rounded sum is 1e16 + 2
    assert t.cost(m) == 1e16
    assert math.fsum(m[0]) == 1.0000000000000002e16
    # two finite products whose sum overflows give inf, not OverflowError
    assert ContingencyTable(((1, 0), (0, 1))).cost(((1e308, 1e308), (1e308, 1e308))) == math.inf


@given(st.integers(2, 5), st.integers(0, 12), st.integers(0, 2 ** 31 - 1))
def test_permuted_histogram_preserves_mass(d, mass, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    counts = tuple(int(v) for v in rng.multinomial(mass, np.ones(d) / d))
    img = tuple(int(v) + 1 for v in rng.permutation(d))
    h = Histogram(counts)
    p = h.permuted(Permutation(img))
    assert p.mass == h.mass
    assert sorted(p.counts) == sorted(h.counts)


@given(st.integers(2, 4), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_chi_marginals_match_contents(d, n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    rho = IndexSequence(tuple(int(v) + 1 for v in rng.integers(0, d, size=n)), d)
    gamma = IndexSequence(tuple(int(v) + 1 for v in rng.integers(0, d, size=n)), d)
    x = chi(rho, gamma)
    assert x.row_sums == rho.content()
    assert x.col_sums == gamma.content()


@given(st.integers(2, 4), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_chi_of_permuted_sequences_has_permuted_margins(d, n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    r = Histogram(tuple(int(v) for v in rng.multinomial(n, np.ones(d) / d)))
    c = Histogram(tuple(int(v) for v in rng.multinomial(n, np.ones(d) / d)))
    s = Permutation(tuple(int(v) + 1 for v in rng.permutation(d)))
    sp = Permutation(tuple(int(v) + 1 for v in rng.permutation(d)))
    x = chi(permuted_sequence(r, s), permuted_sequence(c, sp))
    assert x.row_sums.counts == r.counts
    assert x.col_sums.counts == c.counts
