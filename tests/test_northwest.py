import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    DimensionMismatchError,
    Histogram,
    Permutation,
    PermutationSet,
    ValidationError,
    WeightSpec,
    chi,
    nw_cost_matrix,
    nw_kernel,
    nw_permuted,
    nw_table,
    permuted_sequence,
    sample_permutations,
)

from conftest import random_pair, random_psd_weight


def test_nw_table_fixture():
    t = nw_table(Histogram((2, 5, 3)), Histogram((5, 1, 4)))
    assert t.entries == ((2, 0, 0), (3, 1, 1), (0, 0, 3))


def test_nw_permuted_margin_fixture():
    # feeding permuted margins to the plain rule
    r = Histogram((2, 5, 3)).permuted(Permutation((3, 1, 2)))
    c = Histogram((5, 1, 4)).permuted(Permutation((3, 2, 1)))
    assert nw_table(r, c).entries == ((3, 0, 0), (1, 1, 0), (0, 0, 5))


def test_nw_permuted_fixture():
    t = nw_permuted(
        Histogram((2, 5, 3)),
        Histogram((5, 1, 4)),
        Permutation((3, 1, 2)),
        Permutation((3, 2, 1)),
    )
    assert t.entries == ((0, 1, 1), (5, 0, 0), (0, 0, 3))


def test_nw_identity_permutations_recover_plain_rule():
    r, c = Histogram((4, 0, 2)), Histogram((1, 3, 2))
    ident = Permutation.identity(3)
    assert nw_permuted(r, c, ident, ident) == nw_table(r, c)


def test_nw_table_margins_and_sparsity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        r, c = random_pair(rng, d, int(rng.integers(1, 40)))
        t = nw_table(r, c)
        assert t.row_sums.counts == r.counts
        assert t.col_sums.counts == c.counts
        assert t.nonzero_count() <= 2 * d - 1


def test_nw_permuted_equals_pattern_of_permuted_sequences():
    # exhaustive at d=3: the greedy rule on permuted margins reproduces the
    # pair-counting pattern of the corresponding block sequences
    rng = np.random.default_rng(3)
    r, c = random_pair(rng, 3, 7)
    for img_a in itertools.permutations((1, 2, 3)):
        for img_b in itertools.permutations((1, 2, 3)):
            sa, sb = Permutation(img_a), Permutation(img_b)
            expected = chi(permuted_sequence(r, sa), permuted_sequence(c, sb))
            assert nw_permuted(r, c, sa, sb) == expected


def test_sample_permutations_deterministic():
    a = sample_permutations(5, 8, seed=42)
    b = sample_permutations(5, 8, seed=42)
    assert a.perms == b.perms
    assert a.seed == 42 and a.size_target == 8
    c = sample_permutations(5, 8, seed=43)
    assert c.perms != a.perms


def test_sample_permutations_identity_first_and_distinct():
    s = sample_permutations(4, 10, seed=0)
    assert s.perms[0].image == (1, 2, 3, 4)
    assert len(set(p.image for p in s.perms)) == len(s.perms)
    assert len(s.perms) == 10


def test_sample_permutations_rejects_oversized_request():
    with pytest.raises(ValidationError):
        sample_permutations(3, 50, seed=1)
    s = sample_permutations(3, 6, seed=1)
    assert sorted(p.image for p in s.perms) == sorted(
        itertools.permutations((1, 2, 3))
    )
    assert sample_permutations(4, 1, seed=9).perms[0].image == (1, 2, 3, 4)


def test_permutation_set_validation():
    ident = Permutation.identity(3)
    other = Permutation((2, 1, 3))
    PermutationSet((ident, other), 3, 0, 2)
    with pytest.raises(ValidationError):
        PermutationSet((other, ident), 3, 0, 2)  # identity must lead
    with pytest.raises(ValidationError):
        PermutationSet((ident, ident), 3, 0, 2)  # duplicates


def test_nw_cost_matrix_matches_direct_pricing():
    rng = np.random.default_rng(19)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        r, c = random_pair(rng, d, int(rng.integers(2, 30)))
        w = random_psd_weight(rng, d)
        rset = sample_permutations(d, min(6, math.factorial(d)), seed=int(rng.integers(0, 100)))
        costs = nw_cost_matrix(r, c, w, rset)
        n = len(rset.perms)
        assert costs.shape == (n, n)
        m = tuple(map(tuple, w.cost))
        for a in range(n):
            for b in range(n):
                direct = nw_permuted(r, c, rset.perms[a], rset.perms[b]).cost(m)
                assert costs[a, b] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_nw_cost_matrix_handles_infinite_costs():
    # zero-mass segments must not pick up inf * 0 = nan
    r, c = Histogram((3, 0)), Histogram((0, 3))
    w = WeightSpec.from_cost([[float("inf"), 1.0], [2.0, float("inf")]])
    rset = sample_permutations(2, 2, seed=0)
    costs = nw_cost_matrix(r, c, w, rset)
    assert np.isfinite(costs).any()
    assert not np.isnan(costs).any()


def test_nw_kernel_symmetric_weights_give_symmetric_value():
    rng = np.random.default_rng(23)
    r, c = random_pair(rng, 4, 12)
    w = random_psd_weight(rng, 4)
    rset = sample_permutations(4, 8, seed=7)
    assert nw_kernel(r, c, w, rset) == pytest.approx(
        nw_kernel(c, r, w, rset), rel=1e-12
    )


def test_nw_kernel_full_group_equals_double_sum():
    # with R = S_d the kernel is the plain double sum over patterns
    rng = np.random.default_rng(31)
    r, c = random_pair(rng, 3, 6)
    w = random_psd_weight(rng, 3)
    rset = sample_permutations(3, 6, seed=3)
    m = tuple(map(tuple, w.cost))
    direct = math.fsum(
        math.exp(-chi(permuted_sequence(r, sa), permuted_sequence(c, sb)).cost(m))
        for sa in rset.perms
        for sb in rset.perms
    )
    assert nw_kernel(r, c, w, rset) == pytest.approx(direct, rel=1e-12)


def test_nw_rejects_mismatched_dimensions():
    rset = sample_permutations(3, 2, seed=0)
    with pytest.raises(DimensionMismatchError):
        nw_cost_matrix(
            Histogram((1, 2)), Histogram((2, 1)), WeightSpec.from_cost(np.zeros((2, 2))), rset
        )


@given(st.integers(2, 4), st.integers(0, 10), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_nw_table_in_polytope_property(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, c = random_pair(rng, d, mass)
    t = nw_table(r, c)
    assert t.row_sums.counts == r.counts
    assert t.col_sums.counts == c.counts
    assert all(e >= 0 for row in t.entries for e in row)
