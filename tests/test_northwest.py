import collections
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    BudgetExceededError,
    DimensionMismatchError,
    EnumerationBudget,
    Histogram,
    Permutation,
    PermutationSet,
    ValidationError,
    WeightSpec,
    build_gram,
    chi,
    nw_cost_matrix,
    nw_kernel,
    nw_kernel_pairs,
    nw_permuted,
    nw_table,
    permuted_sequence,
    sample_permutations,
)

from transportkernels import northwest
from transportkernels.northwest import BLOCK

from conftest import random_cost, random_histogram, random_pair, random_psd_weight


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
    with pytest.raises(ValidationError, match="dimension must be at least 1"):
        sample_permutations(0, 1, 0)


def test_sample_permutations_stops_at_its_draw_cap(monkeypatch):
    # a stream that never yields a new permutation is given up after
    # 10_000 draws per permutation asked for
    def identity_forever(d, seed):
        while True:
            yield tuple(range(1, d + 1))

    monkeypatch.setattr(northwest, "_permutation_stream", identity_forever)
    with pytest.raises(
        ValidationError, match="could not collect 2 distinct permutations after 20000 draws"
    ):
        sample_permutations(3, 2, 0)


def test_sample_permutations_rejects_bools_and_non_ints():
    # True would draw as seed 1, or ask for one permutation; the others
    # raised TypeError, or recorded a float target
    for size_target, seed in [(2, True), (True, 1), (2, 1.5), (2, "1"), (2, None), (2.0, 1)]:
        with pytest.raises(ValidationError, match="is not an integer"):
            sample_permutations(3, size_target, seed)
    # a float d raised TypeError, and True made a set whose d is True
    for d in (True, np.True_, 2.0, 3.5, "3", None):
        with pytest.raises(ValidationError, match="d is not an integer"):
            sample_permutations(d, 1, 0)
    assert sample_permutations(3, 2, np.int64(1)) == sample_permutations(3, 2, seed=1)


def _first_distinct_draws(d, size, seed):
    # the identity, then the stream's draws in order, each kept once
    stream = northwest._permutation_stream(d, seed)
    images = [tuple(range(1, d + 1))]
    while len(images) < size:
        image = next(stream)
        if image not in images:
            images.append(image)
    return images


SEEDS = [0, 1, 2**32 + 7, 2**64 + 1, np.int64(2**62 + 3)]


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32+7", "2^64+1", "int64"])
@pytest.mark.parametrize("d, size", [(1, 1), (2, 2), (3, 6), (5, 40), (21, 8), (64, 12)])
def test_sample_permutations_keeps_first_distinct_draws(d, size, seed):
    # at d=3 and size 6 the draws repeat before all six images are seen
    rset = sample_permutations(d, size, seed)
    assert [p.image for p in rset.perms] == _first_distinct_draws(d, size, seed)


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32+7", "2^64+1", "int64"])
@pytest.mark.parametrize("d, size", [(1, 1), (2, 2)])
def test_sample_permutations_matches_numpy_default_rng(d, size, seed):
    # at d <= 2 identity-first deduplication fixes the whole set, so the sets
    # drawn before the stream left numpy's default_rng are still drawn and nw
    # manifests recorded then at d <= 2 replay to the same values
    rng = np.random.default_rng(seed)
    images = [tuple(range(1, d + 1))]
    while len(images) < size:
        image = tuple(int(v) + 1 for v in rng.permutation(d))
        if image not in images:
            images.append(image)
    assert [p.image for p in sample_permutations(d, size, seed).perms] == images


# SHA-256 of the repr of [[three draws] for d in (1, 2, 3, 8, 33, 257)]: the
# floats of random.Random(seed) are fixed per seed across Python versions,
# so these hold on every interpreter the package supports
RECORDED_DRAWS = {
    0: "e59bdd2310154277218ec29954571f8de87e9513342476195ec491f16ff7c8f8",
    1: "025aba05a65c52fff1f9dd89695e919295ab6d8d2bf74998a53a258841cdf2c0",
    2**32 + 7: "b0e721577b2494dd8075b1da0000591c62c8baf891c0d0698aadc69853090e64",
    2**64 + 1: "a026d1731d8523fd1f524f7a2709502395d45b97930cd8a26da6ec4e01cfbb48",
    2**70 + 3: "5c5b8f60c8a55eea69442e872e9c6681e35c0210b66adb5ccf227a6a5c6c40a4",
    123456789: "200dde8534eb7bb897c82306134b50c74aba57b689f700eeb8b930e495c23641",
    2**200 + 5: "dcb412e5a8d950f03073083494f52ee2da77662d3f93521361b4d5739ad22b72",
    np.int64(2**62 + 3): "e6745f887ec3e1f4ac2f7489340eade35278a974b8a8ee13f975d3c7e2477c19",
}


@pytest.mark.parametrize("seed", RECORDED_DRAWS)
def test_permutation_stream_matches_recorded_draws(seed):
    draws = []
    for d in (1, 2, 3, 8, 33, 257):
        stream = northwest._permutation_stream(d, seed)
        draws.append([next(stream) for _ in range(3)])
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == RECORDED_DRAWS[seed]


def test_permutation_stream_is_uniform():
    # chi^2 < 70.5 has p = 1e-6 at 23 degrees of freedom; seed 0 gives 17.3.
    # Swapping i with j <= i - 1 (Sattolo's algorithm) reaches only the 6
    # cyclic permutations
    stream = northwest._permutation_stream(4, 0)
    counts = collections.Counter(next(stream) for _ in range(24_000))
    assert len(counts) == 24
    assert sum((k - 1000) ** 2 / 1000 for k in counts.values()) < 70.5


def test_permutation_set_validation():
    ident = Permutation.identity(3)
    other = Permutation((2, 1, 3))
    assert PermutationSet((ident, other)).d == 3
    with pytest.raises(ValidationError):
        PermutationSet((other, ident))  # identity must lead
    with pytest.raises(ValidationError):
        PermutationSet((ident, ident))  # duplicates
    with pytest.raises(ValidationError, match="cannot be empty"):
        PermutationSet(())
    with pytest.raises(ValidationError, match="same bins"):
        PermutationSet((ident, Permutation((2, 1))))


def test_permutation_set_images_are_cached_and_read_only():
    rset = sample_permutations(5, 4, seed=2)
    imgs = rset.images
    assert imgs.dtype == np.int64 and imgs.shape == (4, 5)
    assert imgs.tolist() == [[v - 1 for v in p.image] for p in rset.perms]
    assert rset.images is imgs
    with pytest.raises(ValueError):
        imgs[0, 0] = 1


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
    # a vertex of (1,1) adds two cells of 1e308 past the float range, one of
    # (2,0) multiplies one by 2: inf costs and 0.0 kernel values, with no
    # RuntimeWarning, which the suite turns into an error
    w = WeightSpec.from_cost(np.full((2, 2), 1e308))
    hs = [Histogram((1, 1)), Histogram((2, 0))]
    assert np.array_equal(nw_cost_matrix(hs[0], hs[0], w, rset), np.full((2, 2), np.inf))
    assert np.array_equal(nw_cost_matrix(hs[1], hs[1], w, rset), np.full((2, 2), np.inf))
    assert nw_kernel(hs[0], hs[1], w, rset) == 0.0
    gram = build_gram(hs, lambda family, pairs: nw_kernel_pairs(family, pairs, w, rset))
    assert np.array_equal(gram.values, np.zeros((2, 2)))
    # the guard stays inside the stream: between two values its consumer
    # keeps its own numpy error state
    before = np.geterr()
    stream = nw_kernel_pairs(hs, [(0, 1), (1, 0)], w, rset)
    assert next(stream) == 0.0 and np.geterr() == before


def _sparse_histogram(rng, d, mass):
    # about a third of the bins empty; all mass in bin 0 if every bin drew empty
    probs = rng.random(d) * (rng.random(d) > 0.35)
    if not probs.any():
        probs[0] = 1.0
    return Histogram(tuple(int(v) for v in rng.multinomial(mass, probs / probs.sum())))


@pytest.mark.parametrize(
    "d, size, mass",
    [
        (32, 37, 300),
        (1, 1, 9),
        (6, 12, 0),
        (4, 24, 17),
        # at d=4, |R|=24 the keys spend bit_length(2 * 24 * 5 - 1) = 8 bits
        # past the mass: the widest int32 keys (31 bits), the narrowest int64
        # keys (32 bits), and int64 keys at d=8
        (4, 24, 2**23 - 5),
        (4, 24, 2**23 + 3),
        (8, 20, 2**40),
    ],
)
def test_nw_cost_matrix_blocks_match_direct_pricing(d, size, mass):
    # at d=32 a block holds 128 pairs, so the 37^2 pairs end in a partial block
    rng = np.random.default_rng([d, size, mass])
    r, c = _sparse_histogram(rng, d, mass), _sparse_histogram(rng, d, mass)
    m = rng.random((d, d)) * 2.0
    # +inf where only zero-mass segments can land, plus a few cells that
    # some vertices use, so some costs are +inf and none is NaN
    m[np.array(r.counts) == 0, :] = np.inf
    m[:, np.array(c.counts) == 0] = np.inf
    m[rng.random((d, d)) < 0.01] = np.inf
    rset = sample_permutations(d, size, seed=d + size)
    costs = nw_cost_matrix(r, c, WeightSpec.from_cost(m), rset)
    assert costs.shape == (size, size)
    assert not np.isnan(costs).any()
    for a, sa in enumerate(rset.perms):
        for b, sb in enumerate(rset.perms):
            direct = nw_permuted(r, c, sa, sb).cost(m)
            assert costs[a, b] == pytest.approx(direct, rel=1e-12, abs=0)


def test_nw_cost_matrix_is_independent_of_block_size(monkeypatch):
    # a block holds max(1, BLOCK // 2d) whole pairs: one pair, 128 pairs
    # (37^2 = 1369 = 10 * 128 + 89, so the last block is partial), or all
    rng = np.random.default_rng(37)
    r, c = random_pair(rng, 32, 300)
    w = random_cost(rng, 32)
    rset = sample_permutations(32, 37, seed=1)
    expected_sizes = {1: [1] * 1369, BLOCK: [128] * 10 + [89], 10**9: [1369]}
    results = []
    for block, sizes in expected_sizes.items():
        monkeypatch.setattr(northwest, "BLOCK", block)
        blocks = northwest._staircases((r, c), [(0, 1)], rset.images, w.cost)
        assert [len(priced) for priced in blocks] == sizes
        results.append(nw_cost_matrix(r, c, w, rset))
    assert all(np.array_equal(results[0], other) for other in results[1:])


def test_nw_cost_matrix_memory_is_bounded_per_block():
    # one pair at |R|=256, d=64: the unblocked merge held about a dozen
    # (|R|, |R|, 2d) temporaries of 67 MB each
    rng = np.random.default_rng(64)
    r, c = random_pair(rng, 64, 500)
    w = random_cost(rng, 64)
    rset = sample_permutations(64, 256, seed=8)
    tracemalloc.start()
    try:
        costs = nw_cost_matrix(r, c, w, rset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert costs.shape == (256, 256)
    assert peak < 16 * 2**20
    m = w.cost
    for a, b in [(0, 0), (17, 255), (255, 3)]:
        direct = nw_permuted(r, c, rset.perms[a], rset.perms[b]).cost(m)
        assert costs[a, b] == pytest.approx(direct, rel=1e-12, abs=0)


def _tied_row(rng, d, mass, count):
    # sparse histograms, r itself (every cumulative margin tied under
    # equal relabellings) and r with its first and last bins swapped
    r = _sparse_histogram(rng, d, mass)
    cs = [r] + [_sparse_histogram(rng, d, mass) for _ in range(count - 2)]
    counts = list(r.counts)
    counts[0], counts[-1] = counts[-1], counts[0]
    return r, cs + [Histogram(tuple(counts))]


@pytest.mark.parametrize(
    "d, size, mass, count", [(5, 24, 9, 7), (1, 1, 4, 3), (3, 6, 0, 2), (8, 40, 30, 5)]
)
def test_nw_kernel_row_equals_pair_kernels_exactly(d, size, mass, count):
    rng = np.random.default_rng([d, size, mass, count])
    r, cs = _tied_row(rng, d, mass, count)
    m = rng.random((d, d)) * 3.0
    m[np.array(r.counts) == 0, :] = np.inf
    m[rng.random((d, d)) < 0.1] = np.inf
    w = WeightSpec.from_cost(m)
    rset = sample_permutations(d, size, seed=d * size)
    hs = [r, *cs]
    row = list(nw_kernel_pairs(hs, [(0, q) for q in range(1, len(hs))], w, rset))
    assert row == [nw_kernel(r, c, w, rset) for c in cs]
    for value, c in zip(row, cs):
        direct = math.fsum(
            math.exp(-nw_permuted(r, c, sa, sb).cost(m)) for sa in rset for sb in rset
        )
        assert value == pytest.approx(direct, rel=1e-12, abs=0)
    assert list(nw_kernel_pairs(hs, [], w, rset)) == []


def test_nw_kernel_row_is_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(41)
    r, cs = _tied_row(rng, 12, 50, 6)
    w = random_cost(rng, 12)
    rset = sample_permutations(12, 30, seed=4)
    rows = []
    hs = [r, *cs]
    for block in (1, BLOCK, 10**9):
        monkeypatch.setattr(northwest, "BLOCK", block)
        rows.append(list(nw_kernel_pairs(hs, [(0, q) for q in range(1, len(hs))], w, rset)))
    assert rows[0] == rows[1] == rows[2]


def test_nw_kernel_row_memory_is_bounded_per_block():
    # six columns at |R|=256, d=64: 393,216 vertices, 8 bytes of cost each,
    # merged 64 pairs at a time; their 50,331,648 merge keys exceed the
    # default budget
    rng = np.random.default_rng(65)
    r = random_histogram(rng, 64, 500)
    cs = [random_histogram(rng, 64, 500) for _ in range(6)]
    w = random_cost(rng, 64)
    rset = sample_permutations(64, 256, seed=9)
    hs = [r, *cs]
    tracemalloc.start()
    try:
        pairs = [(0, q) for q in range(1, len(hs))]
        row = list(nw_kernel_pairs(hs, pairs, w, rset, EnumerationBudget(6 * 256**2 * 128)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert row[2] == nw_kernel(r, cs[2], w, rset)


def test_nw_triangle_is_independent_of_block_size(monkeypatch):
    # blocks of one vertex, of five vertices (so blocks straddle pairs of
    # |R|^2 = 36), the default, and the whole triangle at once
    rng = np.random.default_rng(43)
    hists = [_sparse_histogram(rng, 6, 20) for _ in range(5)]
    w = random_cost(rng, 6)
    rset = sample_permutations(6, 6, seed=2)
    pairs = [(p, q) for p in range(5) for q in range(p, 5)]
    grams = []
    for block in (1, 2 * 6 * 5, BLOCK, 10**9):
        monkeypatch.setattr(northwest, "BLOCK", block)
        grams.append(list(nw_kernel_pairs(hists, pairs, w, rset)))
    assert all(gram == grams[0] for gram in grams)
    assert grams[0] == [nw_kernel(hists[p], hists[q], w, rset) for p, q in pairs]


def test_long_stream_runs_fewer_larger_blocks(monkeypatch):
    # 100 pairs of 3^2 vertices at d = 4: 900 vertices of 8 keys, 7200 merge
    # keys, so 56 keys a block once 128 blocks of BLOCK would not hold them,
    # up to 2 BLOCK keys
    rng = np.random.default_rng(71)
    r, c = random_pair(rng, 4, 20)
    w = random_cost(rng, 4)
    rset = sample_permutations(4, 3, seed=3)
    expected_sizes = {
        64: [8] * 112 + [4],  # 7200 <= 128 * 64: BLOCK keys, 8 vertices
        40: [7] * 128 + [4],  # 56 keys: 7 vertices, 128 blocks and a partial one
        16: [4] * 225,  # capped at 2 BLOCK = 32 keys
    }
    for block, sizes in expected_sizes.items():
        monkeypatch.setattr(northwest, "BLOCK", block)
        blocks = northwest._staircases((r, c), [(0, 1)] * 100, rset.images, w.cost)
        assert [len(priced) for priced in blocks] == sizes


def test_nw_streams_are_independent_of_the_block_rule(monkeypatch):
    # d = 4, |R| = 24: one pair merges 4608 keys, the triangle of 6
    # histograms 96,768. BLOCK 10**9, the default and 1024 keep BLOCK for
    # both; 512 keeps it for the pair and lets the triangle's blocks take
    # 756 keys (94 vertices); 24 lets the pair's take 36 (4 vertices) and
    # caps the triangle's at 2 BLOCK; 8 caps both
    rng = np.random.default_rng(72)
    hists = [_sparse_histogram(rng, 4, 30) for _ in range(6)]
    w = random_cost(rng, 4)
    rset = sample_permutations(4, 24, seed=6)
    pairs = [(p, q) for p in range(6) for q in range(p, 6)]
    grams, costs = [], []
    for block in (10**9, BLOCK, 1024, 512, 24, 8):
        monkeypatch.setattr(northwest, "BLOCK", block)
        grams.append(list(nw_kernel_pairs(hists, pairs, w, rset)))
        costs.append(nw_cost_matrix(hists[0], hists[1], w, rset).tolist())
    assert all(gram == grams[0] for gram in grams)
    assert all(cost == costs[0] for cost in costs)


def test_nw_gram_memory_does_not_grow_with_family():
    # |R| = 256: one pair's 65,536 vertex costs take 512 KiB. The stream holds
    # at most one pair of them plus a block, so going from 2 to 6 histograms
    # (3 to 21 pairs) adds only the merge keys of four more histograms to the
    # peak: 4 * 2 * 256 * 8 int32 keys, 64 KiB. Bin tables tiled over the
    # family added about 270 KiB more, and a Gram row that held all its costs
    # at once added four pairs' worth, 2 MiB. The 21 pairs need 22,020,096
    # merge keys, more than the default budget
    rng = np.random.default_rng(66)
    w = random_cost(rng, 8)
    rset = sample_permutations(8, 256, seed=5)
    hists = [random_histogram(rng, 8, 40) for _ in range(6)]
    budget = EnumerationBudget(21 * 256**2 * 16)

    def peak(m):
        tracemalloc.start()
        try:
            kernel = lambda hs, pairs: nw_kernel_pairs(hs, pairs, w, rset, budget)
            build_gram(hists[:m], kernel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) - peak(2) < 96 * 2**10


def test_nw_triangle_blocks_do_not_copy_the_pair_list():
    # 600 histograms: 180,300 index pairs (2.9 MB of int64), merged 2048
    # vertices a block. Past the first row, a block allocates a few of its
    # own arrays, under 1 MiB; a block that copied the pair list allocated
    # its 2.9 MB each time, so the stream cost O(m^4)
    rng = np.random.default_rng(67)
    w = random_cost(rng, 2)
    rset = sample_permutations(2, 1, seed=0)
    hists = [random_histogram(rng, 2, 30) for _ in range(600)]
    tracemalloc.start()
    try:
        values = nw_kernel_pairs(hists, np.transpose(np.triu_indices(600)), w, rset)
        first = list(itertools.islice(values, 600))
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rest = sum(1 for _ in values)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(first) + rest == 600 * 601 // 2
    assert rise < 2**20


def test_nw_streams_are_capped_by_their_merge_keys():
    # 3 histograms, 6 pairs, |R| = 4, d = 5: 6 * 16 * 10 = 960 merge keys
    rng = np.random.default_rng(68)
    hists = [random_histogram(rng, 5, 12) for _ in range(3)]
    w = random_cost(rng, 5)
    rset = sample_permutations(5, 4, seed=1)
    pairs = [(p, q) for p in range(3) for q in range(p, 3)]
    values = list(nw_kernel_pairs(hists, pairs, w, rset, EnumerationBudget(960)))
    assert values == [nw_kernel(hists[p], hists[q], w, rset) for p, q in pairs]
    with pytest.raises(BudgetExceededError, match="need 960 merge keys, more than 959"):
        next(nw_kernel_pairs(hists, pairs, w, rset, EnumerationBudget(959)))
    assert nw_cost_matrix(hists[0], hists[1], w, rset, EnumerationBudget(160)).shape == (4, 4)
    with pytest.raises(BudgetExceededError, match="need 160 merge keys, more than 159"):
        nw_cost_matrix(hists[0], hists[1], w, rset, EnumerationBudget(159))
    with pytest.raises(BudgetExceededError, match="need 160 merge keys, more than 159"):
        nw_kernel(hists[0], hists[1], w, rset, EnumerationBudget(159))
    # None is the default cap: one pair at |R| = 256, d = 128 needs 16,777,216
    big = sample_permutations(128, 256, seed=2)
    r = Histogram((1,) * 128)
    w128 = random_cost(rng, 128)
    with pytest.raises(BudgetExceededError, match="need 16777216 merge keys, more than 10000000"):
        nw_kernel(r, r, w128, big)


def test_nw_budget_refusal_comes_before_the_sum_buffer():
    # a pair under 10^7 relabellings at d = 3 needs 10^14 vertices of 6 merge
    # keys; the refusal must come before any vertex of the 10^14 is priced
    hs = [Histogram((1, 1, 1))] * 3
    imgs = np.broadcast_to(np.arange(3), (10**7, 3))
    with pytest.raises(BudgetExceededError, match="need 600000000000000 merge keys"):
        list(northwest._exp_sums(
            northwest._staircases(hs, [(0, 1)], imgs, np.zeros((3, 3))), 10**14))


def test_nw_cost_matrix_rejects_mass_beyond_keys():
    # at N = 2**63 the int64 cumulative margins wrap: the identity pair
    # priced 0 where its corner vertex costs 5
    w = WeightSpec.from_cost([[0.0, 1.0], [1.0, 0.0]])
    rset = sample_permutations(2, 2, seed=0)  # identity and the swap
    big = 2**62
    r, c = Histogram((big, big)), Histogram((big + 5, big - 5))
    assert nw_table(r, c).cost(w.cost) == 5.0
    with pytest.raises(ValidationError):
        nw_cost_matrix(r, c, w, rset)
    with pytest.raises(ValidationError):
        nw_kernel(r, c, w, rset)
    # keys at d=2, |R|=2 spend bit_length(2 * 2 * 3 - 1) = 4 bits past the
    # mass: 2**59 - 1 is the largest that fits
    half = 2**58
    r, c = Histogram((half, half - 1)), Histogram((half + 5, half - 6))
    costs = nw_cost_matrix(r, c, w, rset)
    assert costs[0, 0] == 5.0
    for a, sa in enumerate(rset.perms):
        for b, sb in enumerate(rset.perms):
            assert costs[a, b] == pytest.approx(
                nw_permuted(r, c, sa, sb).cost(w.cost), rel=1e-12, abs=0
            )
    message = r"needs 64 bits of merge key at d=2 and \|R\|=2"
    with pytest.raises(ValidationError, match=message):
        nw_cost_matrix(Histogram((half, half)), Histogram((half + 5, half - 5)), w, rset)


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
    with pytest.raises(DimensionMismatchError, match="permutation of size 3 applied to 2 bins"):
        nw_permuted(Histogram((1, 2)), Histogram((2, 1)),
                    Permutation((3, 1, 2)), Permutation((2, 1)))
    with pytest.raises(DimensionMismatchError, match="permutation of size 1 applied to 2 bins"):
        nw_permuted(Histogram((1, 2)), Histogram((2, 1)),
                    Permutation((2, 1)), Permutation((1,)))


@given(st.integers(2, 4), st.integers(0, 10), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_nw_table_in_polytope_property(d, mass, seed):
    rng = np.random.default_rng(seed)
    r, c = random_pair(rng, d, mass)
    t = nw_table(r, c)
    assert t.row_sums.counts == r.counts
    assert t.col_sums.counts == c.counts
    assert all(e >= 0 for row in t.entries for e in row)


@st.composite
def _priced_families(draw):
    # d, |R| and a mass up to the largest the merge keys hold; cut points that
    # coincide leave bins empty, and costs are negative, zero, finite or +inf
    d = draw(st.integers(1, 6))
    size = draw(st.integers(1, min(6, math.factorial(d))))
    widest = 63 - (2 * size * (d + 1) - 1).bit_length()
    mass = draw(st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 2**widest - 1)))

    def histogram():
        cuts = sorted(draw(st.lists(st.integers(0, mass), min_size=d - 1, max_size=d - 1)))
        return Histogram(tuple(b - a for a, b in zip([0, *cuts], [*cuts, mass])))

    hists = [histogram() for _ in range(draw(st.integers(1, 3)))]
    entry = st.one_of(st.floats(-5.0, 5.0), st.just(0.0), st.just(math.inf))
    m = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)
    return hists, m, sample_permutations(d, size, seed=draw(st.integers(0, 99)))


@given(_priced_families())
@settings(max_examples=80, deadline=None)
def test_nw_staircase_segments_are_the_vertex_cells_priced(family):
    # each priced segment is one nonzero cell of the vertex times its cost,
    # compared as multisets with no tolerance, so a segment that reads the
    # wrong row or column bin fails whatever order the sums take
    hists, m, rset = family
    pairs = [(p, q) for p in range(len(hists)) for q in range(len(hists))]
    blocks = northwest._staircases(hists, pairs, rset.images, m)
    rows = iter(np.concatenate(list(blocks)).tolist())
    for p, q in pairs:
        for sa in rset:
            for sb in rset:
                table = nw_permuted(hists[p], hists[q], sa, sb).entries
                cells = [
                    x * m[i, j] for i, row in enumerate(table) for j, x in enumerate(row) if x
                ]
                assert sorted(filter(None, next(rows))) == sorted(filter(None, cells))
    assert next(rows, None) is None
