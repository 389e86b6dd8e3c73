import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    BudgetExceededError,
    DimensionMismatchError,
    GramMatrix,
    Histogram,
    KernelEvaluationError,
    MassMismatchError,
    ValidationError,
    WeightSpec,
    build_gram,
    certify_psd,
    monge_check,
    nw_kernel,
    nw_kernel_pairs,
    psd_weight_check,
    pseudo_kernel,
    pseudo_kernel_pairs,
    sample_permutations,
    weighted_volume,
    weighted_volume_pairs,
)
from transportkernels import polytope

from conftest import random_histogram, random_psd_weight


def _extremes(a) -> tuple[float, float]:
    cert = certify_psd(GramMatrix(a))
    return cert.min_eigenvalue, cert.max_eigenvalue


def test_certificate_two_by_two_exact():
    lo, hi = _extremes(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert (lo, hi) == pytest.approx((-1.0, 3.0), rel=0, abs=1e-14)


def test_certificate_matches_reference_solver():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 5, 8, 12, 75, 101):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        lo, hi = _extremes(a)
        ref = np.linalg.eigvalsh(a)
        scale = max(1.0, np.abs(a).max())
        assert (lo, hi) == pytest.approx((ref[0], ref[-1]), rel=0, abs=1e-10 * scale)
        assert lo <= hi


def test_certificate_hard_cases():
    cases = [
        np.zeros((3, 3)),
        np.eye(4) * 1e-8,
        np.eye(4) * 1e8,
        np.ones((5, 5)),  # rank one
        np.diag([1.0, 1.0 + 1e-14, 1.0 - 1e-14]),  # near-degenerate
        np.kron(np.eye(3), [[1.0, 2.0], [2.0, 1.0]]),  # tridiagonal, splits into blocks
        -np.eye(3) - 0.1,  # negative definite
    ]
    rng = np.random.default_rng(67)
    v = rng.standard_normal(6)
    cases.append(np.outer(v, v) * 1e8)
    cases.append(np.outer(v, v) * 1e-8)
    for a in cases:
        lo, hi = _extremes(a)
        ref = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert (lo, hi) == pytest.approx((ref[0], ref[-1]), rel=0, abs=1e-9 * scale)


def test_certificate_duplicate_rows():
    # repeated histograms produce duplicate Gram rows and an exact zero
    # eigenvalue
    g = np.array(
        [
            [2.0, 2.0, 0.5],
            [2.0, 2.0, 0.5],
            [0.5, 0.5, 1.0],
        ]
    )
    ref = np.linalg.eigvalsh(g)
    assert _extremes(g) == pytest.approx((ref[0], ref[-1]), rel=0, abs=1e-12)


def test_certificate_known_spectrum():
    # the spectrum is fixed by construction, not by another eigensolver
    n = 101
    q, _ = np.linalg.qr(np.random.default_rng(71).standard_normal((n, n)))
    lam = np.linspace(-2.0, 7.0, n)
    g = (q * lam) @ q.T
    lo, hi = _extremes((g + g.T) / 2)
    assert (lo, hi) == pytest.approx((lam[0], lam[-1]), rel=0, abs=1e-10 * max(1.0, lam[-1]))


def test_gram_matrix_rejects_non_square():
    with pytest.raises(ValidationError, match="square"):
        GramMatrix(np.zeros((2, 3)))


def test_gram_matrix_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="non-finite"):
            GramMatrix(np.array([[1.0, bad], [bad, 1.0]]))


def test_monge_pseudo_gram_verdict_matches_reference():
    # 75 histograms under a Monge cost: the size and kernel of the largest
    # certificate the command line computes in the benchmark
    rng = np.random.default_rng(83)
    hists = [random_histogram(rng, 4, 50) for _ in range(75)]
    gap = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    w = WeightSpec.from_cost(gap * 4.0 / 50)
    gram = build_gram(hists, lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, w))
    cert = certify_psd(gram)
    ref = np.linalg.eigvalsh(gram.values)
    scale = max(1.0, ref[-1])
    assert cert.min_eigenvalue == pytest.approx(ref[0], rel=0, abs=1e-10 * scale)
    assert cert.max_eigenvalue == pytest.approx(ref[-1], rel=0, abs=1e-10 * scale)
    assert cert.passed == (ref[0] >= -1e-8 * scale)


def test_gram_matrix_symmetrizes_roundoff_but_rejects_asymmetry():
    g = GramMatrix(np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]]))
    assert g.values[0, 1] == g.values[1, 0]
    with pytest.raises(ValidationError):
        GramMatrix(np.array([[1.0, 0.9], [0.5, 1.0]]))
    # opposite signs near the float limit: the asymmetry is measured without
    # an overflowing difference, so no RuntimeWarning precedes the rejection
    with pytest.raises(ValidationError, match="asymmetry inf exceeds"):
        GramMatrix(np.array([[0.0, 1e308], [-1e308, 0.0]]))


def test_gram_matrix_keeps_entries_near_float_max():
    # (v + v.T) / 2 overflows above about 8.99e307; exactly symmetric input,
    # a subnormal entry too, is stored bit for bit
    g = GramMatrix(np.array([[1e308, 1.0], [1.0, 2.0]]))
    assert np.array_equal(g.values, [[1e308, 1.0], [1.0, 2.0]])
    big = 1.7e308
    g = GramMatrix(np.array([[1.0, big], [np.nextafter(big, 0.0), 1.0]]))
    assert np.isfinite(g.values).all() and g.values[0, 1] == g.values[1, 0]
    tiny = np.array([[5e-324, 5e-324], [5e-324, 1.0]])
    assert np.array_equal(GramMatrix(tiny).values, tiny)


def test_gram_matrix_rejects_empty_matrix():
    with pytest.raises(ValidationError, match="nonempty"):
        GramMatrix(np.zeros((0, 0)))


def test_certify_psd_verdicts():
    ok = certify_psd(GramMatrix(np.eye(3)))
    assert ok.passed and ok.verdict == "pass"
    assert ok.min_eigenvalue == pytest.approx(1.0)
    bad = certify_psd(GramMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert not bad.passed and bad.verdict == "fail"
    assert bad.min_eigenvalue == pytest.approx(-1.0)
    d = bad.to_dict()
    assert d["verdict"] == "fail" and "tolerance" in d


def test_certify_psd_tolerance_scales_with_top_eigenvalue():
    # a slightly negative eigenvalue passes when it is roundoff-sized
    # relative to the dominant one
    g = GramMatrix(np.diag([1e6, -1e-4]))
    assert certify_psd(g, tolerance=1e-8).passed
    assert not certify_psd(g, tolerance=1e-12).passed


@pytest.mark.parametrize("tolerance", [True, False, np.True_, np.False_],
                         ids=["True", "False", "numpy-True", "numpy-False"])
def test_certificates_refuse_a_bool_tolerance(tolerance):
    # a bool compares as 0 or 1 and would be recorded as "tolerance": true
    g = GramMatrix(np.eye(2))
    w = WeightSpec.from_weight(np.eye(2))
    with pytest.raises(ValidationError, match="tolerance is not a real"):
        certify_psd(g, tolerance)
    with pytest.raises(ValidationError, match="tolerance is not a real"):
        psd_weight_check(w, tolerance)


def test_psd_weight_check():
    w = random_psd_weight(np.random.default_rng(3), 4)
    assert psd_weight_check(w).passed
    indefinite = WeightSpec.from_weight([[0.0, 1.0], [1.0, 0.0]])
    assert not psd_weight_check(indefinite).passed
    asym = WeightSpec.from_cost([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        psd_weight_check(asym)
    for tolerance in (-1e-8, math.nan, math.inf):
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            psd_weight_check(w, tolerance=tolerance)


def test_build_gram_evaluates_upper_triangle_once(monkeypatch):
    # one kernel call with the whole family and the row-major upper triangle;
    # the volume stream sweeps the rows of a small family in one stacked box,
    # whose slab p runs row p's histogram against the suffix that starts at it
    rng = np.random.default_rng(71)
    hists = [random_histogram(rng, 3, 4) for _ in range(5)]
    w = random_psd_weight(rng, 3)
    calls, sweeps = [], []
    sweep = polytope._sweep

    def recorded_sweep(counts, *args):
        sweeps.append(counts.tolist())
        return sweep(counts, *args)

    def kernel(hs, pairs):
        calls.append((list(hs), [tuple(pair) for pair in pairs.tolist()]))
        return weighted_volume_pairs(hs, pairs, w)

    monkeypatch.setattr(polytope, "_sweep", recorded_sweep)
    gram = build_gram(hists, kernel)
    assert calls == [(hists, [(p, q) for p in range(5) for q in range(p, 5)])]
    assert sweeps == [[list(h.counts) for h in hists]]
    for p in range(5):
        for q in range(p, 5):
            value = weighted_volume(hists[p], hists[q], w)
            assert gram.values[p, q] == gram.values[q, p] == value


def test_build_gram_rejects_mixed_families():
    w = random_psd_weight(np.random.default_rng(0), 2)
    kernel = lambda hs, pairs: weighted_volume_pairs(hs, pairs, w)
    # the family error the kernels raise, naming the first histogram that differs
    with pytest.raises(MassMismatchError, match="histogram 1 has mass 4 but histogram 0 has 3"):
        build_gram([Histogram((1, 2)), Histogram((2, 2))], kernel)
    with pytest.raises(DimensionMismatchError, match="histogram 1 has 3 bins"):
        build_gram([Histogram((1, 2)), Histogram((1, 1, 1))], kernel)
    with pytest.raises(ValidationError):
        build_gram([], kernel)


def test_build_gram_wraps_kernel_failures():
    def broken(a, b):
        raise RuntimeError("boom")

    kernel = lambda hs, pairs: (broken(hs[p], hs[q]) for p, q in pairs)
    with pytest.raises(KernelEvaluationError):
        build_gram([Histogram((1, 1)), Histogram((2, 0))], kernel)


def test_build_gram_names_the_failing_row():
    hists = [Histogram((1, 1)), Histogram((2, 0)), Histogram((0, 2))]

    def broken_second_row(hs, pairs):
        for p, q in pairs:
            if hs[p] == hists[1]:
                raise RuntimeError("boom")
            yield 1.0

    def broken_mid_stream(hs, pairs):
        yield from [1.0, 0.5, 0.5, 1.0, 0.5]
        raise RuntimeError("stream broke")

    def broken_at_call(hs, pairs):
        raise RuntimeError("no rows")

    with pytest.raises(KernelEvaluationError, match="row 1: boom"):
        build_gram(hists, broken_second_row)
    with pytest.raises(KernelEvaluationError, match="row 2: stream broke"):
        build_gram(hists, broken_mid_stream)
    with pytest.raises(KernelEvaluationError, match="row 0: no rows"):
        build_gram(hists, broken_at_call)
    with pytest.raises(KernelEvaluationError, match="1 values for the 3 columns of row 0"):
        build_gram(hists, lambda hs, pairs: [1.0])
    with pytest.raises(KernelEvaluationError, match="0 values for the 1 columns of row 2"):
        build_gram(hists, lambda hs, pairs: [1.0] * 5)
    # a value past the last row is an error, not dropped
    with pytest.raises(KernelEvaluationError, match="more than the 6 values"):
        build_gram(hists, lambda hs, pairs: [1.0] * 6 + [9.0, 9.0])
    # and the stream is read no further: an endless one returns too
    with pytest.raises(KernelEvaluationError, match="more than the 6 values"):
        build_gram(hists, lambda hs, pairs: itertools.repeat(1.0))


def test_build_gram_passes_the_packages_errors_through():
    # a kernel's own refusal keeps its type and words; only foreign
    # exceptions are wrapped with the row
    hists = [Histogram((1, 1, 0, 0)), Histogram((0, 1, 1, 0))]
    w = WeightSpec.from_cost(np.zeros((3, 3)))
    for kernel in (
        lambda hs, pairs: weighted_volume_pairs(hs, pairs, w),
        lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, w),
        lambda hs, pairs: nw_kernel_pairs(hs, pairs, w, sample_permutations(4, 2, 0)),
    ):
        with pytest.raises(DimensionMismatchError) as exc:
            build_gram(hists, kernel)
        assert str(exc.value) == "weight matrix is 3x3 but histograms have 4 bins"

    def refused(hs, pairs):
        yield 1.0
        raise BudgetExceededError("more than 1 table")

    with pytest.raises(BudgetExceededError, match="^more than 1 table$"):
        build_gram(hists, refused)


@pytest.mark.parametrize("bad", [None, "x", np.array([1.0, 2.0])])
def test_build_gram_names_the_row_of_a_value_that_is_not_a_float(bad):
    hists = [Histogram((1, 1)), Histogram((2, 0)), Histogram((0, 2))]
    # row 0 takes the first three values, row 1 the next two
    with pytest.raises(KernelEvaluationError, match="failed at row 1: "):
        build_gram(hists, lambda hs, pairs: [1.0, 0.5, 0.5, bad, 0.5, 1.0])


def test_row_kernel_grams_equal_pairwise_grams():
    # the family streams against one-pair calls, which share no box
    rng = np.random.default_rng(79)
    for _ in range(6):
        d = int(rng.integers(2, 5))
        mass = int(rng.integers(0, 7))
        hists = [random_histogram(rng, d, mass) for _ in range(8)]
        psd_w = random_psd_weight(rng, d)
        gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        monge_w = WeightSpec.from_cost(0.5 * gap)
        scan_w = WeightSpec.from_cost(rng.random((d, d)) * 2.0)
        pairs = [
            (weighted_volume_pairs, weighted_volume, psd_w),
            (pseudo_kernel_pairs, pseudo_kernel, monge_w),
            (pseudo_kernel_pairs, pseudo_kernel, scan_w),
        ]
        for stream_fn, pair_fn, w in pairs:
            family = build_gram(hists, lambda hs, ps: stream_fn(hs, ps, w))
            per_pair = build_gram(
                hists, lambda hs, ps: (pair_fn(hs[p], hs[q], w) for p, q in ps)
            )
            assert np.array_equal(family.values, per_pair.values)


def _sparse_family(rng, m, d, mass):
    # about a third of the bins empty in each histogram
    hists = []
    for _ in range(m):
        probs = rng.random(d) * (rng.random(d) > 0.35)
        if not probs.any():
            probs[0] = 1.0
        hists.append(Histogram(tuple(int(v) for v in rng.multinomial(mass, probs / probs.sum()))))
    return hists


@given(
    st.integers(1, 9),
    st.integers(1, 6),
    st.integers(0, 12),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_triangle_kernels_equal_pairwise_grams(m, d, mass, size, seed, data):
    # +inf on the row and column of a bin some histogram leaves empty, and on
    # random cells; the Monge costs are convex in i - j with an +inf band
    rng = np.random.default_rng(seed)
    hists = _sparse_family(rng, m, d, mass)
    cost = rng.random((d, d)) * 3.0
    empty = [j for j in range(d) if any(h.counts[j] == 0 for h in hists)]
    if empty:
        j = empty[int(rng.integers(len(empty)))]
        cost[j, :] = cost[:, j] = np.inf
    cost[rng.random((d, d)) < 0.15] = np.inf
    w = WeightSpec.from_cost(cost)
    rset = sample_permutations(d, min(size, math.factorial(d)), seed=seed)
    gap = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    monge_w = WeightSpec.from_cost(
        np.where(gap > int(rng.integers(1, d + 1)), np.inf, rng.random() * gap + 0.3 * gap**2)
    )
    assert monge_check(monge_w)
    cases = [
        (weighted_volume_pairs, weighted_volume, (w,)),
        (nw_kernel_pairs, nw_kernel, (w, rset)),
        (pseudo_kernel_pairs, pseudo_kernel, (monge_w,)),
        (pseudo_kernel_pairs, pseudo_kernel, (w,)),
    ]
    # Arbitrary pair lists: q < p, out of order, a p that recurs after
    # another, a repeated pair, negative indices as a sequence takes them,
    # and none at all; an index past the family raises.
    index = st.integers(-m, m - 1)
    drawn = data.draw(st.lists(st.tuples(index, index), max_size=3 * m))
    last = m - 1
    pair_lists = [drawn, [(last, 0), (0, last), (last, 0), (0, 0), (last, last)], []]
    for stream_fn, pair_fn, args in cases:
        stream = lambda hs, ps: stream_fn(hs, ps, *args)
        per_pair = lambda hs, ps: (pair_fn(hs[p], hs[q], *args) for p, q in ps)
        gram = build_gram(hists, stream)
        assert np.array_equal(gram.values, build_gram(hists, per_pair).values)
        for pairs in pair_lists:
            values = list(stream(hists, pairs))
            assert np.array_equal(values, list(per_pair(hists, pairs)))
        for beyond in (m, -m - 1):
            with pytest.raises(IndexError):
                list(stream(hists, [(beyond, 0)]))
        assert list(stream([], [])) == []


@pytest.mark.parametrize(
    "pairs",
    [lambda: [(0.7, 1)], lambda: np.array([[0.7, 1.0]]), lambda: ((0, 1) for _ in range(1))],
    ids=["list", "array", "generator"],
)
@pytest.mark.parametrize("kernel", ["volume", "nw", "monge-pseudo", "pseudo"])
def test_triangle_kernels_refuse_float_indices(kernel, pairs):
    # a float indexes no sequence; an integer cast would read 0.7 as 0. A
    # generator of pairs is no array of indices: every stream refuses it
    hists = [Histogram((1, 2)), Histogram((2, 1))]
    monge_w = WeightSpec.from_cost([[0.0, 1.0], [1.0, 0.0]])
    w = WeightSpec.from_cost([[1.0, 0.0], [0.0, 1.0]])
    assert monge_check(monge_w) and not monge_check(w)
    streams = {
        "volume": lambda ps: weighted_volume_pairs(hists, ps, w),
        "nw": lambda ps: nw_kernel_pairs(hists, ps, w, sample_permutations(2, 2, 0)),
        "monge-pseudo": lambda ps: pseudo_kernel_pairs(hists, ps, monge_w),
        "pseudo": lambda ps: pseudo_kernel_pairs(hists, ps, w),
    }
    with pytest.raises(TypeError):
        list(streams[kernel](pairs()))
    assert list(streams[kernel](np.empty((0, 2)))) == []


def test_volume_gram_psd_for_psd_weights():
    rng = np.random.default_rng(73)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        mass = int(rng.integers(1, 6))
        hists = [random_histogram(rng, d, mass) for _ in range(6)]
        w = random_psd_weight(rng, d)
        gram = build_gram(hists, lambda hs, pairs: weighted_volume_pairs(hs, pairs, w))
        assert certify_psd(gram).passed


def test_pseudo_kernel_point_mass_counterexample():
    # three point masses, a cost that is almost free between the first bin
    # and the others but expensive across bins two and three: the resulting
    # min-cost kernel matrix has a negative eigenvalue
    hists = [Histogram((1, 0, 0)), Histogram((0, 1, 0)), Histogram((0, 0, 1))]
    near, far = 0.105, 2.303
    m = np.array([[0.0, near, near], [near, 0.0, far], [near, far, 0.0]])
    w = WeightSpec.from_cost(m)
    gram = build_gram(hists, lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, w))
    cert = certify_psd(gram)
    assert not cert.passed
    assert cert.min_eigenvalue < -0.2


def test_pseudo_fails_where_volume_passes():
    # same data, same entrywise-positive psd weight matrix: the full sum is
    # certified psd, the single best-plan summand is not
    rng = np.random.default_rng(23)
    d, mass, m_count = 5, 4, 12
    h = rng.random((d, d)) + 0.1
    k = h.T @ h
    dg = np.sqrt(np.diag(k))
    w = WeightSpec.from_weight(k / np.outer(dg, dg))
    hists = [
        Histogram(tuple(int(v) for v in rng.multinomial(mass, np.ones(d) / d)))
        for _ in range(m_count)
    ]
    assert psd_weight_check(w).passed
    pseudo = build_gram(hists, lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, w))
    volume = build_gram(hists, lambda hs, pairs: weighted_volume_pairs(hs, pairs, w))
    pseudo_cert = certify_psd(pseudo)
    volume_cert = certify_psd(volume)
    assert volume_cert.passed
    assert not pseudo_cert.passed
    assert pseudo_cert.min_eigenvalue < -1e-3
