import numpy as np
import pytest

from transportkernels import (
    GramMatrix,
    Histogram,
    KernelEvaluationError,
    ValidationError,
    WeightSpec,
    build_gram,
    certify_psd,
    dataset_digest,
    jacobi_eigh,
    psd_weight_check,
    pseudo_kernel,
    weighted_volume,
)

from conftest import random_histogram, random_psd_weight


def test_jacobi_two_by_two_exact():
    vals, vecs = jacobi_eigh(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert vals == pytest.approx([-1.0, 3.0], abs=1e-14)
    # columns are unit eigenvectors
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-14)


def test_jacobi_matches_reference_solver():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 5, 8, 12, 75, 101):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        vals, vecs = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        assert vals == pytest.approx(ref, abs=1e-10 * max(1.0, np.abs(a).max()))
        assert np.all(np.diff(vals) >= 0)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.allclose(recon, a, atol=1e-10 * max(1.0, np.abs(a).max()))
        assert np.trace(a) == pytest.approx(vals.sum(), rel=1e-12, abs=1e-12)


def test_jacobi_hard_cases():
    cases = [
        np.zeros((3, 3)),
        np.eye(4) * 1e-8,
        np.eye(4) * 1e8,
        np.ones((5, 5)),  # rank one
        np.diag([1.0, 1.0 + 1e-14, 1.0 - 1e-14]),  # near-degenerate
    ]
    rng = np.random.default_rng(67)
    v = rng.standard_normal(6)
    cases.append(np.outer(v, v) * 1e8)
    cases.append(np.outer(v, v) * 1e-8)
    for a in cases:
        vals, vecs = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert vals == pytest.approx(ref, abs=1e-9 * scale)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-9 * scale)


def test_jacobi_duplicate_rows():
    # repeated histograms produce duplicate Gram rows; the solver must not
    # stall when the matrix reaches exact diagonal form mid-sweep
    g = np.array(
        [
            [2.0, 2.0, 0.5],
            [2.0, 2.0, 0.5],
            [0.5, 0.5, 1.0],
        ]
    )
    vals, _ = jacobi_eigh(g)
    assert vals == pytest.approx(np.linalg.eigvalsh(g), abs=1e-12)


def test_jacobi_rejects_non_square():
    with pytest.raises(ValidationError):
        jacobi_eigh(np.zeros((2, 3)))


def test_gram_matrix_symmetrizes_roundoff_but_rejects_asymmetry():
    g = GramMatrix(np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]]), "volume")
    assert g.values[0, 1] == g.values[1, 0]
    with pytest.raises(ValidationError):
        GramMatrix(np.array([[1.0, 0.9], [0.5, 1.0]]), "volume")
    with pytest.raises(ValidationError):
        GramMatrix(np.eye(2), "no-such-kernel")


def test_certify_psd_verdicts():
    ok = certify_psd(GramMatrix(np.eye(3), "volume"))
    assert ok.passed and ok.verdict == "pass"
    assert ok.min_eigenvalue == pytest.approx(1.0)
    bad = certify_psd(GramMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "pseudo"))
    assert not bad.passed and bad.verdict == "fail"
    assert bad.min_eigenvalue == pytest.approx(-1.0)
    d = bad.to_dict()
    assert d["verdict"] == "fail" and "tolerance" in d


def test_certify_psd_tolerance_scales_with_top_eigenvalue():
    # a slightly negative eigenvalue passes when it is roundoff-sized
    # relative to the dominant one
    g = GramMatrix(np.diag([1e6, -1e-4]), "volume")
    assert certify_psd(g, tolerance=1e-8).passed
    assert not certify_psd(g, tolerance=1e-12).passed


def test_psd_weight_check():
    w = random_psd_weight(np.random.default_rng(3), 4)
    assert psd_weight_check(w).passed
    indefinite = WeightSpec.from_weight([[0.0, 1.0], [1.0, 0.0]])
    assert not psd_weight_check(indefinite).passed
    asym = WeightSpec.from_cost([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        psd_weight_check(asym)
    with pytest.raises(ValidationError):
        psd_weight_check(w, tolerance=-1e-8)


def test_build_gram_evaluates_upper_triangle_once():
    rng = np.random.default_rng(71)
    hists = [random_histogram(rng, 3, 4) for _ in range(5)]
    w = random_psd_weight(rng, 3)
    calls = []

    def kernel(a, b):
        calls.append((a, b))
        return weighted_volume(a, b, w)

    gram = build_gram(hists, kernel, "volume")
    assert len(calls) == 5 * 6 // 2
    assert np.allclose(gram.values, gram.values.T)


def test_build_gram_rejects_mixed_families():
    w = random_psd_weight(np.random.default_rng(0), 2)
    kernel = lambda a, b: weighted_volume(a, b, w)
    with pytest.raises(ValidationError):
        build_gram([Histogram((1, 2)), Histogram((2, 2))], kernel, "volume")
    with pytest.raises(ValidationError):
        build_gram([Histogram((1, 2)), Histogram((1, 1, 1))], kernel, "volume")
    with pytest.raises(ValidationError):
        build_gram([], kernel, "volume")


def test_build_gram_wraps_kernel_failures():
    def broken(a, b):
        raise RuntimeError("boom")

    with pytest.raises(KernelEvaluationError):
        build_gram([Histogram((1, 1)), Histogram((2, 0))], broken, "volume")


def test_dataset_digest_is_order_sensitive_and_stable():
    h1, h2 = Histogram((1, 2)), Histogram((2, 1))
    assert dataset_digest([h1, h2]) == dataset_digest([h1, h2])
    assert dataset_digest([h1, h2]) != dataset_digest([h2, h1])
    assert len(dataset_digest([h1])) == 64


def test_volume_gram_psd_for_psd_weights():
    rng = np.random.default_rng(73)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        mass = int(rng.integers(1, 6))
        hists = [random_histogram(rng, d, mass) for _ in range(6)]
        w = random_psd_weight(rng, d)
        gram = build_gram(hists, lambda a, b: weighted_volume(a, b, w), "volume")
        assert certify_psd(gram).passed


def test_pseudo_kernel_point_mass_counterexample():
    # three point masses, a cost that is almost free between the first bin
    # and the others but expensive across bins two and three: the resulting
    # min-cost kernel matrix has a negative eigenvalue
    hists = [Histogram((1, 0, 0)), Histogram((0, 1, 0)), Histogram((0, 0, 1))]
    near, far = 0.105, 2.303
    m = np.array([[0.0, near, near], [near, 0.0, far], [near, far, 0.0]])
    w = WeightSpec.from_cost(m)
    gram = build_gram(hists, lambda a, b: pseudo_kernel(a, b, w), "pseudo")
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
    pseudo = build_gram(hists, lambda a, b: pseudo_kernel(a, b, w), "pseudo")
    volume = build_gram(hists, lambda a, b: weighted_volume(a, b, w), "volume")
    pseudo_cert = certify_psd(pseudo)
    volume_cert = certify_psd(volume)
    assert volume_cert.passed
    assert not pseudo_cert.passed
    assert pseudo_cert.min_eigenvalue < -1e-3
