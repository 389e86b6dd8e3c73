import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportkernels import (
    Histogram,
    IndexSequence,
    Permutation,
    canonical_sequence,
    certify_psd,
    chi,
    fisher_yates,
    weighted_volume,
)
from transportkernels.testing import (
    SN_MASS_CAP,
    factorial_kernel_expansion,
    k1,
    k2,
    pattern_factorial_split,
    permutation_sum_oracle,
    shuffle_kernel,
    symmetrization_oracle,
)

from conftest import random_histogram, random_pair, random_psd_weight

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "transportkernels"


def imports_testing(source: str) -> bool:
    """Whether a module of the package imports transportkernels.testing."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # relative to a module directly inside the package
            base = "transportkernels" if node.level == 1 else ""
            base = ".".join(filter(None, [base, node.module]))
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    target = "transportkernels.testing"
    return any(name == target or name.startswith(target + ".") for name in names)


def margin_factorials(r: Histogram, c: Histogram) -> int:
    out = 1
    for v in r.counts + c.counts:
        out *= math.factorial(v)
    return out


def test_k1_is_product_over_positions():
    w = random_psd_weight(np.random.default_rng(1), 3)
    rho = IndexSequence.from_entries((1, 2, 3, 1))
    gamma = IndexSequence.from_entries((2, 2, 1, 3))
    direct = (
        w.weight[0, 1] * w.weight[1, 1] * w.weight[2, 0] * w.weight[0, 2]
    )
    assert k1(rho, gamma, w) == pytest.approx(direct, rel=1e-15)


def test_k1_factorizes_through_pattern():
    rng = np.random.default_rng(9)
    w = random_psd_weight(rng, 3)
    for _ in range(10):
        entries_a = tuple(int(v) + 1 for v in rng.integers(0, 3, size=6))
        entries_b = tuple(int(v) + 1 for v in rng.integers(0, 3, size=6))
        rho, gamma = IndexSequence(entries_a, 3), IndexSequence(entries_b, 3)
        x = chi(rho, gamma)
        via_pattern = math.prod(
            float(w.weight[i, j]) ** x.entries[i][j] for i in range(3) for j in range(3)
        )
        assert k1(rho, gamma, w) == pytest.approx(via_pattern, rel=1e-12)


def test_k2_is_exact_rational_and_inverts_fisher_yates():
    rng = np.random.default_rng(15)
    for _ in range(10):
        entries_a = tuple(int(v) + 1 for v in rng.integers(0, 3, size=5))
        entries_b = tuple(int(v) + 1 for v in rng.integers(0, 3, size=5))
        rho, gamma = IndexSequence(entries_a, 3), IndexSequence(entries_b, 3)
        val = k2(rho, gamma)
        assert isinstance(val, Fraction)
        assert val * fisher_yates(chi(rho, gamma)) == 1


def test_factorial_kernel_expansion_binary_identity():
    a, b = (1, 0, 1, 1), (1, 1, 0, 1)
    direct, recursive = factorial_kernel_expansion(a, b)
    assert direct == math.factorial(2)  # inner product 2
    assert direct == recursive
    with pytest.raises(Exception):
        factorial_kernel_expansion((1, 2), (1, 0))


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=10),
    st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_factorial_kernel_expansion_property(a_bits, seed):
    rng = np.random.default_rng(seed)
    b_bits = [int(v) for v in rng.integers(0, 2, size=len(a_bits))]
    direct, recursive = factorial_kernel_expansion(tuple(a_bits), tuple(b_bits))
    assert direct == recursive
    assert direct == math.factorial(sum(x * y for x, y in zip(a_bits, b_bits)))


def test_pattern_factorial_split():
    rho = IndexSequence.from_entries((1, 1, 2, 3, 3))
    gamma = IndexSequence.from_entries((2, 1, 2, 3, 3))
    direct, via_split = pattern_factorial_split(rho, gamma)
    x = chi(rho, gamma)
    assert direct == math.prod(
        math.factorial(e) for row in x.entries for e in row
    )
    assert direct == via_split


def test_permutation_sum_matches_volume_times_margin_factorials():
    rng = np.random.default_rng(41)
    for _ in range(12):
        d = int(rng.integers(2, 4))
        r, c = random_pair(rng, d, int(rng.integers(1, 6)))
        w = random_psd_weight(rng, d)
        total = permutation_sum_oracle(r, c, w)
        t = weighted_volume(r, c, w)
        assert total / margin_factorials(r, c) == pytest.approx(t, rel=1e-10)
        assert shuffle_kernel(r, c, w) == pytest.approx(t, rel=1e-10)


def test_permutation_sum_two_bin_closed_form():
    # r = c = [1,1]: S_2 has two elements, patterns are the permutation
    # matrices, margins are all ones, so the sum is a^2 + b^2 exactly
    a, b = 0.7, 0.2
    from transportkernels import WeightSpec

    w = WeightSpec.from_weight([[a, b], [b, a]])
    r = Histogram((1, 1))
    assert permutation_sum_oracle(r, r, w) == pytest.approx(a * a + b * b, rel=1e-12)


def test_permutation_sum_rejects_large_mass():
    w = random_psd_weight(np.random.default_rng(0), 2)
    big = Histogram((SN_MASS_CAP, 1))
    with pytest.raises(Exception):
        permutation_sum_oracle(big, big, w)


def test_kappa_invariant_under_simultaneous_shuffle():
    # relabeling positions of both sequences by the same pi leaves both
    # factors unchanged, which is what makes the S_N sum symmetrize cleanly
    rng = np.random.default_rng(43)
    w = random_psd_weight(rng, 3)
    rho = canonical_sequence(Histogram((2, 1, 1)))
    gamma = IndexSequence.from_entries((3, 1, 2, 2))
    for img in ((2, 1, 4, 3), (4, 3, 2, 1), (1, 3, 2, 4)):
        pi = Permutation(img)
        rho_p = IndexSequence(pi.permute(rho.entries), 3)
        gamma_p = IndexSequence(pi.permute(gamma.entries), 3)
        assert k1(rho_p, gamma_p, w) == pytest.approx(k1(rho, gamma, w), rel=1e-15)
        assert k2(rho_p, gamma_p) == k2(rho, gamma)


def test_symmetrization_oracle_gram_is_psd_and_matches_volume():
    rng = np.random.default_rng(47)
    hists = [random_histogram(rng, 3, 5) for _ in range(4)]
    w = random_psd_weight(rng, 3)
    gram = symmetrization_oracle(hists, w)
    cert = certify_psd(gram)
    assert cert.passed
    for p in range(4):
        for q in range(4):
            expected = weighted_volume(hists[p], hists[q], w)
            assert gram.values[p, q] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "source",
    ["from .testing import k1", "from . import testing", "from .testing.oracles import k1",
     "import transportkernels.testing.oracles", "from transportkernels import testing"],
)
def test_testing_import_detector_flags_each_import_form(source):
    assert imports_testing(source)
    assert not imports_testing(source.replace("testing", "polytope"))


def test_production_modules_never_import_the_oracles():
    # the oracles stay independent of the code they check
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    offenders = [path.name for path in modules if imports_testing(path.read_text())]
    assert offenders == []
