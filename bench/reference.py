"""Correctness gate: kernel values and certificates by independent routes.

Run in the benchmark's own process, outside the timed region. Kernel
values for a seeded sample of pairs are recomputed by a route that
does not go through the kernel under test:

* volume: `generating_function`, an exactly rounded sum over the
  enumeration stream;
* nw: every corner vertex built by the scalar greedy `nw_table` on the
  relabelled margins and priced with `ContingencyTable.cost` against
  the equally relabelled cost matrix (the price `nw_permuted`'s vertex
  has against the original one);
* pseudo with a Monge cost s*|i-j|: the 1-D closed form
  s * sum_k |cumsum(r)_k - cumsum(c)_k|;
* pseudo with any other cost: `scipy.optimize.linear_sum_assignment`
  on the N x N cost between the two canonical index sequences.

The certificate is checked against `numpy.linalg.eigvalsh`, whose
verdict also gives the exit code the run must return. Tolerances are
the test suite's: 1e-12 relative for kernel values and
1e-10 * max(1, lambda_max) for eigenvalues.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from transportkernels.histograms import Histogram, canonical_sequence
from transportkernels.northwest import nw_table, sample_permutations
from transportkernels.polytope import WeightSpec, generating_function

import workloads

KERNEL_REL_TOL = 1e-12
EIG_REL_TOL = 1e-10
# Certificate tolerance of the CLI's default `--tolerance`.
CERT_TOLERANCE = 1e-8
SAMPLED_PAIRS = 4


def sample_pairs(w: workloads.Workload, seed: int) -> list[tuple[int, int]]:
    """A diagonal pair and SAMPLED_PAIRS - 1 distinct off-diagonal pairs."""
    rng = np.random.default_rng([seed, 3])
    pairs = {(int(rng.integers(w.m)),) * 2}
    while len(pairs) < SAMPLED_PAIRS:
        p, q = sorted(int(v) for v in rng.choice(w.m, size=2, replace=False))
        pairs.add((p, q))
    return sorted(pairs)


def kernel_references(w: workloads.Workload, seed: int) -> dict[tuple[int, int], float]:
    hists = [Histogram(h) for h in workloads.histograms(w, seed)]
    mode, mat = workloads.matrix(w, seed)
    spec = WeightSpec.from_cost(mat) if mode == "cost" else WeightSpec.from_weight(mat)
    refs = {}
    for p, q in sample_pairs(w, seed):
        r, c = hists[p], hists[q]
        if w.kernel == "volume":
            refs[p, q] = generating_function(r, c, spec)
        elif w.kernel == "nw":
            rset = sample_permutations(w.d, w.r_size, workloads.NW_SEED)
            refs[p, q] = math.fsum(
                math.exp(-nw_table(r.permuted(a), c.permuted(b)).cost(_relabel(spec.cost, a, b)))
                for a in rset
                for b in rset
            )
        elif w.name == "pseudo-certify":  # cost (4/N)*|i-j|
            scale = spec.cost[0, 1]
            gap = np.abs(np.cumsum(r.counts) - np.cumsum(c.counts))
            refs[p, q] = math.exp(-scale * int(gap.sum()))
        else:
            seq_r = np.array(canonical_sequence(r).entries) - 1
            seq_c = np.array(canonical_sequence(c).entries) - 1
            pair_cost = spec.cost[seq_r[:, None], seq_c[None, :]]
            rows, cols = linear_sum_assignment(pair_cost)
            refs[p, q] = math.exp(-math.fsum(pair_cost[rows, cols]))
    return refs


def _relabel(cost: np.ndarray, sigma, sigma_p) -> np.ndarray:
    rows = np.array(sigma.image) - 1
    cols = np.array(sigma_p.image) - 1
    return cost[np.ix_(rows, cols)]


def parse_gram(blob: bytes) -> np.ndarray:
    return np.array(
        [[float(v) for v in line.split(",")] for line in blob.decode().splitlines()]
    )


def check_artifacts(
    gram_blob: bytes, cert_blob: bytes, refs: dict[tuple[int, int], float], m: int
) -> tuple[list[str], int, float]:
    """(failure causes, expected exit code, relative lambda_min error)."""
    causes = []
    gram = parse_gram(gram_blob)
    if gram.shape != (m, m):
        return [f"value mismatch: gram shape {gram.shape}, expected {(m, m)}"], 0, 0.0
    for (p, q), ref in refs.items():
        got = float(gram[p, q])
        if not abs(got - ref) <= KERNEL_REL_TOL * abs(ref):
            causes.append(f"value mismatch at ({p}, {q}): {got!r} vs reference {ref!r}")
    eig = np.linalg.eigvalsh(gram)
    lo, hi = float(eig[0]), float(eig[-1])
    scale = max(1.0, hi)
    expected_code = 0 if lo >= -CERT_TOLERANCE * scale else 2
    cert = json.loads(cert_blob)
    err_lo = abs(cert["min_eigenvalue"] - lo)
    err_hi = abs(cert["max_eigenvalue"] - hi)
    if not max(err_lo, err_hi) <= EIG_REL_TOL * scale:
        causes.append(
            f"eigenvalue mismatch: certificate [{cert['min_eigenvalue']!r}, "
            f"{cert['max_eigenvalue']!r}] vs eigvalsh [{lo!r}, {hi!r}]"
        )
    return causes, expected_code, err_lo / scale
