"""Northwestern corner vertices and the sampled-vertex kernel.

The northwestern corner rule builds one vertex of the transportation
polytope in linear time: scan from the top-left cell, put as much mass
as the current row and column allow, and advance right when the column
fills, down when the row fills, diagonally when both fill at once. The
resulting table has at most 2d - 1 nonzero entries.

Relabelling both histograms by permutations (sigma, sigma') and undoing
the relabelling on the resulting table yields a family of vertices.
Summing exp(-<M, vertex>) over all pairs drawn from a common permutation
set R gives a positive definite kernel whenever K = exp(-M) entrywise is
positive semidefinite, at cost O(d |R|^2): each vertex is priced from
its staircase segments without materializing the d x d table. The
staircase is recovered by merging the two cumulative-margin sequences;
segment boundaries alternate between row and column fills, and a merge
tie is exactly the zero-mass diagonal step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .histograms import ContingencyTable, Histogram, Permutation, require_compatible
from .polytope import WeightSpec, require_matching_weights


@dataclass(frozen=True)
class PermutationSet:
    """Deduplicated permutations with the identity first, plus its draw recipe."""

    perms: tuple[Permutation, ...]
    d: int
    seed: int
    size_target: int

    def __post_init__(self) -> None:
        if not self.perms:
            raise ValidationError("a permutation set cannot be empty")
        if self.perms[0] != Permutation.identity(self.d):
            raise ValidationError("the first permutation must be the identity")
        if any(p.n != self.d for p in self.perms):
            raise ValidationError("all permutations must act on the same bins")
        if len(set(self.perms)) != len(self.perms):
            raise ValidationError("permutation set contains duplicates")
        if len(self.perms) != self.size_target:
            raise ValidationError(
                f"collected {len(self.perms)} permutations, target {self.size_target}"
            )

    def __len__(self) -> int:
        return len(self.perms)

    def __iter__(self):
        return iter(self.perms)


def sample_permutations(d: int, size_target: int, seed: int) -> PermutationSet:
    """Identity plus seeded uniform draws, deduplicated to the target size."""
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if size_target < 1:
        raise ValidationError("size_target must be at least 1")
    if d <= 20 and size_target > math.factorial(d):
        raise ValidationError(
            f"size_target {size_target} exceeds the {math.factorial(d)} "
            f"permutations of {d} items"
        )
    rng = np.random.default_rng(seed)
    identity = Permutation.identity(d)
    seen = {identity.image}
    perms = [identity]
    draws = 0
    cap = 10_000 * size_target
    while len(perms) < size_target:
        draws += 1
        if draws > cap:
            raise ValidationError(
                f"could not collect {size_target} distinct permutations "
                f"after {cap} draws"
            )
        image = tuple(int(v) + 1 for v in rng.permutation(d))
        if image not in seen:
            seen.add(image)
            perms.append(Permutation(image))
    return PermutationSet(tuple(perms), d=d, seed=seed, size_target=size_target)


def nw_table(r: Histogram, c: Histogram) -> ContingencyTable:
    """Greedy northwestern corner vertex of the table set of (r, c).

    At most 2d - 1 assignment steps; ties (row and column filling
    together) advance diagonally.
    """
    require_compatible(r, c)
    d = r.d
    row_res = list(r.counts)
    col_res = list(c.counts)
    entries = [[0] * d for _ in range(d)]
    i = j = 0
    while i < d and j < d:
        v = min(row_res[i], col_res[j])
        entries[i][j] = v
        row_res[i] -= v
        col_res[j] -= v
        row_done = row_res[i] == 0
        col_done = col_res[j] == 0
        if row_done and col_done:
            i += 1
            j += 1
        elif row_done:
            i += 1
        else:
            j += 1
    assert not any(row_res) and not any(col_res), "greedy fill left residual mass"
    return ContingencyTable(tuple(tuple(row) for row in entries))


def nw_permuted(
    r: Histogram, c: Histogram, sigma: Permutation, sigma_p: Permutation
) -> ContingencyTable:
    """Vertex from relabelled margins, mapped back to the original bins.

    Runs the corner rule on (r relabelled by sigma, c relabelled by
    sigma') and undoes both relabellings on the rows and columns of the
    result, so the output is again a table with margins (r, c). Equals
    the pair-counting table of the block-permuted flattenings of r and c.
    """
    require_compatible(r, c)
    if sigma.n != r.d or sigma_p.n != r.d:
        raise DimensionMismatchError(
            f"permutations of sizes {sigma.n}, {sigma_p.n} applied to {r.d} bins"
        )
    base = nw_table(r.permuted(sigma), c.permuted(sigma_p))
    inv = sigma.inverse()
    inv_p = sigma_p.inverse()
    d = r.d
    entries = tuple(
        tuple(base.entries[inv(i) - 1][inv_p(j) - 1] for j in range(1, d + 1))
        for i in range(1, d + 1)
    )
    return ContingencyTable(entries)


def nw_cost_matrix(
    r: Histogram, c: Histogram, w: WeightSpec, rset: PermutationSet
) -> np.ndarray:
    """Costs <M, vertex> for every (sigma, sigma') pair of the set.

    Entry (a, b) prices the vertex of (r relabelled by perms[a], c
    relabelled by perms[b]) against the cost matrix, using only the
    staircase segments of the greedy fill: O(d) per pair after sorting
    the merged cumulative margins.
    """
    require_compatible(r, c)
    require_matching_weights(r, w)
    if rset.d != r.d:
        raise DimensionMismatchError(
            f"permutation set on {rset.d} bins applied to {r.d}-bin histograms"
        )
    d = r.d
    p = len(rset)
    m = w.cost
    imgs = np.array([[v - 1 for v in perm.image] for perm in rset.perms], dtype=np.intp)
    cum_r = np.cumsum(np.asarray(r.counts, dtype=np.int64)[imgs], axis=1)
    cum_c = np.cumsum(np.asarray(c.counts, dtype=np.int64)[imgs], axis=1)

    # Merge the two cumulative sequences for every (sigma, sigma') combo.
    vals = np.concatenate(
        [
            np.broadcast_to(cum_r[:, None, :], (p, p, d)),
            np.broadcast_to(cum_c[None, :, :], (p, p, d)),
        ],
        axis=2,
    )
    order = np.argsort(vals, axis=2, kind="stable")
    svals = np.take_along_axis(vals, order, axis=2)
    # Row boundaries come first in vals, so the stable sort marks them.
    smark = order < d
    masses = np.diff(svals, axis=2, prepend=0)

    # Row index of a segment = number of row boundaries strictly before it;
    # column index likewise. Clip past-the-end indices: they only occur on
    # zero-mass segments after all mass is placed.
    rows_before = np.cumsum(smark, axis=2) - smark
    cols_before = np.arange(2 * d)[None, None, :] - rows_before
    rows_idx = np.minimum(rows_before, d - 1)
    cols_idx = np.minimum(cols_before, d - 1)

    # Map permuted coordinates back to original bins, then price. Zero-mass
    # segments are masked out so they stay free even at +inf cost.
    r_bins = imgs[np.arange(p)[:, None, None], rows_idx]
    c_bins = imgs[np.arange(p)[None, :, None], cols_idx]
    with np.errstate(invalid="ignore"):
        priced = np.where(masses > 0, masses * m[r_bins, c_bins], 0.0)
    return priced.sum(axis=2)


def nw_kernel(
    r: Histogram, c: Histogram, w: WeightSpec, rset: PermutationSet
) -> float:
    """Sampled-vertex kernel: sum of exp(-cost) over all |R|^2 vertex pairs.

    Positive definite in (r, c) whenever K = exp(-M) entrywise is a
    symmetric positive semidefinite matrix. The sum is not divided by
    the pair count, so values from sets of different sizes differ in
    scale.
    """
    costs = nw_cost_matrix(r, c, w, rset)
    with np.errstate(over="ignore"):
        return float(np.exp(-costs).sum())
