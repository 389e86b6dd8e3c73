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
staircase is the merge of the two cumulative-margin sequences: segment
boundaries alternate between row and column fills, and a tie is the
zero-mass diagonal step. Each boundary is packed into one integer key
(cumulative mass, then side, then index), so a plain sort of a pair's
2d keys is the merge; the keys are int32 when the mass leaves them at
most 31 bits wide, int64 otherwise. Any list of index pairs of a family
of m histograms, such as the upper triangle of its Gram matrix, is
priced in one stream (`nw_kernel_pairs`): the 2 m |R| d keys of every
histogram under every relabelling are built once, and so are the
2 |R| (d + 1) bins of every relabelling, and the vertices are sorted
pair by pair in blocks holding at most BLOCK keys, so memory beyond the
keys is O(BLOCK + |R| d + |R|^2) for any number of pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .histograms import ContingencyTable, Histogram, Permutation, require_compatible
from .polytope import WeightSpec, require_family

# Keys merged per block of whole relabelled pairs (at least one pair).
BLOCK = 8192


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

    @functools.cached_property
    def images(self) -> np.ndarray:
        """Read-only (|R|, d) int64 array; row a holds perms[a]'s 0-based images."""
        imgs = np.array([perm.image for perm in self.perms], dtype=np.int64) - 1
        imgs.flags.writeable = False
        return imgs

    def __iter__(self):
        return iter(self.perms)


def sample_permutations(d: int, size_target: int, seed: int) -> PermutationSet:
    """Identity plus seeded uniform draws, deduplicated to the target size."""
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if size_target < 1:
        raise ValidationError("size_target must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
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


def _staircases(
    hs: Sequence[Histogram], pairs, imgs: np.ndarray, cost: np.ndarray
) -> Iterator[np.ndarray]:
    """Priced corner-rule staircases of relabelled pairs of a family, in vertex blocks.

    For each index pair (p, q) of pairs in turn, the vertices of (hs[p]
    relabelled by row a of imgs, hs[q] relabelled by row b) come a-major,
    b-minor, so each pair's |imgs|^2 vertices are contiguous. Row a of
    imgs holds the 0-based original bin of each relabelled bin. The
    vertices are walked in blocks of max(1, BLOCK // (2d)), so a block
    holds at most BLOCK keys (one vertex when its 2d keys exceed it).
    Yields one (vertices, 2d) array per block: entry k of a vertex is the
    mass of the k-th segment of its staircase times the cost of the
    original cell that segment fills, and 0 for a zero-mass segment even
    where the cost is +inf. The nonzero entries of a vertex are its
    nonzero cells priced as in ContingencyTable.cost.

    With b = d.bit_length(), the i-th cumulative margin of each side is
    packed into the key value << (b+1) | side << b | i, where side is 1
    for columns. The keys are int32 when mass << (b+1) fits in 31 bits
    and int64 otherwise. Keys are unique, so one plain sort of a pair's
    2d keys orders the boundaries by value, a row before a column of
    equal value, then by index: the staircase order. The boundary at
    merged position k with index i has k - i boundaries of the other
    side before it, which gives the row and column of the segment it
    closes by one lookup of (side, i, k) in a small table, and the
    segment's mass is the step in value. Their original bins come from
    a table of the relabelled bins of each row of imgs, indexed by the
    vertex's (a, b): 2 |imgs| (d + 1) entries whatever the family. Keys
    are built once for the family; besides them and the bin table, a
    block holds O(BLOCK) values and the walk O(|imgs|^2) indices.

    Raises DimensionMismatchError when imgs relabel another number of
    bins, ValidationError when the mass needs more than 63 - (b+1)
    bits and so does not fit the keys. Indices address hs as a sequence
    does: a negative one counts from the end, and one outside
    [-len(hs), len(hs)) raises IndexError.
    """
    d = hs[0].d
    if imgs.shape[1] != d:
        raise DimensionMismatchError(
            f"permutation set on {imgs.shape[1]} bins applied to {d}-bin histograms"
        )
    shift = d.bit_length() + 1
    bits = (hs[0].mass << shift).bit_length()
    if bits > 63:
        raise ValidationError(
            f"mass {hs[0].mass} is too large for the 64-bit merge keys of {d} bins"
        )
    index = np.ascontiguousarray(pairs, dtype=np.intp).reshape(-1, 2)
    if index.size and not (-len(hs) <= index.min() and index.max() < len(hs)):
        raise IndexError(f"index pair out of range for {len(hs)} histograms")
    col_flag = 1 << (shift - 1)
    width = 2 * d
    n = len(imgs)
    counts = np.array([h.counts for h in hs], dtype=np.int64).reshape(len(hs), d)
    # Row keys, then column keys of each h relabelled by each a, at h * n + a:
    # one table, so one gather fills a block. Keys of at most 31 bits sort
    # as int32.
    side_keys = np.empty((2, len(hs) * n, d), np.int32 if bits <= 31 else np.int64)
    side_keys[0] = np.cumsum(counts[:, imgs].reshape(-1, d), axis=1) << shift | np.arange(d)
    side_keys[1] = side_keys[0] | col_flag
    side_keys = side_keys.reshape(-1, d)

    # Bins of each relabelling with one padding column, rows at a, columns
    # at n + b: a boundary count of d occurs only on zero-mass segments
    # after all mass is placed. Row bins are premultiplied by d, so row bin
    # + column bin indexes the flat costs.
    side_bins = np.zeros((2, n, d + 1), np.intp)
    side_bins[0, :, :d] = imgs * d
    side_bins[1, :, :d] = imgs
    side_bins = side_bins.ravel()
    costs = cost.ravel()
    # Where every cost is finite, a zero-mass segment already prices 0.
    any_inf = not np.isfinite(costs).all()
    # Boundaries before the one at merged position k with low key bits
    # side << b | i, looked up at k * 2^(b+1) + (side << b | i): rows
    # before it from row_table, columns before it from col_table.
    pos = np.arange(width, dtype=np.intp)[:, None]
    low = np.arange(2 * col_flag, dtype=np.intp)
    row_table = np.where(low & col_flag, pos - (low & (col_flag - 1)), low).ravel()
    col_table = (pos - row_table.reshape(width, -1)).ravel()
    offsets = pos.ravel() << shift

    # The side_keys rows of each pair's vertex (0, 0); the offsets (a, b) of
    # its k-th vertex into side_keys, and (a, n + b) times d + 1 into side_bins.
    pair_sides = index % len(hs) * n
    pair_sides += [0, len(hs) * n]
    within = np.stack(np.divmod(np.arange(n * n), n), axis=1)
    step = max(1, BLOCK // width)
    n_vertices = len(pair_sides) * n * n
    for v0 in range(0, n_vertices, step):
        pair, k = np.divmod(np.arange(v0, min(v0 + step, n_vertices)), n * n)
        ab = within.take(k, axis=0)
        sides = pair_sides.take(pair, axis=0)
        sides += ab
        keys = side_keys.take(sides, axis=0).reshape(-1, width)
        keys.sort(axis=1)
        # Steps in value along the flat block, written as floats for the
        # product; each vertex's first step is from 0.
        values = (keys >> shift).ravel()
        masses = np.empty(values.shape)
        np.subtract(values[1:], values[:-1], out=masses[1:])
        masses = masses.reshape(keys.shape)
        masses[:, 0] = values[::width]
        # intp indices: take converts any other index type element by element.
        at_key = np.bitwise_and(keys, 2 * col_flag - 1, dtype=np.intp)
        at_key += offsets
        ab += [0, n]
        ab *= d + 1
        at = row_table.take(at_key)
        at += ab[:, :1]
        cells = side_bins.take(at)
        at = col_table.take(at_key)
        at += ab[:, 1:]
        cells += side_bins.take(at)
        # Zero-mass segments stay free even at +inf cost; a product too
        # large for a float is inf, as in ContingencyTable.cost.
        priced = costs.take(cells)
        if any_inf:
            priced[masses == 0] = 0.0
        with np.errstate(over="ignore"):
            priced *= masses
        yield priced


def _exp_sums(blocks: Iterator[np.ndarray], per: int) -> Iterator[float]:
    """np.exp(-costs).sum() over each run of `per` consecutive vertices of the blocks.

    Costs wait in a buffer of at most per + BLOCK floats until their run
    is complete. exp(-cost) overflowing gives inf.
    """
    buf, filled = np.empty(per), 0
    for priced in blocks:
        if filled + len(priced) > len(buf):
            buf = np.resize(buf, filled + len(priced))
        priced.sum(axis=1, out=buf[filled : filled + len(priced)])
        filled += len(priced)
        if filled >= per:
            whole = filled - filled % per
            with np.errstate(over="ignore"):
                sums = np.exp(-buf[:whole]).reshape(-1, per).sum(axis=1).tolist()
            buf[: filled - whole] = buf[whole:filled]
            filled -= whole
            yield from sums


def nw_cost_matrix(
    r: Histogram, c: Histogram, w: WeightSpec, rset: PermutationSet
) -> np.ndarray:
    """Costs <M, vertex> for every (sigma, sigma') pair of the set.

    Entry (a, b) prices the vertex of (r relabelled by perms[a], c
    relabelled by perms[b]) against the cost matrix, using only the
    staircase segments of the greedy fill: the sum of the segments that
    `_staircases` merges from packed integer keys, in blocks holding at
    most BLOCK keys.

    Raises ValidationError when the mass is too large for the keys.
    """
    require_family((r, c), w)
    blocks = _staircases((r, c), [(0, 1)], rset.images, w.cost)
    return np.concatenate([priced.sum(axis=1) for priced in blocks]).reshape(len(rset), -1)


def nw_kernel_pairs(
    hs: Sequence[Histogram], pairs, w: WeightSpec, rset: PermutationSet
) -> Iterator[float]:
    """nw_kernel(hs[p], hs[q], w, rset) for each index pair (p, q) of pairs, in order.

    One staircase stream prices the vertices of every pair from merge
    keys built once for hs, so memory beyond the keys is
    O(BLOCK + |R| d + |R|^2) however many pairs there are. p and q index
    hs as a sequence does; one out of range raises IndexError.
    """
    require_family(hs, w)
    return _exp_sums(_staircases(hs, pairs, rset.images, w.cost), len(rset) ** 2)


def nw_kernel(
    r: Histogram, c: Histogram, w: WeightSpec, rset: PermutationSet
) -> float:
    """Sampled-vertex kernel: sum of exp(-cost) over all |R|^2 vertex pairs.

    Positive definite in (r, c) whenever K = exp(-M) entrywise is a
    symmetric positive semidefinite matrix. The sum is not divided by
    the pair count, so values from sets of different sizes differ in
    scale. The one-pair stream of `nw_kernel_pairs`.
    """
    return next(nw_kernel_pairs((r, c), [(0, 1)], w, rset))
