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
zero-mass diagonal step. Each boundary is packed into one integer key,
its cumulative mass above its own index into a table of relabelled
bins, so a plain sort of a pair's 2d keys is the merge, and a segment's
two bins are the key's own and the one its merged position gives. The
keys are int32 when they fit, int64 when the mass has at most
63 - bit_length(2 |R| (d + 1) - 1) bits. Any list of index pairs of a
family of m histograms, such as the upper triangle of its Gram matrix,
is priced in one stream (`nw_kernel_pairs`): the 2 m |R| d keys of every
histogram under every relabelling are built once, and so are the
2 |R| (d + 1) bins of every relabelling, and the vertices are sorted
pair by pair in blocks of BLOCK keys, or of up to 2 BLOCK keys in a
stream longer than 128 BLOCK, so memory beyond the keys is
O(BLOCK + |R| d + |R|^2) for any number of pairs. Its work,
pairs times |R|^2 vertices times 2d merge keys, is known from the pair
count, |R|, d and the mass before any permutation is drawn, and
`require_corner_stream` checks it against an EnumerationBudget.

Permutation sets (`sample_permutations`) hold Fisher-Yates draws made
from the floats of Python's random.Random(seed), a sequence Python keeps
the same per seed across its versions. Drawing imports no numpy.random,
and a seed gives the same set whatever the numpy or Python version.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .histograms import ContingencyTable, Histogram, Permutation, _as_int
from .polytope import EnumerationBudget, WeightSpec, _cap, _pair_index, require_family

# Keys merged per block of a stream of at most 128 BLOCK keys; a longer stream
# merges up to 2 BLOCK a block (see _staircases). A block may split a pair.
BLOCK = 8192


@dataclass(frozen=True)
class PermutationSet:
    """Deduplicated permutations of the same d bins, the identity first.

    A set drawn by `sample_permutations(d, size_target, seed)` is redrawn
    by the same call; the set itself keeps only its permutations.
    """

    perms: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if not self.perms:
            raise ValidationError("a permutation set cannot be empty")
        if self.perms[0] != Permutation.identity(self.d):
            raise ValidationError("the first permutation must be the identity")
        if any(p.n != self.d for p in self.perms):
            raise ValidationError("all permutations must act on the same bins")
        if len(set(self.perms)) != len(self.perms):
            raise ValidationError("permutation set contains duplicates")

    @property
    def d(self) -> int:
        return self.perms[0].n

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


def _permutation_stream(d: int, seed: int) -> Iterator[tuple[int, ...]]:
    """1-based images of uniform permutations of d items, draw after draw.

    Fisher-Yates swaps index i, from d - 1 down to 1, with the index
    int(u * (i + 1)) for the next float u of random.Random(seed).
    """
    rng = random.Random(int(seed))
    while True:
        image = list(range(1, d + 1))
        for i in range(d - 1, 0, -1):
            # random() keeps its sequence per seed across Python versions;
            # shuffle and randrange may change their algorithms.
            j = int(rng.random() * (i + 1))
            image[i], image[j] = image[j], image[i]
        yield tuple(image)


def sample_permutations(d: int, size_target: int, seed: int) -> PermutationSet:
    """Identity plus seeded uniform draws, deduplicated to the target size.

    The draws are Fisher-Yates shuffles driven by the floats of
    random.Random(seed), kept in order of first appearance. d,
    size_target and seed are read by `histograms._as_int`: a bool, a
    float (2.0 too) or any other non-integer raises ValidationError
    ("<name> is not an integer: ..."), and a numpy integer counts as
    the Python int it equals.
    """
    d = _as_int(d, "d")
    size_target = _as_int(size_target, "size_target")
    seed = _as_int(seed, "seed")
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
    stream = _permutation_stream(d, seed)
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
        image = next(stream)
        if image not in seen:
            seen.add(image)
            perms.append(Permutation(image))
    return PermutationSet(tuple(perms))


def nw_table(r: Histogram, c: Histogram) -> ContingencyTable:
    """Greedy northwestern corner vertex of the table set of (r, c).

    At most 2d - 1 assignment steps; ties (row and column filling
    together) advance diagonally.
    """
    require_family((r, c))
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
    A permutation of another size raises DimensionMismatchError from
    `Histogram.permuted`.
    """
    require_family((r, c))
    base = nw_table(r.permuted(sigma), c.permuted(sigma_p))
    # relabelled cell (k, l) is original cell (sigma(k), sigma'(l))
    entries = [[0] * r.d for _ in range(r.d)]
    for i, row in zip(sigma.image, base.entries):
        for j, v in zip(sigma_p.image, row):
            entries[i - 1][j - 1] = v
    return ContingencyTable(tuple(map(tuple, entries)))


def require_corner_stream(
    pairs: int, n: int, d: int, mass: int, budget: EnumerationBudget | None = None
) -> int:
    """Refuse a corner-rule stream too large to run; return its key shift.

    The stream prices pairs index pairs of a family of d-bin histograms
    of mass `mass` under n relabellings. BudgetExceededError when its
    merge keys, pairs times n^2 vertices times 2d, exceed the budget (the
    default EnumerationBudget when None); ValidationError when the mass
    needs more than 63 - shift bits, shift = bit_length(2 n (d + 1) - 1),
    and so does not fit the int64 keys. Both are known before any
    permutation is drawn or key built.
    """
    width = 2 * d
    needed = pairs * n * n * width
    cap = _cap(budget)
    if needed > cap:
        raise BudgetExceededError(
            f"{pairs} pairs, {n}^2 vertices each of {width} keys, need "
            f"{needed} merge keys, more than {cap}"
        )
    shift = (2 * n * (d + 1) - 1).bit_length()
    bits = (mass << shift).bit_length()
    if bits > 63:
        raise ValidationError(
            f"mass {mass} needs {bits} bits of merge key at d={d} and "
            f"|R|={n}, more than the 63 of int64"
        )
    return shift


def _staircases(
    hs: Sequence[Histogram],
    pairs,
    imgs: np.ndarray,
    cost: np.ndarray,
    budget: EnumerationBudget | None = None,
) -> Iterator[np.ndarray]:
    """Priced corner-rule staircases of relabelled pairs of a family, in vertex blocks.

    For each index pair (p, q) of pairs in turn, the vertices of (hs[p]
    relabelled by row a of imgs, hs[q] relabelled by row b) come a-major,
    b-minor, so each pair's |imgs|^2 vertices are contiguous. Row a of
    imgs holds the 0-based original bin of each relabelled bin. The
    vertices are walked in blocks of max(1, keys // (2d)), keys being
    BLOCK for a stream of at most 128 BLOCK merge keys and, for a longer
    one, its merge keys // 128 up to 2 BLOCK; so a block holds at most
    2 BLOCK keys (one vertex when its 2d keys exceed them), and a long
    stream runs fewer blocks. Returns an iterator of one (vertices, 2d)
    array per block: entry k of a vertex is the mass of the k-th segment
    of its staircase times the cost of the original cell that segment
    fills, and 0 for a zero-mass segment even where the cost is +inf.
    The nonzero entries of a vertex are its nonzero cells priced as in
    ContingencyTable.cost.

    With n = |imgs|, the i-th cumulative margin of each side is packed
    into the key value << shift | F, F being the key's own index into the
    bin table: a (d + 1) + i for row i under relabelling a, (n + b)(d + 1)
    + i for column i under b, and shift = bit_length(2 n (d + 1) - 1).
    Keys are int32 when mass << shift fits in 31 bits, int64 otherwise.
    Row F lie below column F and grow with i, so one plain sort of a
    pair's 2d keys orders the boundaries by value, a row before a column
    of equal value, then by index: the staircase order. The k-th segment
    fills row i and column j with i + j = k, so with one bin at F its
    other is at k + (a + n + b)(d + 1) - F; its mass is the step in value.
    The bin table holds 2 n (d + 1) entries whatever the family. Keys are
    built once for the family; besides them and the bin table, a block
    holds O(BLOCK) values and the walk O(BLOCK + n^2) indices.

    The pairs are read by `polytope._pair_index`, which raises for a
    pair that breaks its index rule. Raises DimensionMismatchError when
    imgs relabel another number of bins, and what `require_corner_stream`
    raises for the stream's pairs, n, d and mass: BudgetExceededError
    over the budget, ValidationError for a mass too large for the keys;
    all when called, before any key table is built. An empty family,
    which can have no pairs, gives an empty iterator.
    """
    index = _pair_index(hs, pairs)
    if not len(hs):
        return iter(())
    d = hs[0].d
    if imgs.shape[1] != d:
        raise DimensionMismatchError(
            f"permutation set on {imgs.shape[1]} bins applied to {d}-bin histograms"
        )
    n = len(imgs)
    width = 2 * d
    shift = require_corner_stream(len(index), n, d, hs[0].mass, budget)
    # Keys of at most 31 bits sort as int32; the mass then fits int32 too.
    dtype = np.int32 if (hs[0].mass << shift).bit_length() <= 31 else np.int64
    counts = np.array([h.counts for h in hs], dtype=dtype).reshape(len(hs), d)
    # Row keys, then column keys of each h relabelled by each a, at h * n + a:
    # one table, so one gather fills a block.
    side_keys = np.empty((2, len(hs), n, d), dtype)
    np.cumsum(counts[:, imgs], axis=2, out=side_keys[0])
    side_keys[0] <<= shift
    side_keys[0] |= np.arange(n * (d + 1)).reshape(n, d + 1)[:, :d]
    np.add(side_keys[0], n * (d + 1), out=side_keys[1])
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

    # The side_keys rows of each pair's vertex (0, 0). Row a + b of reach
    # holds (a + n + b)(d + 1) + k, which a key merged at position k less its
    # own F gives the index of the bin its F does not.
    pair_sides = index * n + [0, len(hs) * n]
    reach = np.arange(n, 3 * n - 1, dtype=np.intp)[:, None] * (d + 1) + np.arange(width)
    n_vertices = len(pair_sides) * n * n
    # Each block costs some 25 numpy calls whatever its size, so a stream of
    # more than 128 BLOCKs spreads over 128 blocks, each capped at 2 BLOCK
    # keys: about 1 MB of block arrays at 60 B a key, inside a core's L2. A
    # short stream keeps BLOCK: larger blocks would fault in fresh pages
    # that its few blocks never pay back.
    block_keys = min(2 * BLOCK, max(BLOCK, n_vertices * width // 128))
    step = max(1, min(block_keys // width, n_vertices))
    # Vertex v is vertex a n + b = v % n^2 of pair v // n^2. For the vertices
    # v0 % n^2 + t, t < step, of a block starting at v0, these tables hold
    # how many pairs past v0 // n^2 each lies, its offsets (a, b) into
    # side_keys and their sum a + b, so every block reads them as slices.
    # A step of at most the stream's vertices keeps them O(BLOCK + n^2).
    cycle_pair, cycle_ab = np.divmod(np.arange(step + n * n - 1), n * n)
    cycle_within = np.stack(np.divmod(cycle_ab, n), axis=1)
    cycle_sums = cycle_within.sum(axis=1)

    def blocks() -> Iterator[np.ndarray]:
        for v0 in range(0, n_vertices, step):
            first, start = divmod(v0, n * n)
            end = start + min(step, n_vertices - v0)
            sides = pair_sides.take(cycle_pair[start:end] + first, axis=0)
            sides += cycle_within[start:end]
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
            keys &= (1 << shift) - 1
            own = keys.astype(np.intp, copy=False)
            other = reach.take(cycle_sums[start:end], axis=0)
            other -= own
            cells = side_bins.take(own)
            cells += side_bins.take(other)
            # Zero-mass segments stay free even at +inf cost; a product too
            # large for a float is inf, as in ContingencyTable.cost.
            priced = costs.take(cells)
            if any_inf:
                priced[masses == 0] = 0.0
            with np.errstate(over="ignore"):
                priced *= masses
            yield priced

    return blocks()


def _runs(blocks: Iterator[np.ndarray], per: int, finish) -> Iterator:
    """finish(costs) for each block that completes runs of `per` consecutive vertices.

    costs is the (runs, per) array of the vertex costs of the runs the
    block completes, each cost its priced segments added. The costs of an
    incomplete run wait as one array per block and are joined once, when
    the run completes: at most per + BLOCK floats wait, as a block of at
    most 2 BLOCK keys, 2d a vertex, holds at most BLOCK vertices. The adds
    and finish run under one overflow guard a block, so a sum or an exp
    too large for a float is inf, without a warning.
    """
    waiting, held = [], 0
    for priced in blocks:
        # never yield inside errstate: its state would leak to the caller
        with np.errstate(over="ignore"):
            waiting.append(priced.sum(axis=1))
            held += len(priced)
            if held < per:
                continue
            costs = np.concatenate(waiting)
            whole = held - held % per
            done = finish(costs[:whole].reshape(-1, per))
        waiting, held = [costs[whole:]], held - whole
        yield done


def _exp_sums(blocks: Iterator[np.ndarray], per: int) -> Iterator[float]:
    """np.exp(-costs).sum() over each run of `per` consecutive vertices of the blocks."""
    for sums in _runs(blocks, per, lambda costs: np.exp(-costs).sum(axis=1).tolist()):
        yield from sums


def nw_cost_matrix(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    rset: PermutationSet,
    budget: EnumerationBudget | None = None,
) -> np.ndarray:
    """Costs <M, vertex> for every (sigma, sigma') pair of the set.

    Entry (a, b) prices the vertex of (r relabelled by perms[a], c
    relabelled by perms[b]) against the cost matrix, using only the
    staircase segments of the greedy fill: the sum of the segments that
    `_staircases` merges from packed integer keys, in blocks holding at
    most 2 BLOCK keys. A cost too large for a float is inf.

    Raises BudgetExceededError when its |R|^2 2d merge keys exceed the
    budget, the default EnumerationBudget when None, and ValidationError
    when the mass is too large for the keys.
    """
    require_family((r, c), w)
    blocks = _staircases((r, c), [(0, 1)], rset.images, w.cost, budget)
    (costs,) = _runs(blocks, len(rset) ** 2, lambda costs: costs)
    return costs.reshape(len(rset), -1)


def nw_kernel_pairs(
    hs: Sequence[Histogram],
    pairs,
    w: WeightSpec,
    rset: PermutationSet,
    budget: EnumerationBudget | None = None,
) -> Iterator[float]:
    """nw_kernel(hs[p], hs[q], w, rset) for each index pair (p, q) of pairs, in order.

    One staircase stream prices the vertices of every pair from merge
    keys built once for hs, so memory beyond the keys is
    O(BLOCK + |R| d + |R|^2) however many pairs there are. Its work,
    pairs times |R|^2 vertices times 2d merge keys, is checked against
    the budget (the default EnumerationBudget when None) before any key
    is built, and BudgetExceededError raised when it is larger. p and q
    index hs under the rule of `polytope._pair_index`.
    """
    require_family(hs, w)
    blocks = _staircases(hs, pairs, rset.images, w.cost, budget)
    return _exp_sums(blocks, len(rset) ** 2)


def nw_kernel(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    rset: PermutationSet,
    budget: EnumerationBudget | None = None,
) -> float:
    """Sampled-vertex kernel: sum of exp(-cost) over all |R|^2 vertex pairs.

    Positive definite in (r, c) whenever K = exp(-M) entrywise is a
    symmetric positive semidefinite matrix. The sum is not divided by
    the pair count, so values from sets of different sizes differ in
    scale. The one-pair stream of `nw_kernel_pairs`.
    """
    return next(nw_kernel_pairs((r, c), [(0, 1)], w, rset, budget))
