"""Exact operations on the lattice points of a transportation polytope.

For two histograms r and c with d bins and equal mass N, the table set
is the collection of d x d nonnegative integer matrices whose row sums
are r and whose column sums are c. This module enumerates that set and
sums over it without enumerating. Two sums over the set:

* the weighted volume  T(r, c; K) = sum over tables X of prod k_ij^x_ij,
  a positive definite kernel in (r, c) whenever the entry-weight matrix
  K is positive semidefinite with nonnegative entries;
* the generating function  V(r, c; M) = sum over tables of exp(-<X, M>),
  the same quantity written through the cost matrix M = -log K.

The two are tied together by the soft minimum: V = exp(-softmin of the
table costs). With K identically one, T is the plain lattice point count.

T is a coefficient of a generating polynomial:
T(r, c; K) = [y^c] prod_i h_{r_i}(k_i1 y_1, ..., k_id y_d), h_n the
complete homogeneous polynomial of degree n. One dense recurrence over
the column exponents e <= max c builds it row by row, a scan along one
axis per nonzero weight, so one array serves every c of a Gram row. The
scans depend on the weights alone, never on r, so the rows of
consecutive Gram rows run as one stacked box, one slab e <= max c per
run of pairs. For the weighted volume it runs in floats on balanced
weights: rows and columns of K scaled exactly by powers of two so that
every weight is at most 1, each slab lifted to start at 2^512, and each
value scaled back by ldexp. Only a pair whose float value could have
lost a visible share to underflow, or that overflowed, is redone in log
space (logaddexp, +). It runs in exact integers for `count_tables` and
in (min, +) on the costs for the pseudo kernel and `ot`'s cheapest
table. A box's work
is its height times its cells times its passes; the budget caps that
number, checked before the box is allocated. A stack grows while its box
holds at most STACK_CELLS cells and fits the budget, and a Gram row
whose own box does not fit gives each c its own box.

The Fisher-Yates statistic of a table, n(X) = (prod r_i! prod c_j!) /
prod x_ij!, counts the permutations that induce the table when one
histogram's canonical sequence is matched against a shuffled copy of the
other's; summed over the table set it partitions N!.

Conventions: 0^0 = 1, and a zero table entry contributes nothing to a
cost even when the matching cost entry is +inf.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EntryError,
    MassMismatchError,
    ValidationError,
)
from .histograms import ContingencyTable, Histogram, _add_cells, _as_int

DEFAULT_BUDGET = 10_000_000

# Cells of one box shared by several runs of Gram rows (256 KiB of
# floats), so that it stays in cache; a run whose own box is larger
# runs alone.
STACK_CELLS = 1 << 15

# The largest float whose exp is finite: the rounded log of the largest
# float lies about 2e-14 below the overflow threshold, the next float
# about 9e-14 above it.
_EXP_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EnumerationBudget:
    """A positive cap whose unit depends on the caller.

    `enumerate_tables` (and the `enumerate` subcommand) counts tables
    streamed. Every generating-polynomial recurrence counts the cell
    updates of one stacked box, its height (the Gram rows it sweeps at
    once) times its cells times its passes, checked before the box is
    allocated: the weighted volume, `count_tables`, `ot_cost` and the
    pseudo kernel off Monge costs. The corner-rule streams, the nw
    kernel and the pseudo kernel on Monge costs, count the merge keys of
    the whole stream, pairs times |R|^2 vertices times 2d (|R| = 1 for
    the pseudo kernel), checked before any key is built. A caller
    passing None gets the default cap, DEFAULT_BUDGET, through
    `_cap`, which every reader of a cap calls: `enumerate_tables`,
    `_boxes` for every recurrence and `northwest.require_corner_stream`
    for the corner-rule streams.

    The cap is read by `histograms._as_int`, so a bool, a float (5.0
    too) or any other non-integer raises ValidationError ("budget is not
    an integer: ..."), and so does a cap below 1 ("budget must be a
    positive integer, got ...").
    """

    cap: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        cap = _as_int(self.cap, "budget")
        if cap < 1:
            raise ValidationError(f"budget must be a positive integer, got {cap!r}")
        object.__setattr__(self, "cap", cap)


def _cap(budget: EnumerationBudget | None) -> int:
    """The budget's cap, DEFAULT_BUDGET for None."""
    return DEFAULT_BUDGET if budget is None else budget.cap


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Paired cost/weight matrices related entrywise by k = exp(-m).

    Exactly one side is supplied; the other is derived once at
    construction, so the pair stays consistent to the rounding of a
    single exp or log. Costs may contain +inf (zero weight); weights are
    finite and nonnegative. A refused entry raises EntryError, whose
    `entry` is the first such (row, column) in row-major order; a NaN or
    -inf cost is refused before a cost whose weight exceeds the float
    range.
    """

    cost: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        for name in ("cost", "weight"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @classmethod
    def from_cost(cls, m) -> WeightSpec:
        m = np.array(m, dtype=float)
        _require_square(m)
        _refuse(m, np.isnan(m) | np.isneginf(m), "cost entries must be reals or +inf")
        with np.errstate(over="ignore"):
            k = np.exp(-m)
        overflow = "cost entry ({i}, {j}) = {value!r} gives weight exp(-m) beyond the float range"
        _refuse(m, np.isinf(k), overflow + "; weights must be finite")
        return cls(cost=m, weight=k)

    @classmethod
    def from_weight(cls, k) -> WeightSpec:
        k = np.array(k, dtype=float)
        _require_square(k)
        _refuse(k, ~np.isfinite(k) | (k < 0), "weight entries must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            m = -np.log(k)
        return cls(cost=m, weight=k)

    @property
    def d(self) -> int:
        return self.cost.shape[0]


def _require_square(arr: np.ndarray, what: str = "matrix") -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"{what} must be square and nonempty, got shape {arr.shape}")


def _refuse(values: np.ndarray, refused: np.ndarray, message: str) -> None:
    """EntryError at the first refused entry in row-major order, if any.

    The message is formatted with the entry's row i, column j and value.
    """
    if refused.any():
        i, j = divmod(int(refused.argmax()), refused.shape[1])
        raise EntryError((i, j), message.format(i=i, j=j, value=float(values[i, j])))


def require_family(hs: Sequence[Histogram], w: WeightSpec | None = None) -> None:
    """Reject a family whose histograms differ from hs[0] in bins or mass.

    Kernels, tables and corner vertices are defined only within one
    family of equal dimension and equal mass: otherwise the
    transportation polytope is empty. This is the package's one margin
    check; a pair (r, c) is the family of two. The first histogram that
    differs is named: DimensionMismatchError for its bin count,
    MassMismatchError for its mass. A weight matrix w, when given, must
    be d x d for the family's d bins. An empty family passes.
    """
    if not hs:
        return
    d, mass = hs[0].d, hs[0].mass
    for pos, h in enumerate(hs):
        if h.d != d:
            raise DimensionMismatchError(
                f"histogram {pos} has {h.d} bins but histogram 0 has {d}"
            )
        if h.mass != mass:
            raise MassMismatchError(
                f"histogram {pos} has mass {h.mass} but histogram 0 has {mass}"
            )
    if w is not None and w.d != d:
        raise DimensionMismatchError(
            f"weight matrix is {w.d}x{w.d} but histograms have {d} bins"
        )


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield x with sum(x) == total and 0 <= x_j <= caps_j, ascending lexicographic."""
    d = len(caps)
    tail = [0] * (d + 1)
    for j in range(d - 1, -1, -1):
        tail[j] = tail[j + 1] + caps[j]
    x = [0] * d

    def rec(j: int, rem: int) -> Iterator[tuple[int, ...]]:
        if j == d - 1:
            if rem <= caps[j]:
                x[j] = rem
                yield tuple(x)
            return
        lo = max(0, rem - tail[j + 1])
        hi = min(rem, caps[j])
        for v in range(lo, hi + 1):
            x[j] = v
            yield from rec(j + 1, rem - v)

    return rec(0, total)


def enumerate_tables(
    r: Histogram, c: Histogram, budget: EnumerationBudget | None = None
) -> Iterator[ContingencyTable]:
    """Stream every table with margins (r, c) in row-major lexicographic order.

    Rows are filled top-down with bounded compositions of each row sum,
    so the flattened entry tuples ascend lexicographically. The pair is
    checked by `require_family` before the stream starts. Raises
    BudgetExceededError instead of truncating when the stream would
    exceed the budget, the default EnumerationBudget when budget is None.
    """
    require_family((r, c))
    return _table_stream(r, c, _cap(budget))


def _table_stream(r: Histogram, c: Histogram, cap: int) -> Iterator[ContingencyTable]:
    d = r.d
    rows: list[tuple[int, ...]] = []
    emitted = 0

    def rec(i: int, residual: tuple[int, ...]) -> Iterator[ContingencyTable]:
        nonlocal emitted
        if i == d - 1:
            # Mass conservation forces the last row.
            emitted += 1
            if emitted > cap:
                raise BudgetExceededError(f"more than {cap} tables exist for margins {r} / {c}")
            yield ContingencyTable(tuple(rows) + (residual,))
            return
        for x in _bounded_compositions(r.counts[i], residual):
            rows.append(x)
            yield from rec(i + 1, tuple(a - b for a, b in zip(residual, x)))
            rows.pop()

    return rec(0, c.counts)


class _Semiring(NamedTuple):
    """(plus, times) as numpy ufuncs, their identities, the array dtype and the slabs' start."""

    plus: np.ufunc
    times: np.ufunc
    zero: object
    one: object
    dtype: type
    start: object


# Each float slab starts at 2^_LIFT: the states of the balanced
# recurrence are at most 2^_LIFT times their number of placements, so
# they overflow only past 2^511 placements, and a placement's product
# reaches the slow subnormal range only below 2^-1534.
_LIFT = 512
_REAL = _Semiring(np.add, np.multiply, 0.0, 1.0, float, 2.0**_LIFT)
_LOG = _Semiring(np.logaddexp, np.add, -math.inf, 0.0, float, 0.0)
_EXACT = _Semiring(np.add, np.multiply, 0, 1, object, 1)
# On costs: the least cost over the placements, +inf where there is none.
_MIN = _Semiring(np.minimum, np.add, math.inf, 0.0, float, 0.0)


class _Stack(NamedTuple):
    """Runs (r, cs) of one family swept together: slab t of the box holds runs[t]."""

    runs: list
    rows: list  # (i, [(j, k_ij) for k_ij other than the zero]) per row nonempty in an r
    extent: tuple[int, ...]


def _boxes(
    runs,
    weights: np.ndarray,
    ring: _Semiring,
    budget: EnumerationBudget | None,
) -> Iterator[_Stack]:
    """The stacks `_sweep` runs for runs (r, cs) of one family, in order.

    A stack's box holds one slab e <= extent per run, extent the max over
    its columns c of each c_j. Its rows are every row i nonempty in one
    of its r, in index order. Its cell updates are its height times the
    cells of a slab times its passes: a row passes once per weight on an
    axis of extent > 0, and at least once, as its reset writes the box.
    Consecutive runs share one stack while its box holds at most
    STACK_CELLS cells and its updates fit the budget. A run that cannot
    join starts a stack of its own box e <= (max over cs of c_j) if that
    fits the budget; otherwise each c gets its own box e <= c, and one
    that does not fit raises BudgetExceededError before any box is
    allocated. A budget of None caps at DEFAULT_BUDGET.
    """
    d = len(weights)
    cells = [
        [(j, weights[i, j]) for j in range(d) if weights[i, j] != ring.zero]
        for i in range(d)
    ]
    cap = _cap(budget)

    def updates(height: int, live: set, extent: tuple[int, ...]) -> int:
        passes = sum(max(1, sum(1 for j, _ in cells[i] if extent[j])) for i in live)
        return height * math.prod(e + 1 for e in extent) * passes

    def stack(group: list, live: set, extent: tuple[int, ...]) -> _Stack:
        return _Stack(group, [(i, cells[i]) for i in sorted(live)], extent)

    group, live, extent = [], set(), ()
    for r, cs in runs:
        own_live = {i for i, n in enumerate(r.counts) if n}
        own = tuple(max(c.counts[j] for c in cs) for j in range(d))
        if group:
            joined_live, joined = live | own_live, tuple(map(max, extent, own))
            height = len(group) + 1
            if (
                height * math.prod(e + 1 for e in joined) <= STACK_CELLS
                and updates(height, joined_live, joined) <= cap
            ):
                group.append((r, cs))
                live, extent = joined_live, joined
                continue
            yield stack(group, live, extent)
            group = []
        if updates(1, own_live, own) <= cap:
            group, live, extent = [(r, cs)], own_live, own
            continue
        for c in cs:
            needed = updates(1, own_live, c.counts)
            if needed > cap:
                raise BudgetExceededError(
                    f"margins {r} / {c} need {needed} cell updates, more than {cap}"
                )
        for c in cs:
            yield stack([(r, (c,))], own_live, c.counts)
    if group:
        yield stack(group, live, extent)


def _sweep(
    counts: np.ndarray, extent: tuple[int, ...], rows: list, ring: _Semiring
) -> Iterator[np.ndarray]:
    """Yield the stacked box before the first of `rows` and after each, updated in place.

    Axis 0 holds one slab e <= extent per row histogram counts[t], each
    starting at `ring.start` on e = 0. A row (i, cells) multiplies
    h_{counts[t, i]} into every slab by the scan
    F[e] = F[e] (+) k (x) F[e - unit_j] along axis j for each cell (j, k),
    skipping axes of extent 0; then, unless it is the last row, it resets
    to `ring.zero` every state of slab t whose total is not the mass of
    counts[t]'s rows so far. The scan leaves the live states of a slab
    whose row i is empty as they were: each is scanned against states of
    lower total, all `ring.zero`, and F (+) k (x) zero = F in every
    semiring here. Each slab then holds, at each e, the `ring` sum over
    its rows' placements with column sums e, times `ring.start`.
    """
    d = len(extent)
    f = np.full((len(counts),) + tuple(e + 1 for e in extent), ring.zero, dtype=ring.dtype)
    f[(slice(None),) + (0,) * d] = ring.start
    totals = sum(
        np.arange(e + 1).reshape((-1,) + (1,) * (d - 1 - j)) for j, e in enumerate(extent)
    )
    # The slices of f across each axis j of extent > 0, as views.
    lines = {
        j: [f[(slice(None),) * (j + 1) + (e,)] for e in range(n + 1)]
        for j, n in enumerate(extent)
        if n
    }
    steps = {j: np.empty_like(at[0]) for j, at in lines.items()}
    done = np.zeros((len(counts),) + (1,) * d, dtype=int)
    yield f
    for pos, (i, cells) in enumerate(rows, 1):
        with np.errstate(over="ignore"):
            for j, k in cells:
                if j not in lines:
                    continue
                at, step = lines[j], steps[j]
                if k == ring.one:
                    for e in range(1, len(at)):
                        ring.plus(at[e], at[e - 1], out=at[e])
                else:
                    for e in range(1, len(at)):
                        ring.times(at[e - 1], k, out=step)
                        ring.plus(at[e], step, out=at[e])
        done += counts[:, i].reshape(done.shape)
        if pos < len(rows):
            f[totals != done] = ring.zero
        yield f


def _generating_values(
    runs,
    weights: np.ndarray,
    ring: _Semiring,
    budget: EnumerationBudget | None,
) -> Iterator[list[tuple[Histogram, Sequence[Histogram], list]]]:
    """[(r, cs, [T(r, c) for c in cs]) for each run of a stack], per stack of `_boxes`.

    T(r, c) = [y^c] prod_i h_{r_i}(k_i1 y_1, ..., k_id y_d) in `ring`, h_n
    the complete homogeneous polynomial of degree n, times `ring.start`:
    slab t's state at e = c after every row. A weight equal to
    `ring.zero` is never scanned, which keeps 0^0 = 1.
    """
    for stack in _boxes(runs, weights, ring, budget):
        counts = np.array([r.counts for r, _ in stack.runs])
        *_, f = _sweep(counts, stack.extent, stack.rows, ring)  # one array, yielded per row
        yield [
            (r, cs, [f.item((t,) + c.counts) for c in cs])
            for t, (r, cs) in enumerate(stack.runs)
        ]


def _cheapest_table(
    r: Histogram, c: Histogram, m: np.ndarray, budget: EnumerationBudget | None
) -> ContingencyTable:
    """The first table of (r, c) in enumeration order of least cost <X, m>.

    The recurrence runs in `_MIN` on the costs over r's nonempty rows
    bottom-up, as a stack of one, never scanning a +inf cost, and keeps a
    copy of its slab before each nonempty row: the least cost of the rows
    below it at each e. The plan is read top-down: each nonempty row takes the first
    composition, in enumeration order, that minimizes its own cost plus
    the copy's at the residual, so exact ties go to the lexicographically
    earliest table. A +inf minimum means every table costs +inf, and the
    plan is then the first one enumerated. The top row is read, not
    scanned, so the copies hold no more cells than `_boxes` admits.
    """
    (stack,) = _boxes([(r, (c,))], m, _MIN, budget)
    sweep = _sweep(np.array([r.counts]), stack.extent, stack.rows[::-1], _MIN)
    below = reversed([f[0].copy() for f in itertools.islice(sweep, len(stack.rows))])
    costs = m.tolist()
    residual, entries = c.counts, []
    for i, n in enumerate(r.counts):
        x = (0,) * r.d
        if n:
            tail, best = next(below), math.inf
            for y in _bounded_compositions(n, residual):
                rest = tuple(map(operator.sub, residual, y))
                value = _add_cells((y,), (costs[i],)) + tail[rest]
                if value < best:
                    best, x = value, y
            if best == math.inf:
                return next(enumerate_tables(r, c))
        entries.append(x)
        residual = tuple(map(operator.sub, residual, x))
    return ContingencyTable(tuple(entries))


def count_tables(
    r: Histogram, c: Histogram, budget: EnumerationBudget | None = None
) -> int:
    """Exact number of tables with margins (r, c), as a Python int.

    The generating-polynomial recurrence with every weight 1, run in
    exact integers on an object array over the box of e <= c (its
    prod (c_j + 1) states each hold one count). The pair is checked by
    `require_family`. The budget, the default EnumerationBudget when
    None, caps the box's cell updates as for the weighted volume, and a
    box over it raises BudgetExceededError before it is allocated.
    Always equals the length of the enumeration stream.
    """
    require_family((r, c))
    ones = np.ones((r.d, r.d), dtype=object)
    ((_, _, (count,)),) = next(_generating_values([(r, (c,))], ones, _EXACT, budget))
    return count


def _pair_index(hs: Sequence[Histogram], pairs) -> np.ndarray:
    """The index pairs (p, q) of pairs as an (n, 2) array of indices into hs.

    The index rule of every `*_pairs` kernel: the pairs, as one numpy
    array, index hs as a sequence does. A negative index counts from the
    end and is returned as the index it names; one outside
    [-len(hs), len(hs)) raises IndexError, and a float index, even 1.0,
    raises TypeError, as does an iterator or generator of pairs, which is
    no array. An empty pair list is valid.
    """
    index = np.asarray(pairs)
    # take raises where indexing a sequence does, and refuses every float
    # array, the float64 of an empty list too
    return np.arange(len(hs)).take(index if index.size else index.astype(np.intp)).reshape(-1, 2)


def _rows(hs: Sequence[Histogram], pairs) -> Iterator[tuple[Histogram, list[Histogram]]]:
    """(hs[p], [hs[q], ...]) for each run of consecutive index pairs (p, q) sharing p.

    The pairs are read by `_pair_index`.
    """
    # Grouping an array's rows would build a numpy row and scalars per pair.
    for p, run in itertools.groupby(_pair_index(hs, pairs).tolist(), key=operator.itemgetter(0)):
        yield hs[p], [hs[q] for _, q in run]


def weighted_volume_pairs(
    hs: Sequence[Histogram],
    pairs,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> Iterator[float]:
    """T(hs[p], hs[q]; K) for each index pair (p, q) of pairs, in order.

    Each run of consecutive pairs with the same p is one slab of a
    generating-polynomial recurrence, and consecutive runs share one
    stacked box under the rule of `_boxes`, which raises
    BudgetExceededError before allocating one. The recurrence runs in
    floats on the balanced weights of `_balanced`, each slab lifted to
    start at 2^_LIFT, and the value is scaled back exactly; a pair whose
    float value may have lost more than 2^-_TRUST of itself to underflow,
    or that overflowed, is redone on log weights -m_ij under logaddexp
    (see `_volumes`). 0^0 = 1 throughout. p and q index hs under the
    rule of `_pair_index`.
    """
    require_family(hs, w)
    return _volumes(hs, _rows(hs, pairs), w, budget)


def _balanced(w: WeightSpec) -> tuple[np.ndarray, list[int], list[int]]:
    """(K', e, f) with K' the weights k_ij scaled by 2^-(e_i + f_j).

    e_i puts the largest weight of row i in (1/2, 1]; f_j <= 0 then puts
    the largest of column j of the row-scaled matrix there too, which
    leaves every weight at most 1 and every nonempty row's largest still
    in (1/2, 1]. A largest weight of exactly 1 is not scaled, and rows
    and columns of zeros get 0. A normal weight is scaled exactly, by
    ldexp, and its exponent is read by frexp. A weight that exp(-m_ij)
    leaves below the normal range (0.0 too where m_ij is finite) is
    exp(-m_ij - (e_i + f_j) ln 2), and its exponent is rounded up from
    -m_ij / ln 2 and held above -2^20, so the largest of a row or column
    made only of such weights may land lower than 1/2, never above 1.
    """
    k, m = w.weight, w.cost
    normal = k >= sys.float_info.min
    mant, exp = np.frexp(k)
    # ceil(log2 k_ij), -inf for a zero weight
    estimate = np.ceil(np.maximum(-m / math.log(2.0) * (1.0 - 2.0**-40), -(2.0**20)))
    top = np.where(normal, exp - (mant == 0.5), np.where(np.isinf(m), -np.inf, estimate))
    e = top.max(axis=1)
    e[np.isinf(e)] = 0.0
    f = (top - e[:, None]).max(axis=0)
    f[np.isinf(f)] = 0.0
    shift = e[:, None] + f
    with np.errstate(under="ignore"):
        tiny = np.exp(-m - shift * math.log(2.0))
        scaled = np.where(normal, np.ldexp(k, -shift.astype(int)), tiny)
    return scaled, e.astype(int).tolist(), f.astype(int).tolist()


# A float volume is kept when its bound on the mass lost to underflow is
# below 2^-_TRUST of it, well inside the suite's 1e-12 relative oracles.
_TRUST = 45


def _volumes(
    hs: Sequence[Histogram], runs, w: WeightSpec, budget: EnumerationBudget | None
) -> Iterator[float]:
    """T(r, c; K) for each pair of runs in floats, redone in logs where floats cannot vouch for it.

    The recurrence on the balanced weights K' = K 2^-(e_i + f_j) gives
    v = 2^_LIFT T(r, c; K'), and T(r, c; K) = ldexp(v, r.e + c.f - _LIFT)
    exactly wherever the result is a normal float. Every balanced weight
    is at most 1, so no state exceeds 2^_LIFT times its placements, and
    a state that underflows holds only placements whose tables end below
    the normal range. A multiply whose result is subnormal loses at most
    2^-1075, a table passes at most d^2 of them (a row scans each of its
    d weights once), and the placements that carry a loss into v are
    worth at most 1 each. A balanced weight below the normal range is
    itself rounded, by at most 2^-1075, which moves a table's lifted
    product by at most N 2^(_LIFT - 1075). So v misses at most the
    number of tables times d^2 2^-1075, plus N 2^(_LIFT - 1075) where a
    weight was rounded. A pair is kept when v is finite and that bound
    is below 2^-_TRUST v, or below 2^-1075 (half the least subnormal)
    once scaled back; the others are redone in logs. A value beyond the
    float range is inf.
    """
    weight, e, f = _balanced(w)
    mass = hs[0].mass if hs else 0
    rounded = (np.isfinite(w.cost) & (weight < sys.float_info.min)).any()
    lost = w.d**2 + (mass << _LIFT if rounded else 0)
    # row i of a table is one of the C(r_i + d - 1, r_i) compositions of r_i
    tables = max((math.prod(math.comb(n + w.d - 1, n) for n in h.counts) for h in hs), default=1)
    bits = (tables * lost).bit_length() - 1075
    limit = 2.0 ** (bits + _TRUST) if bits + _TRUST < 1024 else math.inf
    # keyed by counts: a tuple hashes faster than the dataclass around it
    rows = {h.counts: sum(map(operator.mul, h.counts, e)) - _LIFT for h in hs}
    cols = {h.counts: sum(map(operator.mul, h.counts, f)) for h in hs}

    def unscaled(v: float, shift: int) -> float | None:
        if v < math.inf and (v >= limit or shift + bits <= -1075):
            # v < 2^x for x the frexp exponent; ldexp raises past the float range
            return math.ldexp(v, shift) if math.frexp(v)[1] + shift <= 1024 else math.inf
        return None

    for stack in _generating_values(runs, weight, _REAL, budget):
        kept = [
            (r, cs, [unscaled(v, rows[r.counts] + cols[c.counts]) for c, v in zip(cs, vs)])
            for r, cs, vs in stack
        ]
        redo = [(r, [c for c, v in zip(cs, vs) if v is None]) for r, cs, vs in kept]
        redo = [run for run in redo if run[1]]
        logs = _log_volumes(redo, w, budget) if redo else None
        for _, _, vs in kept:
            yield from (next(logs) if v is None else v for v in vs)


def _log_volumes(runs, w: WeightSpec, budget: EnumerationBudget | None) -> Iterator[float]:
    """T(r, c; K) for each pair of runs, from the recurrence on log weights -m_ij."""
    stacks = _generating_values(runs, -w.cost, _LOG, budget)
    return (_safe_exp(v) for stack in stacks for _, _, vs in stack for v in vs)


def weighted_volume(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """T(r, c; K): sum over all tables of the product of k_ij^x_ij.

    The one-pair stream of `weighted_volume_pairs`.
    """
    return next(weighted_volume_pairs((r, c), [(0, 1)], w, budget))


def _safe_exp(x: float) -> float:
    """exp(x), inf where it is beyond the float range."""
    return math.inf if x > _EXP_MAX else math.exp(x)


def generating_function(
    r: Histogram,
    c: Histogram,
    w: WeightSpec,
    budget: EnumerationBudget | None = None,
) -> float:
    """V(r, c; M): sum over all tables of exp(-<X, M>).

    Evaluated directly over the enumeration stream with an exactly
    rounded float sum. Equals the weighted volume under k = exp(-m) and
    exp(-softmin of the table costs); both identities are held to 1e-12
    relative by the test suite rather than by sharing code paths.
    """
    require_family((r, c), w)
    m = w.cost
    return math.fsum(
        _safe_exp(-table.cost(m)) for table in enumerate_tables(r, c, budget)
    )


def softmin(values) -> float:
    """Soft minimum -log(sum exp(-u_i)), stabilized by shifting at the minimum."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValidationError("softmin of an empty collection")
    lo = min(vals)
    if lo == math.inf:
        return math.inf
    if lo == -math.inf:
        return -math.inf
    return lo - math.log(math.fsum(math.exp(lo - v) for v in vals))


def fisher_yates(x: ContingencyTable) -> int:
    """Exact count of sequence matchings inducing the table.

    n(X) = (prod of row-sum factorials * prod of column-sum factorials)
    divided by the product of entry factorials; the division is exact
    for any table with consistent margins.
    """
    numerator = 1
    for v in x.row_sums.counts:
        numerator *= math.factorial(v)
    for v in x.col_sums.counts:
        numerator *= math.factorial(v)
    denominator = 1
    for row in x.entries:
        for v in row:
            if v > 1:
                denominator *= math.factorial(v)
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0, "inexact division: table margins are inconsistent"
    return quotient
