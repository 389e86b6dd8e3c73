"""Integral histograms, index sequences, contingency tables, permutations.

The value types in this module are immutable: constructors validate once
and every operation returns a new object. Index conventions are 1-based
at the API surface, as is customary for transportation tables, so a
permutation of d items stores the image tuple (sigma(1), ..., sigma(d))
with values in {1, ..., d}, and index sequences take their symbols from
the same alphabet.

A histogram with d bins and total mass N can be flattened into its
canonical index sequence (r_1 copies of symbol 1, then r_2 copies of
symbol 2, and so on). The pair-counting map ``chi`` sends two equal
length sequences to the d x d table whose (i, j) entry counts the
positions where the first sequence reads i and the second reads j; its
row sums recover the content of the first sequence and its column sums
the content of the second.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, LengthMismatchError, ValidationError


# Python counts a bool as an int, and numpy 1.x lets operator.index read a
# numpy bool; a count may be neither. Neither type can be subclassed.
_BOOLS = (bool, np.bool_)


def _as_int(value, what: str) -> int:
    """value as a Python int, for every count, size, seed and budget the package reads.

    The package's one integer check: a value is an integer when
    operator.index accepts it (int, numpy integers). Bools, numpy bools,
    floats (integral, nan and inf alike), Fractions, Decimals and strings
    raise ValidationError("<what> is not an integer: <value!r>").
    """
    if type(value) not in _BOOLS:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} is not an integer: {value!r}")


@dataclass(frozen=True)
class Histogram:
    """Nonnegative integer counts over a fixed set of bins."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(_as_int(v, "histogram count") for v in self.counts)
        if len(counts) < 1:
            raise ValidationError("a histogram needs at least one bin")
        if any(v < 0 for v in counts):
            raise ValidationError(f"negative count in histogram {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def mass(self) -> int:
        return sum(self.counts)

    def permuted(self, sigma: Permutation) -> Histogram:
        """Bin-relabelled copy whose i-th count is counts[sigma(i)]."""
        if sigma.n != self.d:
            raise DimensionMismatchError(
                f"permutation of size {sigma.n} applied to {self.d} bins"
            )
        return Histogram(sigma.permute(self.counts))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.counts) + "]"


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., n} stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(_as_int(v, "permutation image") for v in self.image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValidationError(f"not a permutation of 1..{len(image)}: {image}")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """sigma(i) with 1-based i."""
        return self.image[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for pos, v in enumerate(self.image):
            inv[v - 1] = pos + 1
        return Permutation(tuple(inv))

    def permute(self, values: Sequence) -> tuple:
        """Reordered copy of values whose i-th slot holds values[sigma(i)]."""
        if len(values) != self.n:
            raise LengthMismatchError(
                f"permutation of size {self.n} applied to {len(values)} values"
            )
        return tuple(values[v - 1] for v in self.image)


@dataclass(frozen=True)
class IndexSequence:
    """Finite word over the symbol alphabet {1, ..., d}."""

    entries: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        d = _as_int(self.d, "alphabet size")
        if d < 1:
            raise ValidationError("alphabet size must be at least 1")
        entries = tuple(_as_int(v, "sequence entry") for v in self.entries)
        for v in entries:
            if not 1 <= v <= d:
                raise ValidationError(f"entry {v} outside alphabet 1..{d}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_entries(cls, entries: Sequence[int], d: int | None = None) -> IndexSequence:
        """Build from raw entries, inferring the alphabet when d is omitted."""
        entries = tuple(entries)
        if d is None:
            d = max(entries, default=1)
        return cls(entries, d)

    def __len__(self) -> int:
        return len(self.entries)

    def content(self) -> Histogram:
        """Histogram of symbol occurrences."""
        counts = [0] * self.d
        for v in self.entries:
            counts[v - 1] += 1
        return Histogram(tuple(counts))


@dataclass(frozen=True)
class ContingencyTable:
    """Square table of nonnegative integers; its margins follow from the entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(_as_int(v, "table entry") for v in row) for row in self.entries
        )
        d = len(rows)
        if d < 1:
            raise ValidationError("a table needs at least one row")
        for row in rows:
            if len(row) != d:
                raise ValidationError(
                    f"table is not square: {d} rows but a row of length {len(row)}"
                )
            if any(v < 0 for v in row):
                raise ValidationError(f"negative entry in table row {row}")
        object.__setattr__(self, "entries", rows)

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def row_sums(self) -> Histogram:
        return Histogram(tuple(map(sum, self.entries)))

    @property
    def col_sums(self) -> Histogram:
        return Histogram(tuple(map(sum, zip(*self.entries))))

    def nonzero_count(self) -> int:
        return sum(1 for row in self.entries for v in row if v)

    def cost(self, m: np.ndarray) -> float:
        """Frobenius inner product with a cost matrix.

        The products x_ij * m_ij of the nonzero cells are added left to
        right in row-major order, rounding at every add, so a sum too large
        for a float is inf. The loop is explicit: from Python 3.12 the
        builtin sum() of floats is compensated. Zero entries contribute
        nothing even where the cost is +inf, matching the convention that
        unused routes are free to be infinitely expensive.
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (self.d, self.d):
            raise DimensionMismatchError(
                f"cost matrix of shape {m.shape} priced against a {self.d}x{self.d} table"
            )
        total = 0.0
        for row, costs in zip(self.entries, m.tolist()):
            for v, cost in zip(row, costs):
                if v:
                    total += v * cost
        return total


def canonical_sequence(r: Histogram) -> IndexSequence:
    """Sorted flattening of a histogram: r_1 ones, then r_2 twos, and so on."""
    entries: list[int] = []
    for i, count in enumerate(r.counts, start=1):
        entries.extend([i] * count)
    return IndexSequence(tuple(entries), r.d)


def permuted_sequence(r: Histogram, sigma: Permutation) -> IndexSequence:
    """Block-permuted flattening: r_sigma(1) copies of sigma(1) first, and so on.

    Equals the canonical sequence of r with its blocks reordered by sigma,
    which is exactly the canonical sequence of the relabelled histogram
    read back through the relabelling.
    """
    if sigma.n != r.d:
        raise DimensionMismatchError(
            f"permutation of size {sigma.n} applied to {r.d} bins"
        )
    entries: list[int] = []
    for i in range(1, r.d + 1):
        symbol = sigma(i)
        entries.extend([symbol] * r.counts[symbol - 1])
    return IndexSequence(tuple(entries), r.d)


def chi(rho: IndexSequence, gamma: IndexSequence) -> ContingencyTable:
    """Pair-counting table: entry (i, j) counts positions t with rho_t = i, gamma_t = j.

    Row sums give the content of rho and column sums the content of gamma,
    so the image always lies in the table set of that histogram pair.
    """
    if rho.d != gamma.d:
        raise DimensionMismatchError(
            f"sequences over alphabets of sizes {rho.d} and {gamma.d}"
        )
    if len(rho) != len(gamma):
        raise LengthMismatchError(
            f"sequences of lengths {len(rho)} and {len(gamma)} paired position-wise"
        )
    d = rho.d
    counts = [[0] * d for _ in range(d)]
    for i, j in zip(rho.entries, gamma.entries):
        counts[i - 1][j - 1] += 1
    return ContingencyTable(tuple(tuple(row) for row in counts))
