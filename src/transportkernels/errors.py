"""Exception types shared across the package."""

from __future__ import annotations


class TransportKernelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TransportKernelError, ValueError):
    """A value fails its construction-time contract."""


class EntryError(ValidationError):
    """A matrix entry fails its contract; carries its (row, column)."""

    def __init__(self, entry: tuple[int, int], message: str):
        super().__init__(message)
        self.entry = entry


class DimensionMismatchError(TransportKernelError, ValueError):
    """Operands live over different numbers of bins."""


class MassMismatchError(TransportKernelError, ValueError):
    """Histogram pair with unequal total mass; the table set is empty."""


class LengthMismatchError(TransportKernelError, ValueError):
    """Sequences of unequal length were combined position-wise."""


class BudgetExceededError(TransportKernelError, RuntimeError):
    """Enumeration or a recurrence box exceeded its budget; raised instead of truncating.

    The message names the cap and what exceeded it. A table stream raises
    it in place of the first table over its budget, after yielding the
    tables within it.
    """


class KernelEvaluationError(TransportKernelError, RuntimeError):
    """A kernel evaluation failed while building a Gram matrix."""


class ParseError(TransportKernelError, ValueError):
    """An input file is malformed; carries the path and 1-based line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
