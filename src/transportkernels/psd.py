"""Gram matrices and positive semidefiniteness certificates.

Kernel claims are certified empirically: build the Gram matrix of a
histogram family and compare its smallest eigenvalue against a
tolerance scaled by its largest. Both come from LAPACK's symmetric
eigensolver through numpy.linalg.eigvalsh, which is backward stable,
so each eigenvalue is accurate to a small multiple of eps * norm(G).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import KernelEvaluationError, TransportKernelError, ValidationError
from .histograms import _BOOLS, Histogram
from .polytope import WeightSpec, _require_square, require_family

SYMMETRY_REL_TOL = 1e-12


def _symmetric(values, what: str) -> np.ndarray:
    """A square, nonempty, finite, symmetric matrix as its mirror mean.

    Asymmetry beyond SYMMETRY_REL_TOL * max(1, max |v|) raises
    ValidationError rather than being fixed silently. Halves are
    subtracted and averaged, so no intermediate overflows near the float
    limit, and entries equal to their mirror are kept bit-identical,
    subnormal ones included.
    """
    values = np.asarray(values, dtype=float)
    _require_square(values, what)
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} has non-finite entries")
    half = values / 2.0
    scale = max(1.0, float(np.abs(values).max()))
    asym = 2.0 * float(np.abs(half - half.T).max())
    if asym > SYMMETRY_REL_TOL * scale:
        raise ValidationError(
            f"{what} asymmetry {asym:.3e} exceeds {SYMMETRY_REL_TOL:.0e} "
            "relative; refusing to symmetrize silently"
        )
    return np.where(values == values.T, values, half + half.T)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric kernel matrix.

    Construction rejects a matrix that is not square and nonempty,
    non-finite entries, and asymmetry beyond 1e-12 relative to
    max(1, max |v|), each with ValidationError; within that tolerance
    the matrix is stored as the mean of itself and its transpose,
    exactly symmetric entries unchanged.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _symmetric(self.values, "Gram matrix")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PsdCertificate:
    """Spectrum summary and the verdict of the semidefiniteness test."""

    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def require_tolerance(tolerance: float) -> None:
    """A NaN or infinite tolerance would pass or fail every matrix alike.

    A bool or numpy bool, which compares as 0 or 1, is no tolerance and
    raises ValidationError, as `histograms._as_int` refuses a bool count.
    """
    if type(tolerance) in _BOOLS:
        raise ValidationError(f"tolerance is not a real: {tolerance!r}")
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValidationError(f"tolerance must be nonnegative and finite, got {tolerance}")


def _certify(values: np.ndarray, tolerance: float) -> PsdCertificate:
    """Certify a matrix that `_symmetric` has already validated.

    A spectrum beyond the float range raises ValidationError, so no
    verdict rests on an infinite eigenvalue.
    """
    require_tolerance(tolerance)
    lo, hi = np.linalg.eigvalsh(values)[[0, -1]].tolist()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"matrix spectrum overflows the float range: [{lo}, {hi}]")
    passed = lo >= -tolerance * max(1.0, hi)
    return PsdCertificate(
        min_eigenvalue=lo, max_eigenvalue=hi, tolerance=tolerance, passed=passed
    )


def certify_psd(gram: GramMatrix, tolerance: float = 1e-8) -> PsdCertificate:
    """Spectral test: pass iff min eigenvalue >= -tolerance * max(1, max eigenvalue)."""
    return _certify(gram.values, tolerance)


def psd_weight_check(w: WeightSpec, tolerance: float = 1e-8) -> PsdCertificate:
    """Certify the entry-weight matrix K itself; kernels require K symmetric PSD.

    K must be symmetric within the same 1e-12 relative rule as a Gram
    matrix, else ValidationError ("weight matrix asymmetry ... exceeds");
    within it, the mirror mean of K is certified.
    """
    return _certify(_symmetric(w.weight, "weight matrix"), tolerance)


def build_gram(
    histograms: Sequence[Histogram],
    kernel: Callable[[list[Histogram], np.ndarray], Iterable[float]],
) -> GramMatrix:
    """Evaluate a kernel on the upper triangle of the family and mirror it.

    kernel(histograms, pairs) is called once, with pairs the (p, q) of
    the upper triangle q >= p in row-major order as an (m(m+1)/2, 2)
    integer array, and yields K(h_p, h_q) for each pair in turn, possibly
    lazily; row p's m - p values fill row p and column p. Every
    `*_pairs` kernel takes this shape once its other arguments are bound.
    The matrix does not name its kernel: the caller that chose the kernel
    records it, as `cli.cmd_gram` writes --kernel to its manifest.
    An empty family raises ValidationError. The family is checked by
    `require_family` before the kernel runs, so a histogram whose bin
    count or mass differs from the first raises DimensionMismatchError
    or MassMismatchError naming it, as the kernels do. The package's own
    errors raised by the kernel (a TransportKernelError such as
    BudgetExceededError or DimensionMismatchError) pass through as
    raised; any other exception is wrapped in KernelEvaluationError
    naming the row, which a stream that ends early or yields one value
    too many raises too.
    """
    histograms = list(histograms)
    if not histograms:
        raise ValidationError("cannot build a Gram matrix over zero histograms")
    require_family(histograms)
    m = len(histograms)
    pairs = np.transpose(np.triu_indices(m))
    values = np.zeros((m, m))
    end = object()
    p = 0
    try:
        stream = iter(kernel(histograms, pairs))
        for p in range(m):
            # float() first: fromiter would read None as NaN
            row = np.fromiter(map(float, itertools.islice(stream, m - p)), float)
            if len(row) != m - p:
                raise KernelEvaluationError(
                    f"kernel returned {len(row)} values for the {m - p} columns of row {p}"
                )
            values[p, p:] = row
            values[p:, p] = row
        if next(stream, end) is not end:
            raise KernelEvaluationError(
                f"kernel returned more than the {len(pairs)} values of the upper triangle"
            )
    except TransportKernelError:
        raise
    except Exception as exc:
        raise KernelEvaluationError(f"kernel evaluation failed at row {p}: {exc}") from exc
    return GramMatrix(values)
