"""Gram matrices and positive semidefiniteness certificates.

Kernel claims are certified empirically: build the Gram matrix of a
histogram family, compute its full spectrum, and compare the smallest
eigenvalue against a relative tolerance. The eigensolver is a Jacobi
rotation sweep in round-robin order, kept inside the repository so the
certificate does not depend on a LAPACK build; each step rotates up to
n/2 disjoint pairs at once, and sweeps stop once the off-diagonal
Frobenius mass falls below 1e-12 of the matrix norm. Rotations are
accumulated, so the factorization can be checked by reassembling the
matrix from its eigenpairs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    ConvergenceError,
    KernelEvaluationError,
    ValidationError,
)
from .histograms import Histogram
from .polytope import WeightSpec

KERNEL_IDS = ("volume", "nw", "pseudo", "oracle")

OFF_DIAGONAL_FACTOR = 1e-12
MAX_SWEEPS = 60
SYMMETRY_REL_TOL = 1e-12

# kernel(r, cs) -> [K(r, c) for c in cs]
RowKernel = Callable[[Histogram, Sequence[Histogram]], Sequence[float]]


def dataset_digest(histograms: Sequence[Histogram]) -> str:
    """SHA-256 over a canonical rendering of the histogram list."""
    text = "\n".join(",".join(str(v) for v in h.counts) for h in histograms)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric kernel matrix tagged with its provenance.

    Construction rejects non-finite entries, and asymmetry beyond 1e-12
    relative instead of silently fixing it; within tolerance the matrix
    is stored averaged with its transpose.
    """

    values: np.ndarray
    kernel_id: str
    dataset_hash: str = ""

    def __post_init__(self) -> None:
        if self.kernel_id not in KERNEL_IDS:
            raise ValidationError(
                f"kernel_id must be one of {KERNEL_IDS}, got {self.kernel_id!r}"
            )
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValidationError("Gram matrix has non-finite entries")
        scale = max(1.0, float(np.abs(values).max()) if values.size else 0.0)
        asym = float(np.abs(values - values.T).max()) if values.size else 0.0
        if asym > SYMMETRY_REL_TOL * scale:
            raise ValidationError(
                f"Gram matrix asymmetry {asym:.3e} exceeds {SYMMETRY_REL_TOL:.0e} "
                "relative; refusing to symmetrize silently"
            )
        values = (values + values.T) / 2.0
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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint (p < q) index pairs covering every pair once.

    The circle method on n padded to even: one index stays fixed, the
    others rotate one place per round, and position i meets position
    m - 1 - i. Pairs that touch the pad index are dropped.
    """
    m = n + n % 2
    ring = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        p, q = np.sort([ring[: m // 2], ring[::-1][: m // 2]], axis=0)
        keep = q < n
        rounds.append((p[keep], q[keep]))
        ring[1:] = np.roll(ring[1:], 1)
    return rounds


def jacobi_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix by round-robin Jacobi rotations.

    Returns eigenvalues in ascending order with the matching eigenvector
    columns. A sweep is n - 1 rounds (n padded to even); each round
    applies up to n/2 disjoint rotations at once (Brent & Luk, 1985).
    Sweeps stop when the off-diagonal Frobenius norm drops below
    OFF_DIAGONAL_FACTOR times the norm of the input.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    n = a.shape[0]
    vectors = np.eye(n)
    target = OFF_DIAGONAL_FACTOR * float(np.linalg.norm(a))
    off_diag = ~np.eye(n, dtype=bool)
    rounds = _round_robin(n)
    for _ in range(MAX_SWEEPS):
        # Sum off-diagonal squares directly: the difference of two full
        # sums cancels catastrophically and floors near sqrt(eps)*norm.
        off = math.sqrt(float((a[off_diag] ** 2).sum()))
        if off <= target:
            break
        for p, q in rounds:
            apq = a[p, q]
            nonzero = apq != 0.0
            p, q, apq = p[nonzero], q[nonzero], apq[nonzero]
            # tan of the smaller angle that zeroes a[p, q], in a form that
            # cannot overflow however small the angle.
            half = (a[q, q] - a[p, p]) / 2.0
            sign = np.where(half >= 0.0, 1.0, -1.0)
            t = sign * apq / (np.abs(half) + np.hypot(half, apq))
            cos = 1.0 / np.sqrt(t * t + 1.0)
            sin = t * cos
            # Columns, then rows through the transpose view, then vectors.
            for x in (a, a.T, vectors):
                xp, xq = x[:, p], x[:, q]
                x[:, p] = cos * xp - sin * xq
                x[:, q] = sin * xp + cos * xq
            a[p, q] = a[q, p] = 0.0
    else:
        raise ConvergenceError(
            f"off-diagonal mass did not reach {target:.3e} in {MAX_SWEEPS} sweeps"
        )
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]


def require_tolerance(tolerance: float) -> None:
    if tolerance < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tolerance}")


def _certify(values: np.ndarray, tolerance: float) -> PsdCertificate:
    require_tolerance(tolerance)
    eigenvalues, _ = jacobi_eigh(values)
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    passed = lo >= -tolerance * max(1.0, hi)
    return PsdCertificate(
        min_eigenvalue=lo, max_eigenvalue=hi, tolerance=tolerance, passed=passed
    )


def certify_psd(gram: GramMatrix, tolerance: float = 1e-8) -> PsdCertificate:
    """Spectral test: pass iff min eigenvalue >= -tolerance * max(1, max eigenvalue)."""
    return _certify(gram.values, tolerance)


def psd_weight_check(w: WeightSpec, tolerance: float = 1e-8) -> PsdCertificate:
    """Certify the entry-weight matrix K itself; kernels require K symmetric PSD."""
    if not w.is_symmetric():
        raise ValidationError(
            "weight matrix is not symmetric; the positive definite kernel "
            "construction requires a symmetric K"
        )
    return _certify((w.weight + w.weight.T) / 2.0, tolerance)


def pairwise(f: Callable[[Histogram, Histogram], float]) -> RowKernel:
    """The row kernel that evaluates a per-pair kernel once per column."""
    return lambda r, cs: [f(r, c) for c in cs]


def build_gram(
    histograms: Sequence[Histogram],
    kernel: RowKernel,
    kernel_id: str,
) -> GramMatrix:
    """Evaluate a row kernel on every suffix of the family and mirror the rows.

    kernel(r, cs) returns the values K(r, c) for c in cs. It is called
    once per p with (histograms[p], histograms[p:]), which fills row p
    and column p: m calls, m(m+1)/2 values. Use `pairwise` to wrap a
    per-pair kernel. All histograms must share both the bin count and
    the total mass; kernels here are defined only within one
    equal-dimension, equal-mass family. Failures other than
    BudgetExceededError are wrapped in KernelEvaluationError naming the
    row, which a row of the wrong length raises too.
    """
    histograms = list(histograms)
    if not histograms:
        raise ValidationError("cannot build a Gram matrix over zero histograms")
    d = histograms[0].d
    mass = histograms[0].mass
    for pos, h in enumerate(histograms):
        if h.d != d:
            raise ValidationError(
                f"histogram {pos} has {h.d} bins but histogram 0 has {d}; "
                "a Gram matrix needs one common dimension"
            )
        if h.mass != mass:
            raise ValidationError(
                f"histogram {pos} has mass {h.mass} but histogram 0 has {mass}; "
                "kernels compare histograms within one equal-mass family only"
            )
    m = len(histograms)
    values = np.zeros((m, m))
    for p in range(m):
        try:
            row = [float(v) for v in kernel(histograms[p], histograms[p:])]
        except BudgetExceededError:
            raise
        except Exception as exc:
            raise KernelEvaluationError(
                f"kernel evaluation failed at row {p}: {exc}"
            ) from exc
        if len(row) != m - p:
            raise KernelEvaluationError(
                f"kernel returned {len(row)} values for the {m - p} columns of row {p}"
            )
        values[p, p:] = row
        values[p:, p] = row
    return GramMatrix(
        values=values, kernel_id=kernel_id, dataset_hash=dataset_digest(histograms)
    )
