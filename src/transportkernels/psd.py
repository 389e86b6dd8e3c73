"""Gram matrices and positive semidefiniteness certificates.

Kernel claims are certified empirically: build the Gram matrix of a
histogram family, compute its full spectrum, and compare the smallest
eigenvalue against a relative tolerance. The eigensolver is a cyclic
Jacobi rotation sweep kept inside the repository so the certificate does
not depend on a LAPACK build; sweeps stop once the off-diagonal
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
SYMMETRY_REL_TOL = 1e-12


def dataset_digest(histograms: Sequence[Histogram]) -> str:
    """SHA-256 over a canonical rendering of the histogram list."""
    text = "\n".join(",".join(str(v) for v in h.counts) for h in histograms)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric kernel matrix tagged with its provenance.

    Construction rejects asymmetry beyond 1e-12 relative instead of
    silently fixing it; within tolerance the matrix is stored averaged
    with its transpose.
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


def jacobi_eigh(
    a,
    off_factor: float = OFF_DIAGONAL_FACTOR,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in ascending order with the matching eigenvector
    columns. Sweeps rotate every upper-triangle pair in turn until the
    off-diagonal Frobenius norm drops below off_factor times the norm of
    the input.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    n = a.shape[0]
    vectors = np.eye(n)
    norm = float(np.linalg.norm(a))
    if n == 1 or norm == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], vectors[:, order]

    target = off_factor * norm
    off_diag = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # Sum off-diagonal squares directly: the difference of two full
        # sums cancels catastrophically and floors near sqrt(eps)*norm.
        off = math.sqrt(float((a[off_diag] ** 2).sum()))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(diff) + 100.0 * abs(apq) == abs(diff):
                    # Angle below resolvable precision; the exact formula
                    # would overflow computing theta^2.
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    sign = 1.0 if theta >= 0.0 else -1.0
                    t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                # Two-sided rotation in the (p, q) plane.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = cos * col_p - sin * col_q
                a[:, q] = sin * col_p + cos * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = cos * row_p - sin * row_q
                a[q, :] = sin * row_p + cos * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = vectors[:, p].copy()
                vec_q = vectors[:, q].copy()
                vectors[:, p] = cos * vec_p - sin * vec_q
                vectors[:, q] = sin * vec_p + cos * vec_q
    else:
        raise ConvergenceError(
            f"off-diagonal mass did not reach {target:.3e} in {max_sweeps} sweeps"
        )
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]


def certify_psd(gram: GramMatrix, tolerance: float = 1e-8) -> PsdCertificate:
    """Spectral test: pass iff min eigenvalue >= -tolerance * max(1, max eigenvalue)."""
    if tolerance < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tolerance}")
    if not np.isfinite(gram.values).all():
        raise ValidationError("Gram matrix has non-finite entries")
    eigenvalues, _ = jacobi_eigh(gram.values)
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    passed = lo >= -tolerance * max(1.0, hi)
    return PsdCertificate(
        min_eigenvalue=lo, max_eigenvalue=hi, tolerance=tolerance, passed=passed
    )


def psd_weight_check(w: WeightSpec, tolerance: float = 1e-8) -> PsdCertificate:
    """Certify the entry-weight matrix K itself; kernels require K symmetric PSD."""
    if not w.is_symmetric():
        raise ValidationError(
            "weight matrix is not symmetric; the positive definite kernel "
            "construction requires a symmetric K"
        )
    k = (w.weight + w.weight.T) / 2.0
    eigenvalues, _ = jacobi_eigh(k)
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    passed = lo >= -tolerance * max(1.0, hi)
    return PsdCertificate(
        min_eigenvalue=lo, max_eigenvalue=hi, tolerance=tolerance, passed=passed
    )


def build_gram(
    histograms: Sequence[Histogram],
    kernel: Callable[[Histogram, Histogram], float],
    kernel_id: str,
) -> GramMatrix:
    """Evaluate a kernel on every unordered pair and mirror the triangle.

    All histograms must share both the bin count and the total mass;
    kernels here are defined only within one equal-dimension, equal-mass
    family. Exactly m(m+1)/2 kernel evaluations are made; failures other
    than BudgetExceededError are wrapped in KernelEvaluationError.
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
        for q in range(p, m):
            try:
                v = float(kernel(histograms[p], histograms[q]))
            except BudgetExceededError:
                raise
            except Exception as exc:
                raise KernelEvaluationError(
                    f"kernel evaluation failed at pair ({p}, {q}): {exc}"
                ) from exc
            values[p, q] = v
            values[q, p] = v
    return GramMatrix(
        values=values, kernel_id=kernel_id, dataset_hash=dataset_digest(histograms)
    )
