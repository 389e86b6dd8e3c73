"""Positive definite kernels between integral histograms.

Two histograms with the same number of bins and the same total mass
bound a transportation polytope; its lattice points are the contingency
tables with those margins. Summing an entrywise weight product over all
tables gives the weighted volume, a kernel that is positive definite
whenever the entry-weight matrix is. Sampling corner-rule vertices
instead of summing the whole polytope gives a cheap positive definite
surrogate, and the exact transport optimum is kept alongside as the
classical (indefinite) baseline.
"""

from . import fileio
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    EntryError,
    KernelEvaluationError,
    LengthMismatchError,
    MassMismatchError,
    ParseError,
    TransportKernelError,
    ValidationError,
)
from .histograms import (
    ContingencyTable,
    Histogram,
    IndexSequence,
    Permutation,
    canonical_sequence,
    chi,
    permuted_sequence,
)
from .northwest import (
    PermutationSet,
    nw_cost_matrix,
    nw_kernel,
    nw_kernel_pairs,
    nw_permuted,
    nw_table,
    sample_permutations,
)
from .ot import (
    TransportSolution,
    monge_check,
    ot_cost,
    pseudo_kernel,
    pseudo_kernel_pairs,
)
from .polytope import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    WeightSpec,
    count_tables,
    enumerate_tables,
    fisher_yates,
    generating_function,
    require_family,
    softmin,
    weighted_volume,
    weighted_volume_pairs,
)
from .psd import (
    GramMatrix,
    PsdCertificate,
    build_gram,
    certify_psd,
    psd_weight_check,
)

__version__ = "0.1.0"
