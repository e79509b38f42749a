"""Sparse Fast Johnson-Lindenstrauss embeddings with a verification harness.

The embedding of a vector x is k^{-1/2} P H D x: a Rademacher sign diagonal,
a fast Walsh-Hadamard transform, and a very sparse Gaussian projection whose
occupancy rate q is set by closed-form schedulers.  The verify module checks
the per-vector distortion rates by simulation, the lemmas module the tail
bounds behind them by simulation and exact oracles, and the bench module
compares embedding times against dense Gaussian JL.
"""

from .errors import (
    DatasetFormatError,
    DimensionError,
    DimensionMismatchError,
    DomainError,
    FastJlError,
    InstanceError,
    ParameterError,
)
from .instances import (
    HardInstance,
    hard_vector,
    random_unit_vector,
    read_vectors,
    write_vectors,
)
from .sparsity import (
    choose_k,
    q_ailon_chazelle,
    q_lower_threshold,
    q_theorem1,
)
from .transform import (
    JlParams,
    NormCriterion,
    SignDiagonal,
    SparseProjection,
    apply_phd,
    embed,
    embed_with,
    fwht_inplace,
    sample_projection,
    sample_signs,
)

__version__ = "0.1.0"

__all__ = [
    "FastJlError",
    "DimensionError",
    "ParameterError",
    "DomainError",
    "InstanceError",
    "DatasetFormatError",
    "DimensionMismatchError",
    "JlParams",
    "NormCriterion",
    "SignDiagonal",
    "SparseProjection",
    "fwht_inplace",
    "sample_signs",
    "sample_projection",
    "apply_phd",
    "embed",
    "embed_with",
    "q_theorem1",
    "q_ailon_chazelle",
    "q_lower_threshold",
    "choose_k",
    "HardInstance",
    "hard_vector",
    "random_unit_vector",
    "read_vectors",
    "write_vectors",
    "__version__",
]
