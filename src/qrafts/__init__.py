"""Exact q-series verification of raft-move identities on distinct-part partitions."""

from .identities import (
    PROFILES,
    REGISTRY,
    CheckReport,
    FirstDiff,
    IdentityCheck,
    first_difference,
    run_check,
    run_many,
)
from .partitions import EvenPartition, Partition
from .rafts import (
    MinimalProfile,
    MoveError,
    RaftedPartition,
    RaftError,
    compose,
    decompose,
    enumerate_minimal,
    enumerate_rafted,
    minimal_profile,
)
from .series import (
    NonUnitConstantError,
    PochhammerSpec,
    QSeries,
    TruncationMismatchError,
    XQSeries,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "EvenPartition",
    "FirstDiff",
    "IdentityCheck",
    "MinimalProfile",
    "MoveError",
    "NonUnitConstantError",
    "PROFILES",
    "Partition",
    "PochhammerSpec",
    "QSeries",
    "REGISTRY",
    "RaftError",
    "RaftedPartition",
    "TruncationMismatchError",
    "XQSeries",
    "__version__",
    "compose",
    "decompose",
    "enumerate_minimal",
    "enumerate_rafted",
    "first_difference",
    "minimal_profile",
    "run_check",
    "run_many",
]
