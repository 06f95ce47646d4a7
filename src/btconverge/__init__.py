"""Convergence analysis for behavior-tree control policies over finite cell worlds."""

from .bt import BTModel, Doa, LeafData, NodeKind, Status, action, condition, fal, seq
from .statespace import BTConvergeError, Region, SuccessorMap, World, step_bound

__version__ = "0.1.0"

__all__ = [
    "BTConvergeError",
    "BTModel",
    "Doa",
    "LeafData",
    "NodeKind",
    "Region",
    "Status",
    "SuccessorMap",
    "World",
    "action",
    "condition",
    "fal",
    "seq",
    "step_bound",
    "__version__",
]
