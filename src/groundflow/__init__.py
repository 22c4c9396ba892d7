"""groundflow: ground-plane multi-target tracking with motion fields
learned from detection-only supervision.
"""

from .core import (
    Detection,
    GroundGrid,
    Heatmap,
    OffsetField,
    Trajectory,
)
from .warp import ReconstructionConfig, reconstruct, reconstruct_dense, weight

__version__ = "0.1.0"

__all__ = [
    "Detection",
    "GroundGrid",
    "Heatmap",
    "OffsetField",
    "ReconstructionConfig",
    "Trajectory",
    "reconstruct",
    "reconstruct_dense",
    "weight",
    "__version__",
]
