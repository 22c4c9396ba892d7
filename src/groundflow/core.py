"""Shared domain types: grids, heatmaps, offset fields, detections and
trajectories, all on the ground plane.

Conventions used everywhere in this package:

* Grid coordinates are (x, y) with x in [0, w) and y in [0, h).
* Dense per-cell data is stored as a numpy array of shape (h, w),
  row-major by y, so ``a[y, x]`` is the value of cell (x, y).
* Integer coordinate k denotes the center of cell k; continuous
  positions live in the same coordinate frame.

All types are immutable after construction (arrays are copied and
marked read-only) and safe to share across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatch


def _frozen_array(values, shape=None, dtype=np.float64) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    if shape is not None and a.shape != tuple(shape):
        raise DimensionMismatch(f"expected array of shape {tuple(shape)}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GroundGrid:
    """Discretized ground plane of width x height cells; lengths are in cells."""

    width_cells: int
    height_cells: int

    def __post_init__(self):
        if int(self.width_cells) < 1 or int(self.height_cells) < 1:
            raise ValueError(
                f"grid must be at least 1x1, got {self.width_cells}x{self.height_cells}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Numpy storage shape (h, w)."""
        return (self.height_cells, self.width_cells)


@dataclass(frozen=True)
class Heatmap:
    """Per-cell probability of presence, values in [0, 1]."""

    grid: GroundGrid
    values: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.values, self.grid.shape)
        if not np.all(np.isfinite(a)):
            raise ValueError("heatmap values must be finite")
        if a.size and (a.min() < 0.0 or a.max() > 1.0):
            raise ValueError("heatmap values must lie in [0, 1]")
        object.__setattr__(self, "values", a)


@dataclass(frozen=True)
class OffsetField:
    """Per-cell 2D displacement in grid cells per frame interval."""

    grid: GroundGrid
    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        dx = _frozen_array(self.dx, self.grid.shape)
        dy = _frozen_array(self.dy, self.grid.shape)
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
            raise ValueError("offset components must be finite")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)

    @classmethod
    def zeros(cls, grid: GroundGrid) -> "OffsetField":
        z = np.zeros(grid.shape)
        return cls(grid, z, z.copy())


@dataclass(frozen=True)
class Detection:
    """One detection at continuous grid coordinates, with its confidence."""

    time: int
    x: float
    y: float
    confidence: float


@dataclass(frozen=True)
class Trajectory:
    """A time-indexed identity path: ordered (time, x, y) samples."""

    id: int
    points: tuple  # of (time, x, y)

    def __post_init__(self):
        pts = tuple((int(t), float(x), float(y)) for t, x, y in self.points)
        if not pts:
            raise ValueError("trajectory must contain at least one point")
        times = [p[0] for p in pts]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "points", pts)
