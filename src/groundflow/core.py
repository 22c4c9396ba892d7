"""Shared domain types: grids, heatmaps, offset fields, detections,
trajectories and camera calibration.

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

from dataclasses import dataclass, field
import numpy as np

from .errors import DimensionMismatch, PointAtInfinity, SingularHomography


def _frozen_array(values, shape=None, dtype=np.float64) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    if shape is not None and a.shape != tuple(shape):
        raise DimensionMismatch(f"expected array of shape {tuple(shape)}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GroundGrid:
    """Discretized ground plane: width x height cells of cell_size_m meters."""

    width_cells: int
    height_cells: int
    cell_size_m: float = 0.20

    def __post_init__(self):
        if int(self.width_cells) < 1 or int(self.height_cells) < 1:
            raise ValueError(
                f"grid must be at least 1x1, got {self.width_cells}x{self.height_cells}"
            )
        if not (self.cell_size_m > 0):
            raise ValueError("cell_size_m must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        """Numpy storage shape (h, w)."""
        return (self.height_cells, self.width_cells)

    def contains(self, x: float, y: float) -> bool:
        return 0 <= x < self.width_cells and 0 <= y < self.height_cells


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

    @classmethod
    def zeros(cls, grid: GroundGrid) -> "Heatmap":
        return cls(grid, np.zeros(grid.shape))


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
    """A single post-NMS detection at continuous grid coordinates."""

    time: int
    x: float
    y: float
    confidence: float

    @property
    def pos(self) -> tuple[float, float]:
        return (self.x, self.y)


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

    @property
    def times(self) -> list[int]:
        return [p[0] for p in self.points]


def homography_from_calib(K, R, t) -> np.ndarray:
    """Ground-plane (z = 0) homography from intrinsics and pose.

    Columns of [R | t] for the flat-ground convention are (r1, r2, t),
    pre-multiplied by K.
    """
    K = np.asarray(K, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64).reshape(3)
    if K.shape != (3, 3) or R.shape != (3, 3):
        raise DimensionMismatch("K and R must be 3x3")
    H = K @ np.column_stack([R[:, 0], R[:, 1], t])
    if abs(np.linalg.det(H)) < 1e-12:
        raise SingularHomography(f"homography is singular (|det| = {abs(np.linalg.det(H)):.3e})")
    return H


def project_point(H, p) -> tuple[float, float]:
    """Apply a 3x3 homography to a 2D point; raises if the image is at infinity."""
    H = np.asarray(H, dtype=np.float64)
    v = H @ np.array([p[0], p[1], 1.0])
    if abs(v[2]) <= 1e-12:
        raise PointAtInfinity(f"projected point has |z| = {abs(v[2]):.3e}")
    return (v[0] / v[2], v[1] / v[2])


@dataclass(frozen=True)
class CameraModel:
    """Calibrated camera; H maps ground-plane points to the image plane."""

    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    H: np.ndarray = field(init=False)

    def __post_init__(self):
        K = _frozen_array(self.K, (3, 3))
        R = _frozen_array(self.R, (3, 3))
        t = _frozen_array(np.asarray(self.t).reshape(3), (3,))
        H = homography_from_calib(K, R, t)
        H.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "H", H)

    def ground_to_image(self, p) -> tuple[float, float]:
        return project_point(self.H, p)

    def image_to_ground(self, p) -> tuple[float, float]:
        return project_point(np.linalg.inv(self.H), p)
