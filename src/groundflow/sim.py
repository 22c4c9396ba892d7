"""Deterministic synthetic ground-plane crowd scenes.

Agents follow a constant-speed heading random walk with reflecting
borders. The generator emits exact trajectories, per-frame ground-truth
heatmaps (Gaussian peaks combined by per-cell max), per-pair ground
truth offset fields defined at the agents' cells, and a corrupted
detection stream (misses, positional jitter, confidence noise, uniform
false positives). Everything is a pure function of the config seed via
the counter-based streams in :mod:`groundflow.rng`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .core import Detection, GroundGrid, Heatmap, OffsetField, Trajectory
from .errors import ConfigError, OutOfBoundsPoint

# rng channel ids: one per independent decision
_CH_INIT_X = 1
_CH_INIT_Y = 2
_CH_INIT_HEADING = 3
_CH_SPEED = 4
_CH_TURN = 5
_CH_MISS = 6
_CH_JITTER_X = 7
_CH_JITTER_Y = 8
_CH_CONF = 9
_CH_FP_COUNT = 10
_CH_FP_X = 11
_CH_FP_Y = 12
_CH_FP_CONF = 13


@dataclass(frozen=True)
class SceneConfig:
    grid: GroundGrid
    num_agents: int
    num_frames: int
    speed_cells: tuple[float, float] = (0.8, 2.0)
    turn_sigma_rad: float = 0.25
    miss_rate: float = 0.0
    fp_rate_per_frame: float = 0.0
    jitter_sigma_cells: float = 0.0
    gaussian_sigma_cells: float = 1.0
    gaussian_radius_cells: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.num_agents < 1:
            raise ConfigError("num_agents must be >= 1")
        if self.num_frames < 1:
            raise ConfigError("num_frames must be >= 1")
        lo, hi = self.speed_cells
        if not (0 <= lo <= hi):
            raise ConfigError("speed range must satisfy 0 <= min <= max")
        if not (0 <= self.miss_rate < 1):
            raise ConfigError("miss_rate must lie in [0, 1)")
        if self.fp_rate_per_frame < 0 or self.jitter_sigma_cells < 0:
            raise ConfigError("noise rates must be nonnegative")
        if self.fp_rate_per_frame > rng.POISSON_MAX_RATE:
            raise ConfigError(f"fp_rate_per_frame must be <= {rng.POISSON_MAX_RATE}")
        if not (self.gaussian_sigma_cells > 0):
            raise ConfigError("gaussian_sigma_cells must be positive")
        if self.gaussian_radius_cells < self.gaussian_sigma_cells:
            raise ConfigError("gaussian_radius_cells must be >= gaussian_sigma_cells")
        # a full step must fit between the walls so reflection preserves speed
        if min(self.grid.width_cells, self.grid.height_cells) - 1 <= 2 * hi:
            raise ConfigError("grid too small for the configured max speed")


@dataclass(frozen=True)
class SceneTruth:
    """Simulator output: exact trajectories plus derived supervision."""

    config: SceneConfig
    trajectories: tuple[Trajectory, ...]
    gt_heatmaps: tuple[Heatmap, ...]
    gt_offsets: tuple[OffsetField, ...]          # one per frame pair
    gt_points: tuple[tuple[tuple[float, float], ...], ...]   # per frame
    gt_cells: tuple[tuple[tuple[int, int, float, float], ...], ...]
    # per pair: (cell_x, cell_y, offset_dx, offset_dy) rows

    @property
    def num_frames(self) -> int:
        return len(self.gt_heatmaps)


def render_heatmap(points, grid: GroundGrid, sigma: float, radius: float) -> Heatmap:
    """Paste a Gaussian kernel at each point; overlaps combine by max."""
    h, w = grid.shape
    values = np.zeros((h, w))
    for (px, py) in points:
        if not (0 <= px < w and 0 <= py < h):
            raise OutOfBoundsPoint(f"point ({px}, {py}) outside {w}x{h} grid")
        x0 = max(0, int(math.floor(px - radius)))
        x1 = min(w - 1, int(math.ceil(px + radius)))
        y0 = max(0, int(math.floor(py - radius)))
        y1 = min(h - 1, int(math.ceil(py + radius)))
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        d2 = (xs - px) ** 2 + (ys - py) ** 2
        kernel = np.where(d2 <= radius * radius, np.exp(-d2 / (2.0 * sigma * sigma)), 0.0)
        np.maximum(values[y0:y1 + 1, x0:x1 + 1], kernel, out=values[y0:y1 + 1, x0:x1 + 1])
    return Heatmap(grid, values)


def _reflect_step(x: float, y: float, vx: float, vy: float, w: int, h: int):
    """Advance one step, flipping velocity components that would exit.

    The full step is taken with the (possibly flipped) velocity, so the
    displacement norm always equals the speed.
    """
    if not (0.0 <= x + vx <= w - 1):
        vx = -vx
    if not (0.0 <= y + vy <= h - 1):
        vy = -vy
    return x + vx, y + vy, vx, vy


def _nearest_cell(px: float, py: float) -> tuple[int, int]:
    # deterministic half-up rounding (no banker's rounding)
    return int(math.floor(px + 0.5)), int(math.floor(py + 0.5))


def generate_scene(cfg: SceneConfig) -> SceneTruth:
    w, h = cfg.grid.width_cells, cfg.grid.height_cells
    seed = cfg.seed
    lo, hi = cfg.speed_cells

    positions = np.zeros((cfg.num_agents, cfg.num_frames, 2))
    for a in range(cfg.num_agents):
        x = rng.uniform(seed, _CH_INIT_X, a) * (w - 1)
        y = rng.uniform(seed, _CH_INIT_Y, a) * (h - 1)
        heading = rng.uniform(seed, _CH_INIT_HEADING, a) * 2.0 * math.pi
        speed = lo + (hi - lo) * rng.uniform(seed, _CH_SPEED, a)
        positions[a, 0] = (x, y)
        for f in range(1, cfg.num_frames):
            if cfg.turn_sigma_rad > 0:
                heading += cfg.turn_sigma_rad * rng.normal(seed, _CH_TURN, a, f)
            vx = speed * math.cos(heading)
            vy = speed * math.sin(heading)
            x, y, vx2, vy2 = _reflect_step(x, y, vx, vy, w, h)
            if vx2 != vx or vy2 != vy:
                heading = math.atan2(vy2, vx2)
            positions[a, f] = (x, y)

    trajectories = tuple(
        Trajectory(a, tuple((f, positions[a, f, 0], positions[a, f, 1])
                            for f in range(cfg.num_frames)))
        for a in range(cfg.num_agents)
    )
    gt_points = tuple(
        tuple((positions[a, f, 0], positions[a, f, 1]) for a in range(cfg.num_agents))
        for f in range(cfg.num_frames)
    )
    gt_heatmaps = tuple(
        render_heatmap(gt_points[f], cfg.grid, cfg.gaussian_sigma_cells,
                       cfg.gaussian_radius_cells)
        for f in range(cfg.num_frames)
    )
    gt_offsets, gt_cells = _offsets_from_positions(positions, cfg.grid, stride=1)
    return SceneTruth(cfg, trajectories, gt_heatmaps, gt_offsets, gt_points, gt_cells)


def _offsets_from_positions(positions: np.ndarray, grid: GroundGrid, stride: int):
    """Per-pair offset fields at agent cells; first agent to claim a cell wins."""
    num_agents, num_frames, _ = positions.shape
    kept = list(range(0, num_frames, stride))
    fields = []
    cells_per_pair = []
    for k in range(len(kept) - 1):
        f0, f1 = kept[k], kept[k + 1]
        dx = np.zeros(grid.shape)
        dy = np.zeros(grid.shape)
        taken = set()
        rows = []
        for a in range(num_agents):
            cx, cy = _nearest_cell(positions[a, f0, 0], positions[a, f0, 1])
            if (cx, cy) in taken:
                continue
            taken.add((cx, cy))
            ox = positions[a, f1, 0] - positions[a, f0, 0]
            oy = positions[a, f1, 1] - positions[a, f0, 1]
            dy_i = min(max(cy, 0), grid.height_cells - 1)
            dx_i = min(max(cx, 0), grid.width_cells - 1)
            dx[dy_i, dx_i] = ox
            dy[dy_i, dx_i] = oy
            rows.append((dx_i, dy_i, ox, oy))
        fields.append(OffsetField(grid, dx, dy))
        cells_per_pair.append(tuple(rows))
    return tuple(fields), tuple(cells_per_pair)


def corrupt_detections(truth: SceneTruth) -> list[list[Detection]]:
    """Miss/jitter/false-positive corruption of the ground-truth points,
    at the rates of the scene's config."""
    cfg = truth.config
    w, h = cfg.grid.width_cells, cfg.grid.height_cells
    seed = cfg.seed
    frames: list[list[Detection]] = []
    for f in range(truth.num_frames):
        dets: list[Detection] = []
        for a, (px, py) in enumerate(truth.gt_points[f]):
            if cfg.miss_rate > 0 and rng.uniform(seed, _CH_MISS, a, f) < cfg.miss_rate:
                continue
            x, y = px, py
            if cfg.jitter_sigma_cells > 0:
                x += cfg.jitter_sigma_cells * rng.normal(seed, _CH_JITTER_X, a, f)
                y += cfg.jitter_sigma_cells * rng.normal(seed, _CH_JITTER_Y, a, f)
            x = min(max(x, 0.0), w - 1.0)
            y = min(max(y, 0.0), h - 1.0)
            conf = 0.7 + 0.3 * rng.uniform(seed, _CH_CONF, a, f)
            dets.append(Detection(f, x, y, conf))
        n_fp = rng.poisson(cfg.fp_rate_per_frame, seed, _CH_FP_COUNT, f)
        for i in range(n_fp):
            x = rng.uniform(seed, _CH_FP_X, f, i) * (w - 1)
            y = rng.uniform(seed, _CH_FP_Y, f, i) * (h - 1)
            conf = 0.05 + 0.25 * rng.uniform(seed, _CH_FP_CONF, f, i)
            dets.append(Detection(f, x, y, conf))
        frames.append(dets)
    return frames


def subsample_fps(obj, stride: int):
    """Keep frames 0, stride, 2*stride, ...; re-index times consecutively.

    For a SceneTruth the per-pair offsets are re-derived as position
    differences across the gap; for a detection stream only the kept
    frames survive (with re-indexed times).
    """
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if isinstance(obj, SceneTruth):
        return _subsample_truth(obj, stride)
    return _subsample_detections(obj, stride)


def _subsample_truth(truth: SceneTruth, stride: int) -> SceneTruth:
    cfg = truth.config
    kept = list(range(0, truth.num_frames, stride))
    positions = np.zeros((cfg.num_agents, truth.num_frames, 2))
    for a, traj in enumerate(truth.trajectories):
        for (f, x, y) in traj.points:
            positions[a, f] = (x, y)
    gt_offsets, gt_cells = _offsets_from_positions(positions, cfg.grid, stride=stride)
    trajectories = tuple(
        Trajectory(traj.id, tuple((k, *traj.points[f][1:]) for k, f in enumerate(kept)))
        for traj in truth.trajectories
    )
    new_cfg = replace(cfg, num_frames=len(kept))
    return SceneTruth(
        new_cfg,
        trajectories,
        tuple(truth.gt_heatmaps[f] for f in kept),
        gt_offsets,
        tuple(truth.gt_points[f] for f in kept),
        gt_cells,
    )


def _subsample_detections(frames, stride: int):
    kept = list(range(0, len(frames), stride))
    out = []
    for k, f in enumerate(kept):
        out.append([Detection(k, d.x, d.y, d.confidence) for d in frames[f]])
    return out
