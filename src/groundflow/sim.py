"""Deterministic synthetic ground-plane crowd scenes.

Agents follow a constant-speed heading random walk with reflecting
borders. A scene's truth is one read-only array of agent positions. The
exact trajectories, per-frame points and per-pair offset rows at the
agents' cells are derived from it when the truth is built; the dense
per-frame heatmaps (Gaussian peaks combined by per-cell max) and
per-pair offset fields on first read. Subsampling slices the positions.
A corrupted detection stream (misses, positional jitter, confidence
noise, uniform false positives) is drawn from the per-frame points.
Everything is a pure function of the config seed via the counter-based
streams in :mod:`groundflow.rng`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

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
        for name in ("turn_sigma_rad", "jitter_sigma_cells", "gaussian_radius_cells"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        lo, hi = self.speed_cells
        if not (0 <= lo <= hi):
            raise ConfigError("speed range must satisfy 0 <= min <= max")
        if not (self.turn_sigma_rad >= 0):
            raise ConfigError("turn_sigma_rad must be >= 0")
        if not (0 <= self.miss_rate < 1):
            raise ConfigError("miss_rate must lie in [0, 1)")
        if not (self.fp_rate_per_frame >= 0 and self.jitter_sigma_cells >= 0):
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


@dataclass(frozen=True, eq=False)   # the generated __eq__ cannot compare ndarrays
class SceneTruth:
    """Simulator output: one positions array and the truth derived from it.

    `positions` (agents, frames, 2) is read-only. `trajectories`,
    `gt_points` (per frame) and `gt_cells` (per pair: (cell_x, cell_y,
    offset_dx, offset_dy) rows, the first agent to claim a cell winning)
    are built with the truth. The dense `gt_heatmaps` and `gt_offsets`
    (one field per pair, nonzero only at the `gt_cells` rows) are built
    on first read and kept.
    """

    config: SceneConfig
    positions: np.ndarray
    trajectories: tuple[Trajectory, ...]
    gt_points: tuple[tuple[tuple[float, float], ...], ...]
    gt_cells: tuple[tuple[tuple[int, int, float, float], ...], ...]

    @property
    def num_frames(self) -> int:
        return self.positions.shape[1]

    @cached_property
    def gt_heatmaps(self) -> tuple[Heatmap, ...]:
        cfg = self.config
        return tuple(render_heatmap(pts, cfg.grid, cfg.gaussian_sigma_cells,
                                    cfg.gaussian_radius_cells)
                     for pts in self.gt_points)

    @cached_property
    def gt_offsets(self) -> tuple[OffsetField, ...]:
        fields = []
        for rows in self.gt_cells:
            dx, dy = np.zeros((2, *self.config.grid.shape))
            for (cx, cy, ox, oy) in rows:
                dx[cy, cx], dy[cy, cx] = ox, oy
            fields.append(OffsetField(self.config.grid, dx, dy))
        return tuple(fields)


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

    return _truth(cfg, positions)


def _truth(cfg: SceneConfig, positions: np.ndarray) -> SceneTruth:
    """The scene truth of `positions` (agents, frames, 2), made read-only."""
    positions.setflags(write=False)
    num_agents, num_frames, _ = positions.shape
    trajectories = tuple(
        Trajectory(a, tuple((f, positions[a, f, 0], positions[a, f, 1])
                            for f in range(num_frames)))
        for a in range(num_agents)
    )
    gt_points = tuple(
        tuple((positions[a, f, 0], positions[a, f, 1]) for a in range(num_agents))
        for f in range(num_frames)
    )
    return SceneTruth(cfg, positions, trajectories, gt_points,
                      _offsets_from_positions(positions))


def _offsets_from_positions(positions: np.ndarray):
    """Per-pair (cell_x, cell_y, dx, dy) rows at the agents' cells in the
    earlier frame; the first agent to claim a cell wins."""
    # half-up rounding (no banker's rounding); positions lie on the grid
    cells = np.floor(positions[:, :-1] + 0.5).astype(int).tolist()
    steps = positions[:, 1:] - positions[:, :-1]
    pairs = []
    for f in range(positions.shape[1] - 1):
        claims = {}
        for a, agent_cells in enumerate(cells):
            claims.setdefault(tuple(agent_cells[f]), a)
        pairs.append(tuple((cx, cy, steps[a, f, 0], steps[a, f, 1])
                           for (cx, cy), a in claims.items()))
    return tuple(pairs)


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

    A SceneTruth is rebuilt from its positions at the kept frames, so
    its offsets are position differences across the gap; for a
    detection stream only the kept frames survive (with re-indexed
    times).
    """
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if isinstance(obj, SceneTruth):
        kept = obj.positions[:, ::stride]
        return _truth(replace(obj.config, num_frames=kept.shape[1]), kept)
    return _subsample_detections(obj, stride)


def _subsample_detections(frames, stride: int):
    kept = list(range(0, len(frames), stride))
    out = []
    for k, f in enumerate(kept):
        out.append([Detection(k, d.x, d.y, d.confidence) for d in frames[f]])
    return out
