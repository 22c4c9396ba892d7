"""Experiment orchestration shared by the CLI and the acceptance suite:
scene -> detections -> heatmaps -> fitted offsets -> tracking -> metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Detection, GroundGrid, OffsetField, Trajectory
from .detect import select_true_detections
from .errors import ConfigError
from .fit import FitConfig, FitPair, FitResult, fit_offsets
from .metrics import DIST_THRESHOLD, MotReport, OffsetReport, clear_mot, mean_offset_report, offset_error
from .sim import SceneConfig, SceneTruth, corrupt_detections, generate_scene, render_heatmap, subsample_fps
from .track import (
    EdgeCostParams,
    TwoStageConfig,
    associate_nearest,
    build_graph,
    run_two_stage,
    solve_ssp,
)

TRACK_MODES = ("mussp", "mussp-nomotion", "bytestyle-kalman", "bytestyle-offset", "nearest")
# the modes that read fitted offset fields
FIT_MODES = ("mussp", "bytestyle-offset")
# farthest match, in cells, of the nearest chaining baseline
CHAIN_MAX_DIST = 10.0
# the flow tracker's reach per full-rate frame of gap, in cells: about nine
# steps of the fastest default agent (1.8 cells per frame)
REACH_CELLS_PER_FRAME = 16.0


def stride_adapted(fit_cfg: FitConfig, stride: int) -> FitConfig:
    """The fit config of a stride-s sequence: `fit_cfg` unchanged, at any
    stride.

    The fit itself starts each pair whose detections move beyond the first
    lambda_r's reach from their matches at a sharp lambda_r (see the `fit`
    module docstring), so a stride needs no softer schedule. The name
    stays for the callers that fit at a stride.
    """
    return fit_cfg


def stride_gated(edges: EdgeCostParams, stride: int) -> EdgeCostParams:
    """Gate the flow tracker's arcs at a reach that scales with the stride.

    An agent moves s times farther per tracked frame of a stride-s
    sequence, so the reach per tracked frame of gap is
    REACH_CELLS_PER_FRAME * s.
    """
    return replace(edges, gate_cells=REACH_CELLS_PER_FRAME * stride)


def filter_noise_detections(frames: list[list[Detection]]) -> list[list[Detection]]:
    """The confident detections: the stream without its low-confidence
    noise cluster (2-means split over the whole sequence). The motion fit
    and the trackers that split by confidence all take this one set."""
    flat = [d for dets in frames for d in dets]
    if not flat:
        return frames
    kept, _ = select_true_detections(flat)
    kept_ids = {id(d) for d in kept}
    return [[d for d in dets if id(d) in kept_ids] for dets in frames]


def fit_pairs_from_detections(frames: list[list[Detection]], grid: GroundGrid,
                              sigma: float, radius: float) -> list[FitPair]:
    """One FitPair per two consecutive frames. Each frame's detections are
    rendered as unit-amplitude Gaussian peaks of `sigma` cut at `radius`,
    and their positions are the frame's points in both pairs it is in."""
    points = [tuple((d.x, d.y) for d in dets) for dets in frames]
    maps = [render_heatmap(pts, grid, sigma, radius).values for pts in points]
    return [FitPair(maps[k], maps[k + 1], points[k], points[k + 1])
            for k in range(len(frames) - 1)]


def fit_scene_offsets(frames: list[list[Detection]], grid: GroundGrid,
                      fit_cfg: FitConfig, sigma: float, radius: float,
                      workers: int = 1) -> list[FitResult]:
    """Fit per-pair offset fields from a detection stream.

    Detections classified as noise by the confidence split are excluded
    from the heatmaps; a detector's false positives otherwise seed
    spurious motion targets. `workers` is the process count of
    `fit_offsets`.
    """
    frames = filter_noise_detections(frames)
    return fit_offsets(fit_pairs_from_detections(frames, grid, sigma, radius),
                       fit_cfg, grid, workers=workers)


def _chain_tracker(frames: list[list[Detection]]) -> list[Trajectory]:
    """The nearest baseline: frame-to-frame chaining of nearest matches
    into trajectories.

    For each frame pair, `associate_nearest` maps each of the n
    detections of frame t to the nearest of the m of frame t + 1, on
    their (n, m) matrix of ground-plane distances, within
    CHAIN_MAX_DIST. Each frame keeps one list from its detections to
    their tracks. If several chains claim one target, the first source
    in index order wins and the rest terminate.
    """
    tracks: list[list[tuple[int, float, float]]] = []
    owner = [-1] * len(frames[0]) if frames else []   # detection -> track, -1 if unclaimed
    for t, dets in enumerate(frames):
        for j, d in enumerate(dets):
            if owner[j] < 0:
                owner[j] = len(tracks)
                tracks.append([])
            tracks[owner[j]].append((d.time, d.x, d.y))
        if t + 1 < len(frames):
            nxt = frames[t + 1]
            head, owner = owner, [-1] * len(nxt)
            if dets:
                dist = np.array([[math.hypot(a.x - b.x, a.y - b.y) for b in nxt] for a in dets])
                for i, j in associate_nearest(dist, CHAIN_MAX_DIST):
                    if owner[j] < 0:
                        owner[j] = head[i]
    return [Trajectory(k, tuple(pts)) for k, pts in enumerate(tracks)]


def track_detections(frames: list[list[Detection]], mode: str,
                     fit_results: list[FitResult] | None = None,
                     edges: EdgeCostParams = EdgeCostParams(),
                     two_stage: TwoStageConfig = TwoStageConfig()) -> list[Trajectory]:
    """Run one tracking mode over a detection sequence.

    Modes needing fitted offsets (mussp, bytestyle-offset) read them
    from `fit_results`; absent fields degrade to zero motion. The
    confident detections are the ones `filter_noise_detections` keeps:
    the flow modes track only those, and the two-stage modes take them
    as their high-confidence set (`conf_split` is the least kept
    confidence) and offer the rest in their second stage.
    """
    if mode not in TRACK_MODES:
        raise ConfigError(f"unknown tracking mode {mode!r}; choose from {TRACK_MODES}")
    if mode == "nearest":
        return _chain_tracker(frames)
    bwd_fields = fwd_fields = None
    if fit_results is not None:
        fwd_fields = [r.fwd for r in fit_results]
        bwd_fields = [r.bwd for r in fit_results]
    kept = filter_noise_detections(frames)
    if mode == "mussp":
        return solve_ssp(build_graph(kept, bwd_fields, edges))
    if mode == "mussp-nomotion":
        return solve_ssp(build_graph(kept, None, replace(edges, sigma_m=0.0)))
    conf_split = min((d.confidence for dets in kept for d in dets), default=0.5)
    if mode == "bytestyle-kalman":
        return run_two_stage(frames, "kalman", conf_split=conf_split, cfg=two_stage)
    return run_two_stage(frames, "learned-offset", fwd_fields=fwd_fields,
                         conf_split=conf_split, cfg=two_stage)


@dataclass(frozen=True)
class SweepPoint:
    stride: int
    mode: str
    seed: int
    mota: float
    idf1: float
    motp: float


def run_tracking_point(scene_cfg: SceneConfig, stride: int, mode: str,
                       fit_cfg: FitConfig, edges: EdgeCostParams = EdgeCostParams(),
                       two_stage: TwoStageConfig = TwoStageConfig(),
                       dist_threshold: float = DIST_THRESHOLD,
                       truth: SceneTruth | None = None,
                       detections: list[list[Detection]] | None = None,
                       fit_results: list[FitResult] | None = None
                       ) -> tuple[SweepPoint, MotReport]:
    """One (stride, mode) experiment point on a simulated scene.

    Heavy intermediates (truth, detections, fitted offsets) may be
    passed in so sweeps can share them between modes.
    """
    if truth is None:
        truth = generate_scene(scene_cfg)
    if detections is None:
        detections = corrupt_detections(truth)
    sub_truth = subsample_fps(truth, stride)
    sub_dets = subsample_fps(detections, stride)
    if mode in FIT_MODES and fit_results is None:
        fit_results = fit_scene_offsets(
            sub_dets, scene_cfg.grid, fit_cfg, scene_cfg.gaussian_sigma_cells,
            scene_cfg.gaussian_radius_cells,
        )
    tracks = track_detections(sub_dets, mode, fit_results=fit_results,
                              edges=stride_gated(edges, stride), two_stage=two_stage)
    report = clear_mot(tracks, list(sub_truth.trajectories), dist_threshold)
    point = SweepPoint(stride=stride, mode=mode, seed=scene_cfg.seed,
                       mota=report.mota, idf1=report.idf1, motp=report.motp)
    return point, report


def fit_report_vs_truth(fit_results: list[FitResult], truth: SceneTruth) -> OffsetReport:
    """Mean offset error of fitted forward fields over all frame pairs."""
    reports = [offset_error(r.fwd, truth, k) for k, r in enumerate(fit_results)]
    return mean_offset_report(reports)


def zero_offset_report(truth: SceneTruth) -> OffsetReport:
    """The zero-motion baseline evaluated on a scene."""
    zero = OffsetField.zeros(truth.config.grid)
    return mean_offset_report(
        offset_error(zero, truth, k) for k in range(len(truth.gt_cells))
    )


def _nearest(dets, x, y):
    best = None
    best_d = math.inf
    for d in dets:
        dist = math.hypot(d.x - x, d.y - y)
        if dist < best_d:
            best_d = dist
            best = d
    return best


def nearest_detection_report(truth: SceneTruth,
                             detections: list[list[Detection]] | None = None) -> OffsetReport:
    """Motion-to-nearest baseline: each detection's motion estimate is the
    displacement to the nearest detection in the next frame, evaluated at
    the ground-truth cells."""
    if detections is None:
        detections = corrupt_detections(truth)
    grid = truth.config.grid
    reports = []
    for k in range(len(truth.gt_cells)):
        dx = np.zeros(grid.shape)
        dy = np.zeros(grid.shape)
        cur = detections[k] if k < len(detections) else []
        nxt = detections[k + 1] if k + 1 < len(detections) else []
        for (cx, cy, _, _) in truth.gt_cells[k]:
            src = _nearest(cur, cx, cy)
            if src is None:
                continue
            dst = _nearest(nxt, src.x, src.y)
            if dst is not None:
                dx[cy, cx] = dst.x - src.x
                dy[cy, cx] = dst.y - src.y
        reports.append(offset_error(OffsetField(grid, dx, dy), truth, k))
    return mean_offset_report(reports)
