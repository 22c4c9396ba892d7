"""Experiment runner: scene simulation, motion fitting, tracking,
frame-rate sweeps, gradient checks and loss ablations.

Config files are flat ``key = value`` text with dotted section
prefixes (an example lives in the README). Exit codes: 0 success,
2 config/usage error, 3 numeric failure. GROUNDFLOW_THREADS (a whole
number >= 1, default 1) is the number of worker processes that `fit`,
`sweep-fps` and `ablate` fit frame pairs with, capped at the number of
pairs; the results are byte-identical for any count.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io
from .core import GroundGrid, OffsetField
from .errors import ConfigError, Divergence, GroundflowError
from .fit import FitConfig, FitResult, finite_diff_check, trace_csv
from .losses import LambdaSchedule, LossWeights, loss_total
from .metrics import clear_mot, mean_offset_report
from .pipeline import (
    TRACK_MODES,
    fit_report_vs_truth,
    fit_scene_offsets,
    run_tracking_point,
    stride_adapted,
    track_detections,
    zero_offset_report,
)
from .sim import SceneConfig, corrupt_detections, generate_scene, subsample_fps
from .track import EdgeCostParams, TwoStageConfig
from .warp import ReconstructionConfig


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneConfig
    fit: FitConfig
    edges: EdgeCostParams
    two_stage: TwoStageConfig
    fps_strides: tuple[int, ...] = (1, 3, 5)
    modes: tuple[str, ...] = ("mussp", "mussp-nomotion", "bytestyle-kalman", "bytestyle-offset")
    seeds: tuple[int, ...] = (0,)
    dist_threshold: float = 2.5

    def __post_init__(self):
        if not self.fps_strides:
            raise ConfigError("sweep.strides must not be empty")
        if list(self.fps_strides) != sorted(self.fps_strides):
            raise ConfigError("sweep.strides must be sorted ascending")
        for m in self.modes:
            if m not in TRACK_MODES:
                raise ConfigError(f"unknown mode {m!r} in sweep.modes")


def _get(kv: dict, key: str, cast, default, used: set | None = None):
    if used is not None:
        used.add(key)
    if key not in kv:
        return default
    raw = kv[key]
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as e:
        raise ConfigError(f"config key {key}: cannot parse {raw!r}") from e


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def load_experiment_config(path: str | None, seed_override: int | None = None) -> ExperimentConfig:
    kv = io.read_kv(path) if path else {}
    used: set = set()
    _g = partial(_get, kv, used=used)
    seed = _g("scene.seed", int, 0)   # read either way, so the key counts as known
    grid = GroundGrid(
        _g("scene.width", int, 64),
        _g("scene.height", int, 64),
        _g("scene.cell_size", float, 0.20),
    )
    scene = SceneConfig(
        grid=grid,
        num_agents=_g("scene.num_agents", int, 8),
        num_frames=_g("scene.num_frames", int, 30),
        speed_cells=(_g("scene.speed_min", float, 0.8),
                     _g("scene.speed_max", float, 1.8)),
        turn_sigma_rad=_g("scene.turn_sigma", float, 0.25),
        miss_rate=_g("scene.miss_rate", float, 0.03),
        fp_rate_per_frame=_g("scene.fp_rate", float, 0.3),
        jitter_sigma_cells=_g("scene.jitter_sigma", float, 0.15),
        gaussian_sigma_cells=_g("scene.gaussian_sigma", float, 1.0),
        gaussian_radius_cells=_g("scene.gaussian_radius", float, 3.0),
        seed=seed_override if seed_override is not None else seed,
    )
    schedule = LambdaSchedule(
        init=_g("fit.schedule_init", float, 0.8),
        increment=_g("fit.schedule_increment", float, 0.08),
        cap=_g("fit.schedule_cap", float, 5.0),
        current=_g("fit.schedule_init", float, 0.8),
    )
    weights = LossWeights(
        lambda_fb=_g("fit.lambda_fb", float, 0.05),
        lambda_se=_g("fit.lambda_se", float, 1.0),
    )
    fit_cfg = FitConfig(
        epochs=_g("fit.epochs", int, 80),
        learning_rate=_g("fit.learning_rate", float, 0.25),
        schedule=schedule,
        weights=weights,
        window_cells=_g("fit.window", int, 21),
        se_radius=_g("fit.se_radius", float, scene.gaussian_radius_cells),
    )
    edges = EdgeCostParams(
        sigma_t=_g("edges.sigma_t", float, 0.5),
        sigma_d=_g("edges.sigma_d", float, 0.15),
        sigma_m=_g("edges.sigma_m", float, 0.15),
        max_gap=_g("edges.max_gap", int, 3),
        entry_cost=_g("edges.entry_cost", float, 0.2),
        exit_cost=_g("edges.exit_cost", float, 0.2),
        obs_cost_scale=_g("edges.obs_cost_scale", float, 1.0),
    )
    two_stage = TwoStageConfig(
        box_side=_g("track.box_side", float, 5.0),
        iou_threshold=_g("track.iou_threshold", float, 0.1),
        max_age=_g("track.max_age", int, 3),
    )
    fps_strides = _g("sweep.strides", _int_list, (1, 3, 5))
    modes = _g("sweep.modes", _str_list,
               ("mussp", "mussp-nomotion", "bytestyle-kalman", "bytestyle-offset"))
    seeds = _g("sweep.seeds", _int_list, (0,))
    dist_threshold = _g("track.dist_threshold", float, 2.5)
    unknown = set(kv) - used
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return ExperimentConfig(
        scene=scene,
        fit=fit_cfg,
        edges=edges,
        two_stage=two_stage,
        fps_strides=fps_strides,
        modes=modes,
        seeds=seeds,
        dist_threshold=dist_threshold,
    )


def _workers() -> int:
    """The GROUNDFLOW_THREADS worker-process count; anything but a whole
    number >= 1 is a config error."""
    raw = os.environ.get("GROUNDFLOW_THREADS", "1")
    try:
        workers = int(raw)
        if workers >= 1:
            return workers
    except ValueError:
        pass
    raise ConfigError(f"GROUNDFLOW_THREADS must be a whole number >= 1, not {raw!r}")


def _fmt(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------- simulate

def _scene_meta(scene: SceneConfig) -> dict:
    return {
        "scene.width": scene.grid.width_cells,
        "scene.height": scene.grid.height_cells,
        "scene.cell_size": repr(scene.grid.cell_size_m),
        "scene.num_agents": scene.num_agents,
        "scene.num_frames": scene.num_frames,
        "scene.speed_min": repr(scene.speed_cells[0]),
        "scene.speed_max": repr(scene.speed_cells[1]),
        "scene.turn_sigma": repr(scene.turn_sigma_rad),
        "scene.miss_rate": repr(scene.miss_rate),
        "scene.fp_rate": repr(scene.fp_rate_per_frame),
        "scene.jitter_sigma": repr(scene.jitter_sigma_cells),
        "scene.gaussian_sigma": repr(scene.gaussian_sigma_cells),
        "scene.gaussian_radius": repr(scene.gaussian_radius_cells),
        "scene.seed": scene.seed,
    }


def load_scene_dir(scene_dir: str, stride: int):
    """A scene directory's config, truth and detections, with every
    stride-th frame kept."""
    if stride < 1:
        raise ConfigError(f"--stride must be >= 1, not {stride}")
    meta = Path(scene_dir) / "meta.cfg"
    if not meta.exists():
        raise ConfigError(f"{scene_dir}: missing meta.cfg (not a scene directory?)")
    cfg = load_experiment_config(str(meta))
    truth = generate_scene(cfg.scene)
    detections = io.load_detections(Path(scene_dir) / "detections.csv")
    while len(detections) < truth.num_frames:  # trailing empty frames
        detections.append([])
    if stride > 1:
        truth = subsample_fps(truth, stride)
        detections = subsample_fps(detections, stride)
    return cfg.scene, truth, detections


def _save_fields(path, fields: list[OffsetField]) -> None:
    channels = []
    for f in fields:
        channels.extend([f.dx, f.dy])
    io.save_maps(path, channels)


def cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = generate_scene(cfg.scene)
    detections = corrupt_detections(truth)
    io.write_kv(out / "meta.cfg", _scene_meta(cfg.scene))
    io.save_trajectories(out / "truth_trajectories.csv", truth.trajectories)
    io.save_detections(out / "detections.csv", detections)
    io.save_maps(out / "gt_heatmaps.bin", [hm.values for hm in truth.gt_heatmaps])
    if truth.gt_offsets:
        _save_fields(out / "gt_offsets.bin", truth.gt_offsets)
    n_det = sum(len(d) for d in detections)
    print(f"scene: {cfg.scene.num_agents} agents, {cfg.scene.num_frames} frames, "
          f"grid {cfg.scene.grid.width_cells}x{cfg.scene.grid.height_cells}")
    print(f"detections: {n_det} ({n_det / max(1, cfg.scene.num_frames):.1f}/frame)")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- fit

def load_fields(path, grid: GroundGrid) -> list[OffsetField]:
    w, h, channels = io.load_maps(path)
    if (w, h) != (grid.width_cells, grid.height_cells) or len(channels) % 2:
        raise ConfigError(f"{path}: offset container does not match the scene grid")
    return [OffsetField(grid, channels[2 * k], channels[2 * k + 1])
            for k in range(len(channels) // 2)]


def cmd_fit(args) -> int:
    workers = _workers()
    scene_cfg, truth, detections = load_scene_dir(args.scene, args.stride)
    fit_cfg = load_experiment_config(args.config).fit
    if sum(len(d) for d in detections) == 0 or len(detections) < 2:
        print("no frame pairs to fit (empty scene)")
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = fit_scene_offsets(detections, scene_cfg.grid,
                                stride_adapted(fit_cfg, args.stride),
                                scene_cfg.gaussian_sigma_cells,
                                scene_cfg.gaussian_radius_cells,
                                workers=workers)
    _save_fields(out / "offsets_fwd.bin", [r.fwd for r in results])
    _save_fields(out / "offsets_bwd.bin", [r.bwd for r in results])
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    for k, r in enumerate(results):
        (traces / f"pair_{k:03d}.csv").write_text(trace_csv(r.trace))
    report = fit_report_vs_truth(results, truth)
    (out / "offset_report.json").write_text(report.to_json())
    print(f"fitted {len(results)} pairs; offsets vs GT: "
          f"l1={report.l1:.3f} angle={report.angle_deg:.2f} deg norm={report.norm_err:.3f}")
    return 0


# ---------------------------------------------------------------- track

def cmd_track(args) -> int:
    scene_cfg, truth, detections = load_scene_dir(args.scene, args.stride)
    cfg = load_experiment_config(args.config)
    fit_results = None
    if args.offsets:
        grid = scene_cfg.grid
        fwd = load_fields(Path(args.offsets) / "offsets_fwd.bin", grid)
        bwd = load_fields(Path(args.offsets) / "offsets_bwd.bin", grid)
        fit_results = [FitResult(f, b, ()) for f, b in zip(fwd, bwd)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracks = track_detections(detections, args.mode, fit_results=fit_results,
                              edges=cfg.edges, two_stage=cfg.two_stage)
    io.save_trajectories(out / "tracks.csv", tracks)
    if sum(len(tr.points) for tr in truth.trajectories) and tracks:
        report = clear_mot(tracks, list(truth.trajectories), cfg.dist_threshold)
        (out / "mot_report.json").write_text(report.to_json())
        print(f"{args.mode}: {len(tracks)} tracks, mota={report.mota:.4f} "
              f"idf1={report.idf1:.4f} motp={report.motp:.3f}")
    else:
        print(f"{args.mode}: {len(tracks)} tracks, MOTA undefined (reported as NaN)", file=sys.stderr)
        (out / "mot_report.json").write_text('{"mota": NaN}\n')
    return 0


# ---------------------------------------------------------------- sweep

def _svg_line_plot(series: dict[str, list[tuple[float, float]]],
                   xlabel: str, ylabel: str, title: str,
                   width: int = 640, height: int = 420) -> str:
    """Minimal polyline SVG plot with axes and a legend."""
    margin = 60
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def px(x):
        return margin + (x - x0) / (x1 - x0) * inner_w

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * inner_h

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-16}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height/2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height/2:.0f})">{ylabel}</text>',
    ]
    for k in range(5):
        yv = y0 + k * (y1 - y0) / 4
        xv = x0 + k * (x1 - x0) / 4
        parts.append(f'<text x="{margin-6}" y="{py(yv)+4:.1f}" text-anchor="end" font-size="10">{yv:.2f}</text>')
        parts.append(f'<text x="{px(xv):.1f}" y="{height-margin+16}" text-anchor="middle" font-size="10">{xv:.1f}</text>')
        parts.append(f'<line x1="{margin}" y1="{py(yv):.1f}" x2="{width-margin}" y2="{py(yv):.1f}" stroke="#dddddd"/>')
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = colors[idx % len(colors)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        ly = margin + 16 * idx
        parts.append(f'<line x1="{width-margin-110}" y1="{ly}" x2="{width-margin-86}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width-margin-80}" y="{ly+4}" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sweep_one(cfg: ExperimentConfig, stride: int, seed: int, workers: int):
    scene = replace(cfg.scene, seed=seed)
    truth = generate_scene(scene)
    detections = corrupt_detections(truth)
    sub_dets = subsample_fps(detections, stride)
    needs_fit = any(m in ("mussp", "bytestyle-offset") for m in cfg.modes)
    fit_results = None
    if needs_fit:
        fit_results = fit_scene_offsets(sub_dets, scene.grid,
                                        stride_adapted(cfg.fit, stride),
                                        scene.gaussian_sigma_cells,
                                        scene.gaussian_radius_cells,
                                        workers=workers)
    rows = []
    for mode in cfg.modes:
        point, _ = run_tracking_point(
            scene, stride, mode, cfg.fit, cfg.edges, cfg.two_stage,
            cfg.dist_threshold, truth=truth, detections=detections,
            fit_results=fit_results,
        )
        rows.append(point)
    return rows


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """Every (stride, seed) point in turn; each point's frame pairs are
    fitted by `workers` processes."""
    points = [p for stride in cfg.fps_strides for seed in cfg.seeds
              for p in _sweep_one(cfg, stride, seed, workers)]
    points.sort(key=lambda p: (p.stride, p.mode, p.seed))
    return points


def _write_points_csv(path, points) -> None:
    lines = ["stride,mode,seed,mota,idf1,motp"]
    for p in points:
        lines.append(f"{p.stride},{p.mode},{p.seed},{_fmt(p.mota)},{_fmt(p.idf1)},{_fmt(p.motp)}")
    path.write_text("\n".join(lines) + "\n")


def cmd_sweep_fps(args) -> int:
    workers = _workers()
    cfg = load_experiment_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    points = run_sweep(cfg, workers=workers)
    _write_points_csv(out / "sweep.csv", points)
    series: dict[str, dict[int, list[float]]] = {}
    for p in points:
        series.setdefault(p.mode, {}).setdefault(p.stride, []).append(p.mota)
    svg_series = {
        mode: [(float(stride), float(np.mean(motas))) for stride, motas in sorted(by_stride.items())]
        for mode, by_stride in series.items()
    }
    (out / "sweep.svg").write_text(_svg_line_plot(
        svg_series, "frame stride", "MOTA", "MOTA vs frame stride"))
    for p in points:
        print(f"stride {p.stride} seed {p.seed} {p.mode:18s} mota={p.mota:.4f} idf1={p.idf1:.4f}")
    print(f"wrote {out / 'sweep.csv'} and sweep.svg")
    return 0


# ---------------------------------------------------------------- gradcheck

def offsets_off_grid_lines(rng: np.random.Generator, shape, sigma: float,
                           margin: float = 1e-3) -> np.ndarray:
    """Normal(0, sigma) offsets, each at least `margin` from every integer.

    A cell plus such an offset keeps off every grid line, where the
    forward/backward term's bilinear sampling has a kink that a central
    difference of a smaller step would straddle. Offending components are
    drawn again from `rng` until none is left.
    """
    d = rng.normal(0.0, sigma, shape)
    while True:
        bad = np.abs(d - np.rint(d)) < margin
        if not bad.any():
            return d
        d[bad] = rng.normal(0.0, sigma, int(bad.sum()))


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    weights = LossWeights()
    worst = 0.0
    for k in range(args.instances):
        h = w = 8
        x_t = rng.random((h, w)) * 0.8
        x_t1 = rng.random((h, w)) * 0.8
        points_t = tuple((float(rng.uniform(1, w - 2)), float(rng.uniform(1, h - 2)))
                         for _ in range(3))
        points_t1 = points_t
        rcfg = ReconstructionConfig(0.8, 15)
        base_f = offsets_off_grid_lines(rng, (2, h, w), 0.7)
        base_b = rng.normal(0.0, 0.7, (2, h, w))

        def f(flat):
            delta = flat.reshape(4, h, w)
            out = loss_total(x_t, x_t1, (delta[0], delta[1]), (delta[2], delta[3]),
                             points_t, points_t1, rcfg, weights, 2.5)
            return out.total, out.grad.reshape(flat.shape)

        point = np.concatenate([base_f, base_b]).reshape(-1)
        err = finite_diff_check(f, point, eps=1e-4)
        worst = max(worst, err)
        print(f"instance {k}: max relative gradient error {err:.3e}")
    print(f"worst over {args.instances} instances: {worst:.3e} (tolerance 1e-4)")
    if worst >= 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print("gradient check passed")
    return 0


# ---------------------------------------------------------------- ablate

FIT_ARMS = ("full", "mot_only", "no_se", "no_fb", "no_mot")


def _arm_fit_cfg(fit_cfg: FitConfig, arm: str) -> FitConfig | None:
    if arm == "full":
        return fit_cfg
    if arm == "mot_only":
        return replace(fit_cfg, weights=LossWeights(0.0, 0.0))
    if arm == "no_se":
        return replace(fit_cfg, weights=replace(fit_cfg.weights, lambda_se=0.0))
    if arm == "no_fb":
        return replace(fit_cfg, weights=replace(fit_cfg.weights, lambda_fb=0.0))
    return None  # no_mot: without the consistency term nothing moves off zero


def run_fit_ablation(cfg: ExperimentConfig, arms=FIT_ARMS, workers: int = 1):
    """Offset quality per loss arm and seed; each fit's frame pairs are
    fitted by `workers` processes."""
    rows = []
    for seed in cfg.seeds:
        scene = replace(cfg.scene, seed=seed)
        truth = generate_scene(scene)
        detections = corrupt_detections(truth)
        for arm in arms:
            arm_cfg = _arm_fit_cfg(cfg.fit, arm)
            if arm_cfg is None:
                report = zero_offset_report(truth)
            else:
                results = fit_scene_offsets(detections, scene.grid, arm_cfg,
                                            scene.gaussian_sigma_cells,
                                            scene.gaussian_radius_cells,
                                            workers=workers)
                report = fit_report_vs_truth(results, truth)
            rows.append((arm, seed, report))
    return rows


def cmd_ablate(args) -> int:
    workers = _workers()
    cfg = load_experiment_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = run_fit_ablation(cfg, workers=workers)
    lines = ["arm,seed,l1,angle_deg,norm_err"]
    for arm, seed, rep in rows:
        lines.append(f"{arm},{seed},{_fmt(rep.l1)},{_fmt(rep.angle_deg)},{_fmt(rep.norm_err)}")
    (out / "ablation_fit.csv").write_text("\n".join(lines) + "\n")
    by_arm: dict[str, list] = {}
    for arm, _, rep in rows:
        by_arm.setdefault(arm, []).append(rep)
    print("loss-term ablation (mean over seeds):")
    for arm in FIT_ARMS:
        if arm in by_arm:
            mean = mean_offset_report(by_arm[arm])
            print(f"  {arm:10s} l1={mean.l1:.3f} angle={mean.angle_deg:.2f} norm={mean.norm_err:.3f}")

    stride = max(cfg.fps_strides)
    motion_cfg = replace(cfg, modes=("mussp", "mussp-nomotion"))
    rows2 = [p for seed in cfg.seeds for p in _sweep_one(motion_cfg, stride, seed, workers)]
    _write_points_csv(out / "ablation_motion_term.csv", rows2)
    for mode in ("mussp", "mussp-nomotion"):
        sel = [p for p in rows2 if p.mode == mode]
        print(f"  {mode:18s} stride {stride}: mota={np.mean([p.mota for p in sel]):.4f} "
              f"idf1={np.mean([p.idf1 for p in sel]):.4f}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="groundflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic scene directory")
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("fit", help="fit offset fields from a scene's detections")
    s.add_argument("--scene", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--stride", type=int, default=1)
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("track", help="run a tracker over a scene")
    s.add_argument("--scene", required=True)
    s.add_argument("--offsets", default=None)
    s.add_argument("--mode", required=True, choices=TRACK_MODES)
    s.add_argument("--out", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--stride", type=int, default=1)
    s.set_defaults(func=cmd_track)

    s = sub.add_parser("sweep-fps", help="frame-rate sweep over tracking modes")
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep_fps)

    s = sub.add_parser("gradcheck", help="finite-difference check of all loss gradients")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--instances", type=int, default=20)
    s.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("ablate", help="loss-term and motion-term ablations")
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Divergence as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except GroundflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
