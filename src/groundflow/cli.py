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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io
from .core import GroundGrid, OffsetField
from .errors import ConfigError, Divergence, FormatError, GroundflowError
from .fit import FitConfig, FitResult, finite_diff_check
from .losses import LossWeights, loss_total
from .metrics import DIST_THRESHOLD, clear_mot, mean_offset_report
from .pipeline import (
    FIT_MODES,
    TRACK_MODES,
    fit_report_vs_truth,
    fit_scene_offsets,
    run_tracking_point,
    stride_gated,
    track_detections,
    zero_offset_report,
)
from .sim import SceneConfig, corrupt_detections, generate_scene, subsample_fps
from .track import EdgeCostParams, TwoStageConfig
from .warp import ReconstructionConfig


# The CLI's scene: 8 agents on a 64 x 64 grid over 30 frames, with detection
# noise; SceneConfig's own defaults are the clean scene c04 and c05 build on.
SCENE = SceneConfig(GroundGrid(64, 64), num_agents=8, num_frames=30, speed_cells=(0.8, 1.8),
                    miss_rate=0.03, fp_rate_per_frame=0.3, jitter_sigma_cells=0.15)


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneConfig = SCENE
    fit: FitConfig = FitConfig()
    edges: EdgeCostParams = EdgeCostParams()
    two_stage: TwoStageConfig = TwoStageConfig()
    fps_strides: tuple[int, ...] = (1, 3, 5)
    modes: tuple[str, ...] = ("mussp", "mussp-nomotion", "bytestyle-kalman", "bytestyle-offset")
    seeds: tuple[int, ...] = (0,)
    dist_threshold: float = DIST_THRESHOLD

    def __post_init__(self):
        for key, values in (("sweep.strides", self.fps_strides), ("sweep.modes", self.modes),
                            ("sweep.seeds", self.seeds)):
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{key} must be a non-empty list without repeats")
        if list(self.fps_strides) != sorted(self.fps_strides):
            raise ConfigError("sweep.strides must be sorted ascending")
        if self.fps_strides[0] < 1:
            raise ConfigError(f"sweep.strides must each be >= 1, not {self.fps_strides[0]}")
        for m in self.modes:
            if m not in TRACK_MODES:
                raise ConfigError(f"unknown mode {m!r} in sweep.modes")
        if not (0 < self.dist_threshold < np.inf):
            raise ConfigError("track.dist_threshold must be positive and finite")


# Every config key and the field of ExperimentConfig it sets, as a path of
# attribute names and tuple indices.
KEYS = {
    "scene.width": ("scene", "grid", "width_cells"),
    "scene.height": ("scene", "grid", "height_cells"),
    "scene.num_agents": ("scene", "num_agents"),
    "scene.num_frames": ("scene", "num_frames"),
    "scene.speed_min": ("scene", "speed_cells", 0),
    "scene.speed_max": ("scene", "speed_cells", 1),
    "scene.turn_sigma": ("scene", "turn_sigma_rad"),
    "scene.miss_rate": ("scene", "miss_rate"),
    "scene.fp_rate": ("scene", "fp_rate_per_frame"),
    "scene.jitter_sigma": ("scene", "jitter_sigma_cells"),
    "scene.gaussian_sigma": ("scene", "gaussian_sigma_cells"),
    "scene.gaussian_radius": ("scene", "gaussian_radius_cells"),
    "scene.seed": ("scene", "seed"),
    "fit.epochs": ("fit", "epochs"),
    "fit.learning_rate": ("fit", "learning_rate"),
    "fit.window": ("fit", "window_cells"),
    "fit.se_radius": ("fit", "se_radius"),
    "fit.schedule_init": ("fit", "schedule", "init"),
    "fit.schedule_increment": ("fit", "schedule", "increment"),
    "fit.schedule_cap": ("fit", "schedule", "cap"),
    "fit.lambda_fb": ("fit", "weights", "lambda_fb"),
    "fit.lambda_se": ("fit", "weights", "lambda_se"),
    "edges.sigma_t": ("edges", "sigma_t"),
    "edges.sigma_d": ("edges", "sigma_d"),
    "edges.sigma_m": ("edges", "sigma_m"),
    "edges.max_gap": ("edges", "max_gap"),
    "edges.entry_cost": ("edges", "entry_cost"),
    "edges.exit_cost": ("edges", "exit_cost"),
    "edges.obs_cost_scale": ("edges", "obs_cost_scale"),
    "track.box_side": ("two_stage", "box_side"),
    "track.iou_threshold": ("two_stage", "iou_threshold"),
    "track.max_age": ("two_stage", "max_age"),
    "track.dist_threshold": ("dist_threshold",),
    "sweep.strides": ("fps_strides",),
    "sweep.modes": ("modes",),
    "sweep.seeds": ("seeds",),
}
SCENE_KEYS = {key for key, path in KEYS.items() if path[0] == "scene"}


def _field(cfg, path: tuple):
    for name in path:
        cfg = cfg[name] if isinstance(name, int) else getattr(cfg, name)
    return cfg


def _rebuilt(cfg, path: tuple, values: dict):
    """`cfg`, found at `path`, with each of `values` under it put in place;
    each dataclass is built once, from its finished fields."""
    if path in values:
        return values[path]
    if not any(p[:len(path)] == path for p in values):
        return cfg
    if isinstance(cfg, tuple):
        return tuple(_rebuilt(v, path + (i,), values) for i, v in enumerate(cfg))
    return replace(cfg, **{f.name: _rebuilt(getattr(cfg, f.name), path + (f.name,), values)
                           for f in fields(cfg)})


def _parsed(key: str, raw: str, default):
    """`raw` as the type of `default`: a whole number, a finite float or a
    comma list of its first item's type."""
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(v.strip()) for v in raw.split(",") if v.strip())
        value = type(default)(raw)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{raw!r} is not finite")
        return value
    except ValueError as e:
        raise ConfigError(f"config key {key}: cannot parse {raw!r}") from e


def load_experiment_config(path: str | None, seed_override: int | None = None,
                           scene_path: str | None = None) -> ExperimentConfig:
    """ExperimentConfig() with each key of a key file set.

    A key of KEYS sets one field, parsed as the type of its default. The
    key file at `scene_path`, a scene directory's meta.cfg, holds every
    scene key and no other, and a scene key of `path` may only repeat one
    of them with an equal value. `fit.se_radius` defaults to
    `scene.gaussian_radius`, and `seed_override` wins over `scene.seed`.
    Unknown, missing or disagreeing keys and bad values raise ConfigError,
    a key given twice FormatError.
    """
    default = ExperimentConfig()
    values = {}
    for file, known in ((path, set(KEYS)), (scene_path, SCENE_KEYS)):
        kv = io.read_kv(file) if file else {}
        unknown = set(kv) - known
        if unknown:
            raise ConfigError(f"{file}: unknown config key(s): {', '.join(sorted(unknown))}")
        for key, raw in kv.items():
            value = _parsed(key, raw, _field(default, KEYS[key]))
            if values.setdefault(KEYS[key], value) != value:
                raise ConfigError(f"{key} = {values[KEYS[key]]!r} in {path} disagrees with "
                                  f"the scene's {value!r} in {file}")
    if scene_path and (missing := SCENE_KEYS - set(kv)):  # kv: the scene file's, read last
        raise ConfigError(f"{scene_path}: missing {', '.join(sorted(missing))}")
    if seed_override is not None:
        values[KEYS["scene.seed"]] = seed_override
    values.setdefault(KEYS["fit.se_radius"],
                      values.get(KEYS["scene.gaussian_radius"], default.scene.gaussian_radius_cells))
    try:
        return _rebuilt(default, (), values)
    except GroundflowError:
        raise
    except ValueError as e:
        raise ConfigError(f"config value out of range: {e}") from e


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


# ---------------------------------------------------------------- simulate

def load_scene_dir(scene_dir: str, stride: int, config: str | None = None):
    """A run's config, with its scene from the directory's meta.cfg and all
    else from the key file `config` (see load_experiment_config), and the
    directory's truth and detections with every stride-th frame kept.
    The detections are read as one list of the scene's frames, so a row
    whose time lies outside the scene, or whose position lies off its
    grid, is a FormatError."""
    if stride < 1:
        raise ConfigError(f"--stride must be >= 1, not {stride}")
    meta = Path(scene_dir) / "meta.cfg"
    if not meta.exists():
        raise ConfigError(f"{scene_dir}: missing meta.cfg (not a scene directory?)")
    cfg = load_experiment_config(config, scene_path=str(meta))
    truth = generate_scene(cfg.scene)
    detections = io.load_detections(Path(scene_dir) / "detections.csv", truth.num_frames,
                                   cfg.scene.grid)
    if stride > 1:
        truth = subsample_fps(truth, stride)
        detections = subsample_fps(detections, stride)
    return cfg, truth, detections


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
    io.write_kv(out / "meta.cfg", {key: _field(cfg, KEYS[key]) for key in KEYS if key in SCENE_KEYS})
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
    if not all(np.isfinite(c).all() for c in channels):
        raise FormatError(f"{path}: offset container holds a non-finite value")
    return [OffsetField(grid, channels[2 * k], channels[2 * k + 1])
            for k in range(len(channels) // 2)]


def _fit(scene: SceneConfig, detections, fit_cfg: FitConfig, workers: int) -> list[FitResult]:
    """The offset fields of each frame pair of `detections`, frames of
    `scene` at any stride, fitted by `workers` processes."""
    return fit_scene_offsets(detections, scene.grid, fit_cfg, scene.gaussian_sigma_cells,
                             scene.gaussian_radius_cells, workers=workers)


def cmd_fit(args) -> int:
    workers = _workers()
    cfg, truth, detections = load_scene_dir(args.scene, args.stride, args.config)
    if len(detections) < 2:
        raise ConfigError(f"--stride {args.stride} leaves {len(detections)} of the scene's "
                          f"{cfg.scene.num_frames} frames; a fit needs at least 2")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = _fit(cfg.scene, detections, cfg.fit, workers)
    _save_fields(out / "offsets_fwd.bin", [r.fwd for r in results])
    _save_fields(out / "offsets_bwd.bin", [r.bwd for r in results])
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    for k, r in enumerate(results):
        # l_det, the paper's detection term, is identically zero here (see losses.py)
        io.write_csv(traces / f"pair_{k:03d}.csv", "epoch,lambda_r,l_mot,l_det,l_fb,l_se,total",
                     ((row["epoch"], row["lambda_r"], row["l_mot"], 0.0, row["l_fb"], row["l_se"],
                       row["total"]) for row in r.trace))
    report = fit_report_vs_truth(results, truth)
    (out / "offset_report.json").write_text(report.to_json())
    print(f"fitted {len(results)} pairs; offsets vs GT: "
          f"l1={report.l1:.3f} angle={report.angle_deg:.2f} deg norm={report.norm_err:.3f}")
    return 0


# ---------------------------------------------------------------- track

def cmd_track(args) -> int:
    cfg, truth, detections = load_scene_dir(args.scene, args.stride, args.config)
    fit_results = None
    if args.offsets:
        grid = cfg.scene.grid
        fwd = load_fields(Path(args.offsets) / "offsets_fwd.bin", grid)
        bwd = load_fields(Path(args.offsets) / "offsets_bwd.bin", grid)
        pairs = len(detections) - 1
        if not len(fwd) == len(bwd) == pairs:
            raise ConfigError(f"{args.offsets}: {len(fwd)} forward and {len(bwd)} backward "
                              f"fields for the {pairs} frame pairs at --stride {args.stride}")
        fit_results = [FitResult(f, b, ()) for f, b in zip(fwd, bwd)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracks = track_detections(detections, args.mode, fit_results=fit_results,
                              edges=stride_gated(cfg.edges, args.stride),
                              two_stage=cfg.two_stage)
    io.save_trajectories(out / "tracks.csv", tracks)
    report = clear_mot(tracks, list(truth.trajectories), cfg.dist_threshold)
    (out / "mot_report.json").write_text(report.to_json())
    print(f"{args.mode}: {len(tracks)} tracks, mota={report.mota:.4f} "
          f"idf1={report.idf1:.4f} motp={report.motp:.3f}")
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


def _scene(cfg: ExperimentConfig, seed: int):
    """The scene of `seed`, its simulated truth and its detections."""
    scene = replace(cfg.scene, seed=seed)
    truth = generate_scene(scene)
    return scene, truth, corrupt_detections(truth)


def _sweep_points(cfg: ExperimentConfig, scene: SceneConfig, truth, detections,
                  stride: int, workers: int) -> list:
    """The point of each of `cfg.modes` on one simulated scene at `stride`.
    The modes that read offsets share one fit of the stride's frames."""
    fit_results = None
    if any(m in FIT_MODES for m in cfg.modes):
        fit_results = _fit(scene, subsample_fps(detections, stride), cfg.fit, workers)
    return [run_tracking_point(scene, stride, mode, cfg.fit, cfg.edges, cfg.two_stage,
                               cfg.dist_threshold, truth=truth, detections=detections,
                               fit_results=fit_results)[0]
            for mode in cfg.modes]


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """Every (stride, seed) point, sorted by stride, mode and seed. Each
    seed's scene is simulated once and serves every stride; each point's
    frame pairs are fitted by `workers` processes."""
    scenes = [_scene(cfg, seed) for seed in cfg.seeds]
    points = [p for stride in cfg.fps_strides for scene in scenes
              for p in _sweep_points(cfg, *scene, stride, workers)]
    points.sort(key=lambda p: (p.stride, p.mode, p.seed))
    return points


def _write_points_csv(path, points) -> None:
    io.write_csv(path, "stride,mode,seed,mota,idf1,motp",
                 ((p.stride, p.mode, p.seed, p.mota, p.idf1, p.motp) for p in points))


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
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, not {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, not {args.seed}")
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

# Each loss-term arm and the LossWeights fields it sets to zero. no_mot fits
# nothing and scores the zero field: without the consistency term a pair
# that does not start (see the fit module) keeps its zero offsets, and a
# started pair would keep what the fb and se terms make of its detection
# matches, which measures the start, not the loss. The arms fit at stride 1,
# where no pair of the default scene starts.
FIT_ARMS = {"full": (), "mot_only": ("lambda_fb", "lambda_se"), "no_se": ("lambda_se",),
            "no_fb": ("lambda_fb",), "no_mot": None}


def cmd_ablate(args) -> int:
    workers = _workers()
    cfg = load_experiment_config(args.config)
    if cfg.scene.num_frames < 2:
        raise ConfigError(f"scene.num_frames = {cfg.scene.num_frames}: the loss-term arms "
                          "fit the scene's pairs, so ablate needs at least 2 frames")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenes = [_scene(cfg, seed) for seed in cfg.seeds]
    rows = []
    by_arm: dict[str, list] = {arm: [] for arm in FIT_ARMS}
    for scene, truth, detections in scenes:
        for arm, zeroed in FIT_ARMS.items():
            if zeroed is None:
                rep = zero_offset_report(truth)
            else:
                weights = replace(cfg.fit.weights, **dict.fromkeys(zeroed, 0.0))
                results = _fit(scene, detections, replace(cfg.fit, weights=weights), workers)
                rep = fit_report_vs_truth(results, truth)
            by_arm[arm].append(rep)
            rows.append((arm, scene.seed, rep.l1, rep.angle_deg, rep.norm_err))
    io.write_csv(out / "ablation_fit.csv", "arm,seed,l1,angle_deg,norm_err", rows)
    print("loss-term ablation (mean over seeds):")
    for arm, reps in by_arm.items():
        mean = mean_offset_report(reps)
        print(f"  {arm:10s} l1={mean.l1:.3f} angle={mean.angle_deg:.2f} norm={mean.norm_err:.3f}")

    stride = max(cfg.fps_strides)
    motion_cfg = replace(cfg, modes=("mussp", "mussp-nomotion"))
    rows2 = [p for scene in scenes for p in _sweep_points(motion_cfg, *scene, stride, workers)]
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
