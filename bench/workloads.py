"""The benchmark's workloads: scene make-up and one round of work.

A round runs simulate's outputs through the public pipeline functions:
fit (fit workloads only), the flow tracker, the two-stage tracker, and
scoring. Every round of a run does the same work on the same scenes.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from groundflow import metrics, pipeline, sim
from groundflow.cli import load_experiment_config

DEFAULTS = load_experiment_config(None)   # the CLI's scene, fit and tracker defaults
LOWFPS_SCENES = 5                          # scenes per lowfps-s5 run, as criterion c07 fits


def _crowd(seed: int) -> list[sim.SceneConfig]:
    """140^2 cells, 50 agents, 40 frames; false positives scale with the agent count."""
    base = DEFAULTS.scene
    return [replace(base, grid=replace(base.grid, width_cells=140, height_cells=140),
                    num_agents=50, num_frames=40,
                    fp_rate_per_frame=base.fp_rate_per_frame * 50 / base.num_agents,
                    seed=seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    stride: int
    fit: bool
    flow_mode: str
    twostage_mode: str
    scenes: Callable[[int], list[sim.SceneConfig]]   # run seed -> the run's scenes


WORKLOADS = {
    w.name: w for w in (
        Workload("fit-s1", 1, True, "mussp", "bytestyle-offset",
                 lambda seed: [replace(DEFAULTS.scene, seed=seed)]),
        Workload("lowfps-s5", 5, True, "mussp", "bytestyle-offset",
                 lambda seed: [replace(DEFAULTS.scene, seed=LOWFPS_SCENES * seed + k)
                               for k in range(LOWFPS_SCENES)]),
        Workload("crowd-track", 1, False, "mussp-nomotion", "bytestyle-kalman", _crowd),
    )
}


@dataclass(frozen=True)
class Scene:
    config: sim.SceneConfig
    truth: sim.SceneTruth        # full frame rate, as simulated
    sub_truth: sim.SceneTruth    # at the workload's stride
    sub_dets: list


def make_scenes(wl: Workload, seed: int) -> list[Scene]:
    """Simulate and corrupt each scene (the set-up, not timed as wall time)."""
    scenes = []
    for cfg in wl.scenes(seed):
        truth = sim.generate_scene(cfg)
        dets = sim.corrupt_detections(truth)
        scenes.append(Scene(cfg, truth, sim.subsample_fps(truth, wl.stride),
                            sim.subsample_fps(dets, wl.stride)))
    return scenes


@dataclass
class SceneOutput:
    fits: list | None
    flow: list
    twostage: list
    flow_report: metrics.MotReport
    twostage_report: metrics.MotReport
    offset_report: metrics.OffsetReport


def run_round(wl: Workload, scenes: list[Scene]) -> tuple[float, list[SceneOutput]]:
    """Fit, track and score every scene; returns (seconds, outputs)."""
    d = DEFAULTS
    outs = []
    elapsed = 0.0
    for sc in scenes:
        t0 = time.perf_counter()
        fits = None
        if wl.fit:
            fits = pipeline.fit_scene_offsets(
                sc.sub_dets, sc.config.grid, pipeline.stride_adapted(d.fit, wl.stride),
                sc.config.gaussian_sigma_cells, sc.config.gaussian_radius_cells)
        flow = pipeline.track_detections(sc.sub_dets, wl.flow_mode, fit_results=fits,
                                         edges=d.edges, two_stage=d.two_stage)
        two = pipeline.track_detections(sc.sub_dets, wl.twostage_mode, fit_results=fits,
                                        edges=d.edges, two_stage=d.two_stage)
        gt = list(sc.sub_truth.trajectories)
        out = SceneOutput(
            fits, flow, two,
            metrics.clear_mot(flow, gt, d.dist_threshold),
            metrics.clear_mot(two, gt, d.dist_threshold),
            # without a fit, score the zero motion the flow tracker assumes
            pipeline.fit_report_vs_truth(fits, sc.sub_truth) if wl.fit
            else pipeline.zero_offset_report(sc.sub_truth),
        )
        elapsed += time.perf_counter() - t0
        outs.append(out)
    return elapsed, outs
