"""End-to-end and per-layer benchmark: simulate -> fit -> track -> score.

Run from the repository root:

    python3 bench/run.py --workload fit-s1 --seed 0 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Either way the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the full record (environment, every round, every failed check) goes to
bench/out/<workload>-seed<seed>-trace<t>.json, and a traced run's spans
to the matching .jsonl file. See bench/README.md.
"""
from __future__ import annotations

import os

# one process, no worker pool, single-threaded BLAS/OpenMP: set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GROUNDFLOW_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _import_program():
    src = ROOT / "src"
    if not (src / "groundflow" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'groundflow'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("fit-s1", "lowfps-s5", "crowd-track"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only import and simulate the workload's scenes (times set-up)")
    return ap.parse_args(argv)


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the program and simulate."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def git_commit() -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "GROUNDFLOW_THREADS")},
        "git_commit": git_commit(),
    }


# -- independent checks -------------------------------------------------------

def fit_pairs(sc):
    """The heatmap pairs the fit saw: noise-filtered detections, rendered."""
    from groundflow import pipeline
    return pipeline.fit_pairs_from_detections(
        pipeline.filter_noise_detections(sc.sub_dets), sc.config.grid,
        sc.config.gaussian_sigma_cells, sc.config.gaussian_radius_cells)


def windowed(x, fld, lam: float) -> np.ndarray:
    """The program's public windowed operator at the fit's window size."""
    from groundflow import warp
    from workloads import DEFAULTS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # offsets beyond the radius
        return warp.reconstruct(x, fld, warp.ReconstructionConfig(lam, DEFAULTS.fit.window_cells))


def reconstruct_matches_dense(pair, r) -> bool:
    """`reconstruct` at the pair's final lambda and fitted offsets equals
    the benchmark's dense sum, in both directions."""
    import checks
    lam = r.trace[-1]["lambda_r"]
    return all(checks.matches_dense(windowed(x, fld, lam), checks.dense_sum(x, fld.dx, fld.dy, lam))
               for x, fld in ((pair.x_t, r.fwd), (pair.x_t1, r.bwd)))


# At stride 5 a fitted offset can sit at the clamp (the window radius). The
# source-centred window then cuts mass even at the final lambda, so the
# reconstruct_dense check fails on the scenes of some seeds only, and a
# per-scene check whose outcome depends on the seed cannot be counted. Every
# round of a stride > 1 workload checks instead one fixed pair where the fault
# shows: pair 0 of scene seed 1024 at the workload's stride, whose backward
# field reaches the clamp. It fails on every run and is counted in `failed` as
# a known fault.
CLAMP_FAULT_SCENE_SEED = 1024
KNOWN_FAULT = "KNOWN-FAULT "
FAIL = "FAIL "


@functools.lru_cache(maxsize=None)
def clamp_fault_pair(stride: int):
    """(pair, fit result) of the fixed pair, fitted once per process."""
    from groundflow import fit, pipeline, sim
    from workloads import DEFAULTS as d
    cfg = replace(d.scene, seed=CLAMP_FAULT_SCENE_SEED)
    dets = sim.subsample_fps(sim.corrupt_detections(sim.generate_scene(cfg)), stride)
    pair = pipeline.fit_pairs_from_detections(
        pipeline.filter_noise_detections(dets), cfg.grid,
        cfg.gaussian_sigma_cells, cfg.gaussian_radius_cells)[0]
    return pair, fit.fit_offsets([pair], pipeline.stride_adapted(d.fit, stride), cfg.grid)[0]


def run_checks(wl, scenes, outs) -> list[str]:
    """Check one round's outputs; returns the names of the checks that ran,
    each prefixed with FAIL (or KNOWN_FAULT) when it failed."""
    import checks
    from groundflow import detect, metrics
    from workloads import DEFAULTS as d

    clamp = (d.fit.window_cells - 1) / 2.0
    done = []

    def op(name, ok, known=False):
        done.append(name if ok else (KNOWN_FAULT if known else FAIL) + name)

    for s, (sc, out) in enumerate(zip(scenes, outs)):
        tag = f"scene{s}"
        trajs = sc.truth.trajectories
        if out.fits is not None:
            for k, (pair, r) in enumerate(zip(fit_pairs(sc), out.fits)):
                op(f"{tag}.pair{k}.loss_falls", checks.loss_falls(r.trace))
                op(f"{tag}.pair{k}.finite_clamped", checks.finite_and_clamped(
                    r.trace, (r.fwd.dx, r.fwd.dy, r.bwd.dx, r.bwd.dy), clamp))
                if wl.stride == 1:   # stride > 1: see CLAMP_FAULT_SCENE_SEED
                    op(f"{tag}.pair{k}.reconstruct_dense", reconstruct_matches_dense(pair, r))
            fwd = [(r.fwd.dx, r.fwd.dy) for r in out.fits]
        else:
            zero = np.zeros(sc.config.grid.shape)
            fwd = [(zero, zero)] * (sc.sub_truth.num_frames - 1)
        l1, ang = checks.offset_errors(fwd, trajs, wl.stride)
        rep = out.offset_report
        op(f"{tag}.offset_error", checks.close(l1, rep.l1) and checks.close(ang, rep.angle_deg))
        if out.fits is not None:
            op(f"{tag}.below_zero_motion", l1 < checks.zero_motion_l1(trajs, len(fwd), wl.stride))

        flat = [det for dets in sc.sub_dets for det in dets]
        kept, _ = detect.select_true_detections(flat)
        motion = wl.flow_mode == "mussp"
        params = d.edges if motion else replace(d.edges, sigma_m=0.0)
        bwd = [(r.bwd.dx, r.bwd.dy) for r in out.fits] if motion else None
        op(f"{tag}.flow_valid", checks.tracks_valid(out.flow, kept, params.max_gap))
        op(f"{tag}.flow_optimal", checks.flow_optimal(out.flow, kept, bwd, params))
        op(f"{tag}.twostage_valid",
           checks.tracks_valid(out.twostage, flat, d.two_stage.max_age + 1))
        gt = list(sc.sub_truth.trajectories)
        self_rep = metrics.clear_mot(gt, gt, d.dist_threshold)
        op(f"{tag}.score_truth", self_rep.mota == 1.0 and self_rep.idf1 == 1.0)
    if wl.fit and wl.stride > 1:
        op(f"clamp_fault.scene{CLAMP_FAULT_SCENE_SEED}.pair0.reconstruct_dense",
           reconstruct_matches_dense(*clamp_fault_pair(wl.stride)), known=True)
    return done


def truncated_mass_frac(scenes, outs) -> float:
    """Share of the dense sum's mass the windowed operator drops at the
    first lambda of the schedule and the fitted offsets, over all pairs."""
    import checks

    kept = dense = 0.0
    for sc, out in zip(scenes, outs):
        for pair, r in zip(fit_pairs(sc), out.fits):
            lam = r.trace[0]["lambda_r"]
            for x, fld in ((pair.x_t, r.fwd), (pair.x_t1, r.bwd)):
                kept += float(windowed(x, fld, lam).sum())
                dense += float(checks.dense_sum(x, fld.dx, fld.dy, lam).sum())
    return 1.0 - kept / dense


# -- metrics ------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "mota": "ratio", "idf1": "ratio", "twostage_mota": "ratio", "twostage_idf1": "ratio",
    "offset_l1": "cells", "offset_angle_deg": "deg",
}

TRACK_MODES = ("mussp", "mussp-nomotion", "bytestyle-kalman", "bytestyle-offset")

PER_LAYER = {
    "sim.generate_s": "s", "sim.corrupt_s": "s", "sim.render_s": "s",
    "detect.split_s": "s", "detect.kept": "count", "detect.dropped": "count",
    "warp.plan_s": "s", "warp.plans": "count",
    "warp.forward_s": "s", "warp.forward_calls": "count",
    "warp.backward_s": "s", "warp.smooth_s": "s", "warp.smooth_calls": "count",
    "warp.block_elems": "count", "warp.truncated_mass_frac": "ratio",
    "losses.total_self_s": "s", "losses.fb_s": "s", "losses.se_s": "s",
    "fit.s": "s", "fit.self_s": "s", "fit.pair_epochs": "count", "fit.us_per_pair_epoch": "us",
    "track.build_s": "s", "track.arcs": "count",
    "track.solve_s": "s", "track.tracks": "count", "track.links": "count",
    "track.twostage_s": "s", "track.kalman_calls": "count", "track.kalman_s": "s",
    "track.hungarian_calls": "count", "track.hungarian_s": "s",
    "metrics.clear_mot_s": "s", "metrics.offset_error_s": "s",
    "pipeline.fit_s": "s",
    **{f"pipeline.track.{m}_s": "s" for m in TRACK_MODES},
    "round.minor_faults": "count",
    "trace.overhead_s": "s",
}


def end_to_end(walls, setup, rss_mb, outs) -> dict:
    """Medians over rounds and set-ups; quality is the mean over scenes."""
    mean = statistics.fmean
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "mota": mean(o.flow_report.mota for o in outs),
        "idf1": mean(o.flow_report.idf1 for o in outs),
        "twostage_mota": mean(o.twostage_report.mota for o in outs),
        "twostage_idf1": mean(o.twostage_report.idf1 for o in outs),
        "offset_l1": mean(o.offset_report.l1 for o in outs),
        "offset_angle_deg": mean(o.offset_report.angle_deg for o in outs),
    }


def layer_metrics(tracer, segment: str, span_cost: float) -> dict:
    calls, total, own = tracer.layer_times(segment)
    counts = tracer.counts.get(segment, {})
    t = lambda name: total.get(name, 0.0)
    n = lambda name: calls.get(name, 0)
    fit_s = t("fit.fit_offsets")
    epochs = counts.get("fit.pair_epochs", 0)
    m = {
        "sim.render_s": t("sim.render_heatmap"),
        "detect.split_s": t("detect.select_true_detections"),
        "detect.kept": counts.get("detect.kept", 0),
        "detect.dropped": counts.get("detect.dropped", 0),
        "warp.plan_s": t("warp.WarpPlan"), "warp.plans": n("warp.WarpPlan"),
        "warp.forward_s": t("warp.reconstruct_with_plan"),
        "warp.forward_calls": n("warp.reconstruct_with_plan"),
        "warp.backward_s": t("warp.grad_offsets_with_plan"),
        "warp.smooth_s": t("warp.smoothed_target"), "warp.smooth_calls": n("warp.smoothed_target"),
        "warp.block_elems": counts.get("warp.block_elems", 0),
        "losses.total_self_s": own.get("losses.loss_total", 0.0),
        "losses.fb_s": t("losses.loss_fb_grad"),
        "losses.se_s": t("losses.loss_se_grad_hoods") + t("losses.se_neighborhoods"),
        "fit.s": fit_s, "fit.self_s": own.get("fit.fit_offsets", 0.0),
        "fit.pair_epochs": epochs,
        "fit.us_per_pair_epoch": 1e6 * fit_s / epochs if epochs else 0.0,
        "track.build_s": t("track.build_graph"), "track.arcs": counts.get("track.arcs", 0),
        "track.solve_s": t("track.solve_ssp"),
        "track.tracks": counts.get("track.tracks", 0), "track.links": counts.get("track.links", 0),
        "track.twostage_s": t("track.run_two_stage"),
        "track.kalman_calls": n("track.kalman_predict") + n("track.kalman_update"),
        "track.kalman_s": t("track.kalman_predict") + t("track.kalman_update"),
        "track.hungarian_calls": n("track.associate_hungarian"),
        "track.hungarian_s": t("track.associate_hungarian"),
        "metrics.clear_mot_s": t("metrics.clear_mot"),
        "metrics.offset_error_s": t("metrics.offset_error"),
        "pipeline.fit_s": t("pipeline.fit_scene_offsets"),
        "trace.overhead_s": span_cost * sum(calls.values()),
    }
    for mode in TRACK_MODES:
        m[f"pipeline.track.{mode}_s"] = counts.get(f"pipeline.track.{mode}_s", 0.0)
    return m


# -- the run ------------------------------------------------------------------

def measure_rounds(wl, scenes, seconds, record, tracer=None):
    """Run whole rounds, each followed by its checks, while the next round
    is expected to end within `seconds` (at least one round). Returns the
    round wall times."""
    from workloads import run_round

    walls = []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.segment = f"round{len(record['rounds'])}"
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wall, outs = run_round(wl, scenes)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        walls.append(wall)
        if "rss_mb" not in record:
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["outs"] = outs
        if tracer is not None:
            tracer.segment = "checks"
        record["checks"].extend(run_checks(wl, scenes, outs))
        record["rounds"].append({"wall_s": wall, "segment": f"round{len(record['rounds'])}",
                                 "minor_faults": faults})
        spent = time.perf_counter() - t_start
        if spent * (len(walls) + 1) / len(walls) > seconds:
            return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.make_scenes(wl, args.seed)
        return 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "rounds": [], "checks": []}

    if args.trace == 0:
        record["setup_samples_s"] = measure_setup(args)
        scenes = workloads.make_scenes(wl, args.seed)
        walls = measure_rounds(wl, scenes, args.seconds, record)
        metrics = end_to_end(walls, record["setup_samples_s"], record["rss_mb"], record["outs"])
        units = END_TO_END
    else:
        from tracer import Tracer, span_cost
        record["span_cost_s"] = cost = span_cost()
        tracer = Tracer()
        record["wrapped"] = tracer.install()
        scenes = workloads.make_scenes(wl, args.seed)
        measure_rounds(wl, scenes, args.seconds, record, tracer=tracer)
        per_round = [dict(layer_metrics(tracer, r["segment"], cost), **{"round.minor_faults": r["minor_faults"]})
                     for r in record["rounds"]]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        _, setup_total, _ = tracer.layer_times("setup")
        metrics["sim.generate_s"] = setup_total.get("sim.generate_scene", 0.0)
        metrics["sim.corrupt_s"] = setup_total.get("sim.corrupt_detections", 0.0)
        tracer.segment = "post"
        metrics["warp.truncated_mass_frac"] = (
            truncated_mass_frac(scenes, record["outs"]) if wl.fit else 0.0)
        tracer.uninstall()
        tracer.write_jsonl(stem.with_suffix(".jsonl"))
        units = PER_LAYER

    failed = [c for c in record["checks"] if c.startswith((FAIL, KNOWN_FAULT))]
    result = {
        # a known fault fails on every run; correct speaks of the other checks
        "correct": not any(c.startswith(FAIL) for c in failed),
        "attempted": len(record["checks"]),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    del record["outs"]
    record["failed_checks"] = failed
    record["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for name in failed:
        print(name, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
