"""The benchmark's checks pass on the program's outputs and fail on
deliberately corrupted ones. Run from the repository root:

    python3 -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from groundflow import pipeline, sim, track, warp  # noqa: E402
from groundflow.core import Detection, GroundGrid, OffsetField, Trajectory  # noqa: E402
from workloads import DEFAULTS  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A 28^2, 4-agent, 8-frame scene fitted for 40 epochs."""
    cfg = replace(DEFAULTS.scene, grid=GroundGrid(28, 28), num_agents=4, num_frames=8, seed=3)
    truth = sim.generate_scene(cfg)
    dets = sim.corrupt_detections(truth)
    fit_cfg = replace(DEFAULTS.fit, epochs=40, window_cells=15)
    fits = pipeline.fit_scene_offsets(dets, cfg.grid, fit_cfg, cfg.gaussian_sigma_cells,
                                      cfg.gaussian_radius_cells)
    pairs = pipeline.fit_pairs_from_detections(
        pipeline.filter_noise_detections(dets), cfg.grid,
        cfg.gaussian_sigma_cells, cfg.gaussian_radius_cells)
    kept = [d for frame in pipeline.filter_noise_detections(dets) for d in frame]
    flow = pipeline.track_detections(dets, "mussp", fit_results=fits, edges=DEFAULTS.edges)
    return dict(truth=truth, fits=fits, pairs=pairs, kept=kept, flow=flow,
                window=fit_cfg.window_cells, report=pipeline.fit_report_vs_truth(fits, truth))


def _bwd(fits):
    return [(r.bwd.dx, r.bwd.dy) for r in fits]


def test_checks_pass_on_program_output(small):
    clamp = (small["window"] - 1) / 2
    for pair, r in zip(small["pairs"], small["fits"]):
        assert checks.loss_falls(r.trace)
        assert checks.finite_and_clamped(r.trace, (r.fwd.dx, r.fwd.dy, r.bwd.dx, r.bwd.dy), clamp)
        lam = r.trace[-1]["lambda_r"]
        got = warp.reconstruct(pair.x_t, r.fwd, warp.ReconstructionConfig(lam, small["window"]))
        assert checks.matches_dense(got, checks.dense_sum(pair.x_t, r.fwd.dx, r.fwd.dy, lam))
    l1, ang = checks.offset_errors([(r.fwd.dx, r.fwd.dy) for r in small["fits"]],
                                   small["truth"].trajectories, 1)
    assert checks.close(l1, small["report"].l1) and checks.close(ang, small["report"].angle_deg)
    assert l1 < checks.zero_motion_l1(small["truth"].trajectories, len(small["fits"]), 1)
    assert checks.tracks_valid(small["flow"], small["kept"], DEFAULTS.edges.max_gap)
    assert checks.flow_optimal(small["flow"], small["kept"], _bwd(small["fits"]), DEFAULTS.edges)


def test_swapped_link_fails(small):
    tracks = sorted(small["flow"], key=lambda tr: -len(tr.points))
    a, b = tracks[0].points, tracks[1].points
    t = next(p[0] for p in a if any(q[0] == p[0] for q in b) and p[0] + 1 in
             {q[0] for q in a} & {q[0] for q in b})
    swapped = [Trajectory(0, [p for p in a if p[0] <= t] + [q for q in b if q[0] > t]),
               Trajectory(1, [q for q in b if q[0] <= t] + [p for p in a if p[0] > t])]
    corrupted = swapped + tracks[2:]
    assert checks.tracks_valid(corrupted, small["kept"], DEFAULTS.edges.max_gap)
    assert not checks.flow_optimal(corrupted, small["kept"], _bwd(small["fits"]), DEFAULTS.edges)


def test_perturbed_offset_fails(small):
    fwd = [(r.fwd.dx.copy(), r.fwd.dy.copy()) for r in small["fits"]]
    cx, cy, _, _ = checks.true_offset_rows(small["truth"].trajectories, 0, 1)[0]
    fwd[0][0][cy, cx] += 0.5
    l1, ang = checks.offset_errors(fwd, small["truth"].trajectories, 1)
    assert not (checks.close(l1, small["report"].l1) and checks.close(ang, small["report"].angle_deg))
    # the dense comparison also sees an offset that differs from the one warped
    pair, r = small["pairs"][0], small["fits"][0]
    lam = r.trace[-1]["lambda_r"]
    got = warp.reconstruct(pair.x_t, r.fwd, warp.ReconstructionConfig(lam, small["window"]))
    assert not checks.matches_dense(got, checks.dense_sum(pair.x_t, *fwd[0], lam))


def test_dropped_source_fails(small):
    pair, r = small["pairs"][0], small["fits"][0]
    lam = r.trace[-1]["lambda_r"]
    x = pair.x_t.copy()
    ys, xs = np.nonzero(x)
    x[ys[0], xs[0]] = 0.0
    got = warp.reconstruct(x, r.fwd, warp.ReconstructionConfig(lam, small["window"]))
    assert not checks.matches_dense(got, checks.dense_sum(pair.x_t, r.fwd.dx, r.fwd.dy, lam))


def test_bad_fit_outputs_fail():
    rising = [{"l_mot": 1.0, "l_fb": 0.0, "l_se": 0.0, "total": 1.0},
              {"l_mot": 2.0, "l_fb": 0.0, "l_se": 0.0, "total": 2.0}]
    assert not checks.loss_falls(rising)
    nan = [dict(rising[0], l_fb=float("nan"))]
    assert not checks.finite_and_clamped(nan, (np.zeros((2, 2)),), 1.0)
    assert not checks.finite_and_clamped(rising, (np.full((2, 2), 1.5),), 1.0)


def test_invalid_tracks_fail():
    dets = [Detection(0, 1.0, 1.0, 0.9), Detection(1, 2.0, 1.0, 0.9), Detection(5, 3.0, 1.0, 0.9)]
    assert checks.tracks_valid([Trajectory(0, [(0, 1.0, 1.0), (1, 2.0, 1.0)])], dets, 3)
    assert not checks.tracks_valid([Trajectory(0, [(0, 1.0, 1.0), (1, 2.5, 1.0)])], dets, 3)
    assert not checks.tracks_valid([Trajectory(0, [(0, 1.0, 1.0)]),
                                    Trajectory(1, [(0, 1.0, 1.0)])], dets, 3)
    assert not checks.tracks_valid([Trajectory(0, [(1, 2.0, 1.0), (5, 3.0, 1.0)])], dets, 3)


@pytest.mark.parametrize("seed", range(20))
def test_path_cover_matches_brute_force(seed):
    """The independent optimum agrees with the program's exhaustive oracle."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    times = np.sort(rng.integers(0, 4, n))
    dets = [Detection(int(t), float(x), float(y), float(c)) for t, x, y, c in
            zip(times, rng.uniform(0, 9, n), rng.uniform(0, 9, n), rng.uniform(0.05, 1, n))]
    fields = [(rng.normal(0, 0.5, (10, 10)), rng.normal(0, 0.5, (10, 10))) for _ in range(3)]
    grid = GroundGrid(10, 10)
    p = replace(DEFAULTS.edges, max_gap=2, entry_cost=0.1, exit_cost=0.1)
    g = track.build_graph(dets, [OffsetField(grid, *f) for f in fields], p)
    _, oracle = track.brute_force_detailed(g)
    assert abs(checks.path_cover_optimum(*checks.flow_costs(dets, fields, p)) - oracle) < 1e-9


def test_dense_sum_matches_program_oracle():
    rng = np.random.default_rng(0)
    x = np.where(rng.uniform(size=(12, 12)) < 0.3, rng.uniform(size=(12, 12)), 0.0)
    dx, dy = rng.normal(0, 3, (12, 12)), rng.normal(0, 3, (12, 12))
    for lam in (0.16, 0.8, 5.0):
        ref = warp.reconstruct_dense(x, (dx, dy), lam)
        assert np.max(np.abs(checks.dense_sum(x, dx, dy, lam) - ref)) < 1e-12
