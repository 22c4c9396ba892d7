import math

import numpy as np
import pytest

from groundflow import pipeline
from groundflow.cli import load_experiment_config
from groundflow.core import Detection, GroundGrid, OffsetField
from groundflow.errors import InstanceTooLarge
from groundflow.pipeline import filter_noise_detections, stride_gated
from groundflow.sim import SceneConfig, corrupt_detections, generate_scene
from groundflow.track import (
    MOTION_SOURCES,
    EdgeCostParams,
    TrackingGraph,
    TwoStageConfig,
    _square_iou_cost,
    associate_hungarian,
    associate_nearest,
    brute_force_detailed,
    build_graph,
    cover_cost,
    kalman_predict_batch,
    kalman_update_batch,
    run_two_stage,
    solve_ssp,
    solve_ssp_detailed,
)
from oracles import edge_cost, kalman_predict, kalman_update, square_iou


class TestEdgeCost:
    def test_perfect_consecutive_match(self):
        p = EdgeCostParams()
        # same position, gap 1, perfect backward motion: every exponent is 0
        c = edge_cost((3.0, 4.0), (3.0, 4.0), 0, 1, (0.0, 0.0), p)
        assert c == -1.0

    def test_motion_term_disabled(self):
        p = EdgeCostParams(sigma_t=0.5, sigma_d=0.2, sigma_m=0.0)
        c = edge_cost((0.0, 0.0), (3.0, 4.0), 2, 3, (100.0, -50.0), p)
        assert c == pytest.approx(-math.exp(-0.2 * 5.0))

    def test_hand_evaluated_example(self):
        p = EdgeCostParams(sigma_t=0.5, sigma_d=0.1, sigma_m=0.1)
        # gap 2, d(i,j) = 4, motion residual distance 1
        j = (0.0, 0.0)
        i = (4.0, 0.0)
        # backward offset puts j + 2*delta at distance 1 from i
        delta = (1.5, 0.0)
        c = edge_cost(i, j, 0, 2, delta, p)
        assert c == pytest.approx(-math.exp(-1.0), rel=1e-12)

    def test_gap_violation(self):
        p = EdgeCostParams(max_gap=3)
        with pytest.raises(ValueError):
            edge_cost((0, 0), (1, 1), 0, 4, (0, 0), p)
        with pytest.raises(ValueError):
            edge_cost((0, 0), (1, 1), 2, 2, (0, 0), p)

    def test_magnitude_monotone_in_motion_residual(self):
        p = EdgeCostParams(sigma_m=0.3)
        costs = []
        for resid in (0.0, 0.5, 1.0, 3.0, 8.0):
            c = edge_cost((resid, 0.0), (0.0, 0.0), 0, 1, (0.0, 0.0),
                          EdgeCostParams(sigma_d=0.0, sigma_m=0.3))
            costs.append(abs(c))
        assert all(a >= b for a, b in zip(costs, costs[1:]))


class TestBuildGraph:
    def test_single_frame_counts(self):
        dets = [Detection(0, 1.0, 1.0, 0.9), Detection(0, 5.0, 5.0, 0.8)]
        g = build_graph(dets, None, EdgeCostParams())
        assert len(g.detections) == 2
        assert len(g.trans) == 0

    def test_two_frames_full_bipartite(self):
        dets = [Detection(0, 1.0, 1.0, 0.9), Detection(0, 5.0, 5.0, 0.8),
                Detection(1, 1.5, 1.0, 0.9), Detection(1, 5.5, 5.0, 0.8)]
        g = build_graph(dets, None, EdgeCostParams(max_gap=1))
        assert len(g.detections) == 4
        assert len(g.trans) == 4

    def test_empty(self):
        g = build_graph([], None, EdgeCostParams())
        assert solve_ssp(g) == []

    def test_observation_cost_scale(self):
        dets = [Detection(0, 1.0, 1.0, 0.6)]
        g = build_graph(dets, None, EdgeCostParams(obs_cost_scale=2.0))
        assert g.obs[0] == pytest.approx(-1.2)

    def test_max_gap_limits_edges(self):
        dets = [Detection(t, 1.0, 1.0, 0.9) for t in range(5)]
        g = build_graph(dets, None, EdgeCostParams(max_gap=2))
        gaps = set((g.tails - g.heads).tolist())
        assert gaps == {1, 2}

    @pytest.mark.parametrize("max_gap", [10**12, 2**63])
    def test_max_gap_beyond_the_span_builds_the_span_graph(self, max_gap):
        # no gap of the stream (frames from 2 on) exceeds its span, so a
        # larger max_gap gives the same arcs, bit for bit
        truth = generate_scene(SceneConfig(grid=GroundGrid(24, 24), num_agents=3,
                                           num_frames=10, miss_rate=0.2, seed=2))
        dets = [d for frame in corrupt_detections(truth)[2:] for d in frame]
        span = max(d.time for d in dets) - min(d.time for d in dets)
        want = build_graph(dets, None, EdgeCostParams(max_gap=span))
        got = build_graph(dets, None, EdgeCostParams(max_gap=max_gap))
        for name in ("heads", "tails", "trans"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert len(got.trans)

    def test_gate_scales_with_gap(self):
        # (0, 1) is 10 cells at gap 1, beyond reach 8; (0, 2) is 16 cells at
        # gap 2, within 2 x 8; the bound is inclusive
        dets = [Detection(0, 0.0, 0.0, 0.9), Detection(1, 10.0, 0.0, 0.9),
                Detection(2, 16.0, 0.0, 0.9)]
        g = build_graph(dets, None, EdgeCostParams(gate_cells=8.0))
        assert list(zip(g.heads.tolist(), g.tails.tolist())) == [(0, 2), (1, 2)]
        g = build_graph(dets, None, EdgeCostParams(gate_cells=10.0))
        assert list(zip(g.heads.tolist(), g.tails.tolist())) == [(0, 1), (0, 2), (1, 2)]

    def test_reach_is_off_by_default_and_scales_with_stride(self):
        assert EdgeCostParams().gate_cells == math.inf
        assert [stride_gated(EdgeCostParams(), s).gate_cells for s in (1, 3, 5, 10)] == \
            [16.0, 48.0, 80.0, 160.0]

    def test_tracking_point_gates_by_stride(self, monkeypatch):
        seen = []
        real = pipeline.track_detections
        monkeypatch.setattr(pipeline, "track_detections",
                            lambda *a, **k: seen.append(k["edges"].gate_cells) or real(*a, **k))
        cfg = SceneConfig(grid=GroundGrid(16, 16), num_agents=2, num_frames=7, seed=0)
        for stride in (1, 3):
            pipeline.run_tracking_point(cfg, stride, "mussp-nomotion",
                                        load_experiment_config(None).fit)
        assert seen == [16.0, 48.0]

    @pytest.mark.parametrize("name", ["sigma_t", "sigma_d", "sigma_m", "entry_cost", "exit_cost"])
    def test_nan_cost_parameter_is_rejected(self, name):
        with pytest.raises(ValueError):
            EdgeCostParams(**{name: float("nan")})

    def test_gate_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                EdgeCostParams(gate_cells=bad)


def _crossing_graph():
    """2x2 scenario: straight links cost -0.9, crossing links -0.5."""
    dets = (Detection(0, 0.0, 0.0, 0.9), Detection(0, 10.0, 0.0, 0.9),
            Detection(1, 1.0, 0.0, 0.9), Detection(1, 11.0, 0.0, 0.9))
    obs = np.full(4, -0.3)
    heads = np.array([0, 0, 1, 1])
    tails = np.array([2, 3, 2, 3])
    trans = np.array([-0.9, -0.5, -0.5, -0.9])
    return TrackingGraph(dets, obs, heads, tails, trans,
                         EdgeCostParams(entry_cost=0.1, exit_cost=0.1))


class TestSolveSsp:
    def test_single_negative_detection(self):
        dets = [Detection(0, 1.0, 1.0, 0.9)]
        g = build_graph(dets, None, EdgeCostParams(entry_cost=0.2, exit_cost=0.2))
        tracks = solve_ssp(g)
        assert len(tracks) == 1
        assert tracks[0].points == ((0, 1.0, 1.0),)

    def test_positive_paths_give_no_tracks(self):
        dets = [Detection(0, 1.0, 1.0, 0.1), Detection(1, 1.0, 1.0, 0.1)]
        g = build_graph(dets, None, EdgeCostParams(entry_cost=5.0, exit_cost=5.0))
        assert solve_ssp(g) == []

    def test_crossing_scenario_prefers_straight(self):
        g = _crossing_graph()
        tracks, cost = solve_ssp_detailed(g)
        assert sorted(tracks) == [[0, 2], [1, 3]]
        assert cost == pytest.approx(2 * (0.1 - 0.3 - 0.9 - 0.3 + 0.1))
        bf_tracks, bf_cost = brute_force_detailed(g)
        assert cost == pytest.approx(bf_cost, abs=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            n_frames = int(rng.integers(2, 5))
            dets = []
            for t in range(n_frames):
                for _ in range(int(rng.integers(0, 3))):
                    dets.append(Detection(t, float(rng.uniform(0, 12)),
                                          float(rng.uniform(0, 12)),
                                          float(rng.uniform(0.3, 1.0))))
            dets = dets[:8]
            params = EdgeCostParams(
                sigma_t=float(rng.uniform(0, 1)),
                sigma_d=float(rng.uniform(0.05, 0.3)),
                sigma_m=float(rng.uniform(0, 0.3)),
                max_gap=int(rng.integers(1, 4)),
                entry_cost=float(rng.uniform(0, 0.5)),
                exit_cost=float(rng.uniform(0, 0.5)),
            )
            g = build_graph(dets, None, params)
            _, ssp_cost = solve_ssp_detailed(g)
            _, bf_cost = brute_force_detailed(g)
            assert ssp_cost == pytest.approx(bf_cost, abs=1e-9), f"trial {trial}"

    @staticmethod
    def _pinned_crowd_frames():
        # 140^2 cells, 50 agents, 40 frames, ~1.9 false positives per frame,
        # noise filtered as track_detections does
        cfg = SceneConfig(grid=GroundGrid(140, 140), num_agents=50, num_frames=40,
                          speed_cells=(0.8, 1.8), miss_rate=0.03,
                          fp_rate_per_frame=1.875, jitter_sigma_cells=0.15, seed=200)
        return filter_noise_detections(corrupt_detections(generate_scene(cfg)))

    def test_pinned_crowd_instance_keeps_ssp_optimum(self):
        # Ungated. Objective and counts were recorded with the
        # successive-shortest-paths solver that the assignment replaced.
        g = build_graph(self._pinned_crowd_frames(), None, EdgeCostParams(gate_cells=math.inf))
        assert (len(g.detections), len(g.trans)) == (1949, 270562)
        tracks, cost = solve_ssp_detailed(g)
        assert cost == pytest.approx(-2916.218285294614, rel=1e-9)
        assert len(tracks) == 50
        assert sum(len(tr) - 1 for tr in tracks) == 1899

    def test_pinned_crowd_instance_at_stride_one_reach(self):
        # the reach the CLI gives a full-rate sequence keeps about a sixth
        # of the arcs and the same optimum, and every link of it lies
        # within reach
        p = stride_gated(EdgeCostParams(), 1)
        g = build_graph(self._pinned_crowd_frames(), None, p)
        assert (len(g.detections), len(g.trans)) == (1949, 44130)
        tracks, cost = solve_ssp_detailed(g)
        assert cost == pytest.approx(-2916.218285294614, rel=1e-9)
        assert len(tracks) == 50
        assert sum(len(tr) - 1 for tr in tracks) == 1899
        for tr in tracks:
            for a, b in zip(tr, tr[1:]):
                i, j = g.detections[a], g.detections[b]
                assert math.hypot(i.x - j.x, i.y - j.y) <= p.gate_cells * (j.time - i.time)

    def test_trajectories_are_vertex_disjoint_and_increasing(self):
        rng = np.random.default_rng(7)
        dets = [Detection(t, float(rng.uniform(0, 30)), float(rng.uniform(0, 30)),
                          float(rng.uniform(0.5, 1.0)))
                for t in range(6) for _ in range(4)]
        g = build_graph(dets, None, EdgeCostParams())
        tracks, _ = solve_ssp_detailed(g)
        flat = [i for tr in tracks for i in tr]
        assert len(flat) == len(set(flat))
        for tr in tracks:
            times = [g.detections[i].time for i in tr]
            assert times == sorted(times) and len(set(times)) == len(times)


class TestBruteForce:
    def test_instance_too_large(self):
        dets = [Detection(t, 0.0, 0.0, 0.9) for t in range(11)]
        g = build_graph(dets, None, EdgeCostParams())
        with pytest.raises(InstanceTooLarge):
            brute_force_detailed(g)

    def test_empty(self):
        g = build_graph([], None, EdgeCostParams())
        tracks, cost = brute_force_detailed(g)
        assert tracks == [] and cost == 0.0

    def test_cover_cost_matches_manual_sum(self):
        g = _crossing_graph()
        manual = (0.1 - 0.3 - 0.9 - 0.3 + 0.1) * 2
        assert cover_cost(g, [[0, 2], [1, 3]]) == pytest.approx(manual)


class TestAssociateNearest:
    def test_disjoint_clusters(self):
        cost = np.array([[0.5, 10.5], [9.5, 0.5]])
        assert associate_nearest(cost, 3.0) == [(0, 0), (1, 1)]

    def test_many_to_one_allowed(self):
        cost = np.array([[0.5], [0.5]])
        assert associate_nearest(cost, 3.0) == [(0, 0), (1, 0)]

    def test_out_of_range_unmatched(self):
        assert associate_nearest(np.array([[50.0]]), 3.0) == []


class TestAssociateHungarian:
    def test_exhaustive_2x2(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        m = associate_hungarian(cost)
        assert m == [(0, 0), (1, 1)]
        assert sum(cost[r, c] for r, c in m) == 2.0

    def test_tie_break_smallest_row_col(self):
        assert associate_hungarian(np.ones((2, 2))) == [(0, 0), (1, 1)]

    def test_all_beyond_cutoff(self):
        assert associate_hungarian(np.full((2, 2), 9.0), cutoff=5.0) == []

    @pytest.mark.parametrize("cost, cutoff, want", [
        ([[math.nan, 1.0]], math.inf, ValueError),
        ([[1.0, -math.inf]], math.inf, ValueError),
        ([[1.0, 2.0]], math.nan, ValueError),
        (np.zeros((2, 0)), math.nan, ValueError),
        ([[math.inf]], math.inf, []),
        ([[math.inf, 1.0], [1.0, 2.0]], math.inf, [(0, 1), (1, 0)]),
        ([[math.inf, 1.0], [1.0, 2.0]], 1.5, [(0, 1), (1, 0)]),
        ([[0.0, 2e9], [0.0, math.inf]], math.inf, [(0, 1), (1, 0)]),
        ([[2.0**53, 2.0**53], [2.0**53, math.inf]], math.inf, [(0, 1), (1, 0)]),
    ])
    def test_nan_and_minus_inf_fail_and_plus_inf_is_forbidden(self, cost, cutoff, want):
        if want is ValueError:
            with pytest.raises(ValueError):
                associate_hungarian(np.array(cost), cutoff)
        else:
            assert associate_hungarian(np.array(cost), cutoff) == want

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cost = rng.random((4, 5)) * 10
            assert associate_hungarian(cost) == associate_hungarian(cost + 7.5)


class TestKalman:
    def test_noise_free_constant_velocity_exact_after_two_updates(self):
        mean, cov = np.zeros(4), np.eye(4)
        truth = lambda t: (2.0 * t, -1.0 * t)
        mean, cov = kalman_update(mean, cov, truth(0), meas_noise=0.0)
        mean, cov = kalman_predict(mean, cov, process_noise=0.0)
        mean, cov = kalman_update(mean, cov, truth(1), meas_noise=0.0)
        mean, cov = kalman_predict(mean, cov, process_noise=0.0)
        assert np.allclose(mean[:2], truth(2), atol=1e-9)

    def test_stationary_position_variance_decreases(self):
        means, covs = np.zeros((1, 4)), np.diag([10.0, 10.0, 1.0, 1.0])[None]
        prev = covs[0, 0, 0]
        for _ in range(10):
            means, covs = kalman_predict_batch(means, covs)
            means, covs = kalman_update_batch(means, covs, np.zeros((1, 2)))
            assert covs[0, 0, 0] < prev + 1e-12
            prev = covs[0, 0, 0]

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(3)
        means, covs = np.zeros((5, 4)), np.tile(4.0 * np.eye(4), (5, 1, 1))
        for k in range(20):
            means, covs = kalman_predict_batch(means, covs)
            means, covs = kalman_update_batch(means, covs, rng.normal(0, 1, (5, 2)))
            assert np.array_equal(covs, covs.swapaxes(1, 2))


def _pts(track):
    return [p[1:] for p in track.points]


class TestTwoStage:
    def test_overlapping_detection_matches(self):
        frames = [[Detection(0, 10.0, 10.0, 0.9)], [Detection(1, 11.0, 10.5, 0.95)]]
        out = run_two_stage(frames, "learned-offset", cfg=TwoStageConfig(box_side=5.0))
        assert [tr.id for tr in out] == [0]
        assert out[0].points == ((0, 10.0, 10.0), (1, 11.0, 10.5))

    def test_large_displacement_needs_learned_offset(self):
        cfg = TwoStageConfig(box_side=4.0)
        grid = GroundGrid(32, 32)
        fwd = OffsetField(grid, np.full((32, 32), 8.0), np.zeros((32, 32)))
        # the second detection is 8 cells right of the track head
        frames = [[Detection(0, 10.0, 10.0, 0.9)], [Detection(1, 18.0, 10.0, 0.95)]]
        out = run_two_stage(frames, "learned-offset", cfg=cfg)
        assert [_pts(tr) for tr in out] == [[(10.0, 10.0)], [(18.0, 10.0)]]
        out = run_two_stage(frames, "learned-offset", fwd_fields=[fwd], cfg=cfg)
        assert [_pts(tr) for tr in out] == [[(10.0, 10.0), (18.0, 10.0)]]

    def test_no_detections_age_and_expire(self):
        # a track missed max_age frames in a row is still matched, one
        # frame later it is gone and the detection starts a new track
        cfg = TwoStageConfig(max_age=2)
        for gap, ids in ((3, [0]), (4, [0, 1])):
            frames = ([[Detection(0, 5.0, 5.0, 0.9)]] + [[]] * (gap - 1)
                      + [[Detection(gap, 5.0, 5.0, 0.9)]])
            for motion in MOTION_SOURCES:
                assert [tr.id for tr in run_two_stage(frames, motion, cfg=cfg)] == ids

    def test_low_confidence_cannot_start_tracks(self):
        for motion in MOTION_SOURCES:
            assert run_two_stage([[Detection(0, 3.0, 3.0, 0.2)]], motion) == []

    def test_second_stage_rescues_with_low_confidence(self):
        # low confidence and overlapping: matched in stage 2, starts nothing
        frames = [[Detection(0, 10.0, 10.0, 0.9)], [Detection(1, 10.5, 10.0, 0.2)]]
        out = run_two_stage(frames, "learned-offset", cfg=TwoStageConfig(box_side=5.0))
        assert [_pts(tr) for tr in out] == [[(10.0, 10.0), (10.5, 10.0)]]

    def test_no_track_starts_at_a_detection_the_split_drops(self):
        # the 2-means split of these confidences lies exactly at 0.3, and a
        # detection is confident only strictly above it; each detection is
        # alone in its frame, so every confident one starts a track
        frames = [[Detection(t, 5.0 + 10.0 * t, 5.0, c)]
                  for t, c in enumerate((0.0, 0.0, 0.3, 0.4, 0.6))]
        kept = [d for dets in filter_noise_detections(frames) for d in dets]
        assert [d.confidence for d in kept] == [0.4, 0.6]
        for mode in ("bytestyle-kalman", "bytestyle-offset"):
            tracks = pipeline.track_detections(frames, mode)
            assert [tr.points[0] for tr in tracks] == [(3, 35.0, 5.0), (4, 45.0, 5.0)], mode

    def test_bad_motion_source_and_config_rejected(self):
        with pytest.raises(ValueError):
            run_two_stage([], "none")
        for bad in ({"box_side": 0.0}, {"iou_threshold": 1.5}, {"iou_threshold": -0.1},
                    {"max_age": -1}):
            with pytest.raises(ValueError):
                TwoStageConfig(**bad)

    def test_iou_cost_matrix_equals_pairwise_iou(self):
        rng = np.random.default_rng(11)
        for side in (0.0, 1.0, 5.0, 2.7):
            a = rng.uniform(0, 20, (9, 2))
            b = np.concatenate([np.round(a[:4]), rng.uniform(0, 20, (5, 2))])  # exact overlaps too
            got = _square_iou_cost(a, b, side)
            want = np.array([[1.0 - square_iou(x, y, side) for y in b] for x in a])
            assert np.array_equal(got, want)

    def test_kalman_keeps_a_constant_velocity_target_through_misses(self):
        # the kept state is predicted one frame per frame, so after k
        # missed frames the head is k + 1 frames ahead of the last detection
        for missed in ((6,), (6, 7)):
            frames = [[] if t in missed else [Detection(t, 5.0 + 2.0 * t, 8.0, 0.9)]
                      for t in range(12)]
            tracks = run_two_stage(frames, "kalman")
            assert [tr.id for tr in tracks] == [0], missed
            assert len(tracks[0].points) == 12 - len(missed)

    def test_run_two_stage_tracks_constant_velocity(self):
        frames = [[Detection(t, 5.0 + 1.0 * t, 8.0, 0.9)] for t in range(6)]
        tracks = run_two_stage(frames, "kalman")
        assert len(tracks) == 1
        assert len(tracks[0].points) == 6
