import math

import numpy as np
import pytest

from groundflow.core import Detection, GroundGrid, OffsetField
from groundflow.errors import InstanceTooLarge, NonSpdCovariance
from groundflow.pipeline import filter_noise_detections
from groundflow.sim import SceneConfig, corrupt_detections, generate_scene
from groundflow.track import (
    EdgeCostParams,
    KalmanState,
    OnlineTrack,
    TrackingGraph,
    TwoStageConfig,
    _square_iou,
    _square_iou_cost,
    associate_hungarian,
    associate_nearest,
    associate_two_stage,
    brute_force_detailed,
    brute_force_tracks,
    build_graph,
    cover_cost,
    edge_cost,
    kalman_predict,
    kalman_update,
    run_two_stage,
    solve_ssp,
    solve_ssp_detailed,
)


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


def _crossing_graph():
    """2x2 scenario: straight links cost -0.9, crossing links -0.5."""
    dets = (Detection(0, 0.0, 0.0, 0.9), Detection(0, 10.0, 0.0, 0.9),
            Detection(1, 1.0, 0.0, 0.9), Detection(1, 11.0, 0.0, 0.9))
    entry = np.full(4, 0.1)
    exit_ = np.full(4, 0.1)
    obs = np.full(4, -0.3)
    heads = np.array([0, 0, 1, 1])
    tails = np.array([2, 3, 2, 3])
    trans = np.array([-0.9, -0.5, -0.5, -0.9])
    return TrackingGraph(dets, entry, exit_, obs, heads, tails, trans, EdgeCostParams())


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

    def test_pinned_crowd_instance_keeps_ssp_optimum(self):
        # 140^2 cells, 50 agents, 40 frames, ~1.9 false positives per frame,
        # noise filtered as track_detections does. Objective and counts were
        # recorded with the successive-shortest-paths solver that the
        # assignment replaced.
        cfg = SceneConfig(grid=GroundGrid(140, 140), num_agents=50, num_frames=40,
                          speed_cells=(0.8, 1.8), miss_rate=0.03,
                          fp_rate_per_frame=1.875, jitter_sigma_cells=0.15, seed=200)
        frames = filter_noise_detections(corrupt_detections(generate_scene(cfg)))
        g = build_graph(frames, None, EdgeCostParams())
        assert (len(g.detections), len(g.trans)) == (1949, 270562)
        tracks, cost = solve_ssp_detailed(g)
        assert cost == pytest.approx(-2916.218285294614, rel=1e-9)
        assert len(tracks) == 50
        assert sum(len(tr) - 1 for tr in tracks) == 1899

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
            brute_force_tracks(g)

    def test_empty(self):
        g = build_graph([], None, EdgeCostParams())
        tracks, cost = brute_force_detailed(g)
        assert tracks == [] and cost == 0.0

    def test_cover_cost_matches_manual_sum(self):
        g = _crossing_graph()
        manual = (0.1 - 0.3 - 0.9 - 0.3 + 0.1) * 2
        assert cover_cost(g, [[0, 2], [1, 3]]) == pytest.approx(manual)


class TestAssociateNearest:
    def _d(self, t, x, y=0.0):
        return Detection(t, x, y, 0.9)

    def test_disjoint_clusters(self):
        a = [self._d(0, 0.0), self._d(0, 10.0)]
        b = [self._d(1, 0.5), self._d(1, 10.5)]
        assert associate_nearest(a, b, 3.0) == [(0, 0), (1, 1)]

    def test_many_to_one_allowed(self):
        a = [self._d(0, 0.0), self._d(0, 1.0)]
        b = [self._d(1, 0.5)]
        assert associate_nearest(a, b, 3.0) == [(0, 0), (1, 0)]

    def test_out_of_range_unmatched(self):
        a = [self._d(0, 0.0)]
        b = [self._d(1, 50.0)]
        assert associate_nearest(a, b, 3.0) == []


class TestAssociateHungarian:
    def _d(self, t, x, y=0.0):
        return Detection(t, x, y, 0.9)

    def test_exhaustive_2x2(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        m = associate_hungarian([self._d(0, 0)] * 2, [self._d(1, 0)] * 2, cost=cost)
        assert m == [(0, 0), (1, 1)]
        assert sum(cost[r, c] for r, c in m) == 2.0

    def test_tie_break_smallest_row_col(self):
        cost = np.ones((2, 2))
        m = associate_hungarian([self._d(0, 0)] * 2, [self._d(1, 0)] * 2, cost=cost)
        assert m == [(0, 0), (1, 1)]

    def test_all_beyond_cutoff(self):
        cost = np.full((2, 2), 9.0)
        m = associate_hungarian([self._d(0, 0)] * 2, [self._d(1, 0)] * 2,
                                cost=cost, cutoff=5.0)
        assert m == []

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cost = rng.random((4, 5)) * 10
            m1 = associate_hungarian([self._d(0, 0)] * 4, [self._d(1, 0)] * 5, cost=cost)
            m2 = associate_hungarian([self._d(0, 0)] * 4, [self._d(1, 0)] * 5, cost=cost + 7.5)
            assert m1 == m2

    def test_default_cost_is_distance(self):
        a = [self._d(0, 0.0), self._d(0, 10.0)]
        b = [self._d(1, 9.5), self._d(1, 0.5)]
        assert associate_hungarian(a, b, cutoff=2.0) == [(0, 1), (1, 0)]


class TestKalman:
    def _state(self, var=1.0):
        return KalmanState(np.array([0.0, 0.0, 0.0, 0.0]), np.eye(4) * var)

    def test_predict_dt_zero_is_identity(self):
        s = self._state()
        s2 = kalman_predict(s, 0.0, process_noise=0.5)
        assert np.array_equal(s2.mean, s.mean)
        assert np.array_equal(s2.cov, s.cov)

    def test_noise_free_constant_velocity_exact_after_two_updates(self):
        s = KalmanState(np.array([0.0, 0.0, 0.0, 0.0]), np.eye(4))
        truth = lambda t: (2.0 * t, -1.0 * t)
        s = kalman_update(s, truth(0), meas_noise=0.0)
        s = kalman_predict(s, 1.0, process_noise=0.0)
        s = kalman_update(s, truth(1), meas_noise=0.0)
        s = kalman_predict(s, 1.0, process_noise=0.0)
        assert np.allclose(s.pos, truth(2), atol=1e-9)

    def test_stationary_position_variance_decreases(self):
        s = KalmanState(np.zeros(4), np.diag([10.0, 10.0, 1.0, 1.0]))
        prev = s.cov[0, 0]
        for _ in range(10):
            s = kalman_predict(s, 1.0, process_noise=0.01)
            s = kalman_update(s, (0.0, 0.0), meas_noise=0.25)
            assert s.cov[0, 0] < prev + 1e-12
            prev = s.cov[0, 0]

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(3)
        s = self._state(4.0)
        for k in range(20):
            s = kalman_predict(s, 1.0)
            s = kalman_update(s, tuple(rng.normal(0, 1, 2)))
            assert np.array_equal(s.cov, s.cov.T)

    def test_rejects_non_spd(self):
        with pytest.raises(NonSpdCovariance):
            KalmanState(np.zeros(4), -np.eye(4))
        bad = np.eye(4)
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(NonSpdCovariance):
            KalmanState(np.zeros(4), bad)


class TestTwoStage:
    def test_overlapping_detection_matches(self):
        cfg = TwoStageConfig(box_side=5.0)
        tracks = [OnlineTrack(0, Detection(0, 10.0, 10.0, 0.9), cfg, use_kalman=False)]
        dets = [Detection(1, 11.0, 10.5, 0.95)]
        out, next_id = associate_two_stage(tracks, dets, "none", 0.5, 0.1, cfg=cfg)
        assert next_id == 0
        assert len(out) == 1
        assert out[0].points[-1] == (1, 11.0, 10.5)

    def test_large_displacement_needs_learned_offset(self):
        cfg = TwoStageConfig(box_side=4.0)
        grid = GroundGrid(32, 32)
        fwd = OffsetField(grid, np.full((32, 32), 8.0), np.zeros((32, 32)))
        dets = [Detection(1, 18.0, 10.0, 0.95)]  # 8 cells right of the track head

        tracks = [OnlineTrack(0, Detection(0, 10.0, 10.0, 0.9), cfg, use_kalman=False)]
        out, _ = associate_two_stage(tracks, dets, "none", 0.5, 0.1, cfg=cfg)
        assert len(out) == 2  # no overlap: old track ages, new one starts

        tracks = [OnlineTrack(0, Detection(0, 10.0, 10.0, 0.9), cfg, use_kalman=False)]
        out, _ = associate_two_stage(tracks, dets, "learned-offset", 0.5, 0.1,
                                     cfg=cfg, fwd_field=fwd)
        assert len(out) == 1
        assert out[0].points[-1] == (1, 18.0, 10.0)

    def test_no_detections_age_and_expire(self):
        cfg = TwoStageConfig(max_age=2)
        tracks = [OnlineTrack(0, Detection(0, 5.0, 5.0, 0.9), cfg, use_kalman=False)]
        for t in range(1, 3):
            tracks, _ = associate_two_stage(tracks, [], "none", 0.5, 0.1,
                                            cfg=cfg, frame=t)
            assert len(tracks) == 1
        tracks, _ = associate_two_stage(tracks, [], "none", 0.5, 0.1, cfg=cfg, frame=3)
        assert tracks == []

    def test_low_confidence_cannot_start_tracks(self):
        cfg = TwoStageConfig()
        out, next_id = associate_two_stage([], [Detection(0, 3.0, 3.0, 0.2)],
                                           "none", 0.5, 0.1, cfg=cfg, frame=0)
        assert out == [] and next_id == 0

    def test_second_stage_rescues_with_low_confidence(self):
        cfg = TwoStageConfig(box_side=5.0)
        tracks = [OnlineTrack(0, Detection(0, 10.0, 10.0, 0.9), cfg, use_kalman=False)]
        dets = [Detection(1, 10.5, 10.0, 0.2)]  # low confidence, overlapping
        out, _ = associate_two_stage(tracks, dets, "none", 0.5, 0.1, cfg=cfg)
        assert out[0].points[-1] == (1, 10.5, 10.0)

    def test_iou_cost_matrix_equals_pairwise_iou(self):
        rng = np.random.default_rng(11)
        for side in (0.0, 1.0, 5.0, 2.7):
            a = rng.uniform(0, 20, (9, 2))
            b = np.concatenate([np.round(a[:4]), rng.uniform(0, 20, (5, 2))])  # exact overlaps too
            got = _square_iou_cost(a, b, side)
            want = np.array([[1.0 - _square_iou(x, y, side) for y in b] for x in a])
            assert np.array_equal(got, want)

    def test_run_two_stage_tracks_constant_velocity(self):
        frames = [[Detection(t, 5.0 + 1.0 * t, 8.0, 0.9)] for t in range(6)]
        tracks = run_two_stage(frames, "kalman")
        assert len(tracks) == 1
        assert len(tracks[0].points) == 6
