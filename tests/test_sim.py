import math

import numpy as np
import pytest

from groundflow import rng, sim
from groundflow.core import GroundGrid
from groundflow.errors import ConfigError, OutOfBoundsPoint
from groundflow.sim import (
    SceneConfig,
    corrupt_detections,
    generate_scene,
    render_heatmap,
    subsample_fps,
)


def _cfg(**kw):
    base = dict(grid=GroundGrid(40, 40), num_agents=5, num_frames=20,
                speed_cells=(1.0, 2.0), turn_sigma_rad=0.2, seed=1)
    base.update(kw)
    return SceneConfig(**base)


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _cfg(num_agents=0)
        with pytest.raises(ConfigError):
            _cfg(miss_rate=1.0)
        with pytest.raises(ConfigError):
            _cfg(speed_cells=(2.0, 1.0))
        with pytest.raises(ConfigError):
            _cfg(gaussian_radius_cells=0.5)  # below sigma
        with pytest.raises(ConfigError):
            _cfg(grid=GroundGrid(4, 4), speed_cells=(2.0, 2.0))  # too small to reflect
        with pytest.raises(ConfigError):
            _cfg(fp_rate_per_frame=746.0)  # beyond rng.POISSON_MAX_RATE

    @pytest.mark.parametrize("value", [-0.25, float("nan")])
    def test_negative_or_nan_turn_sigma_is_config_error(self, value):
        with pytest.raises(ConfigError):
            _cfg(turn_sigma_rad=value)

    @pytest.mark.parametrize("name", ["fp_rate_per_frame", "jitter_sigma_cells"])
    def test_nan_noise_rate_is_config_error(self, name):
        with pytest.raises(ConfigError):
            _cfg(**{name: float("nan")})

    @pytest.mark.parametrize("name, value", [
        ("turn_sigma_rad", math.inf), ("jitter_sigma_cells", math.inf),
        ("gaussian_radius_cells", math.nan), ("gaussian_radius_cells", math.inf),
    ])
    def test_non_finite_scene_value_is_config_error(self, name, value):
        with pytest.raises(ConfigError, match=name):
            _cfg(**{name: value})


class TestPoisson:
    def test_rate_limit(self):
        assert abs(rng.poisson(rng.POISSON_MAX_RATE, 0, 1) - 700) < 200
        # exp(-746) underflows to 0, so CDF inversion would return its loop cap
        with pytest.raises(ValueError):
            rng.poisson(746.0, 0, 1)


class TestGenerateScene:
    def test_degenerate_randomness_gives_straight_line(self):
        cfg = _cfg(num_agents=1, turn_sigma_rad=0.0, speed_cells=(2.0, 2.0))
        truth = generate_scene(cfg)
        pts = truth.trajectories[0].points
        steps = [(b[1] - a[1], b[2] - a[2]) for a, b in zip(pts, pts[1:])]
        # constant velocity until a reflection flips a component
        norms = [math.hypot(*s) for s in steps]
        assert all(abs(n - 2.0) < 1e-9 for n in norms)
        assert all(abs(abs(s[0]) - abs(steps[0][0])) < 1e-9 for s in steps)

    def test_deterministic_under_seed(self):
        a = generate_scene(_cfg())
        b = generate_scene(_cfg())
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert ta.points == tb.points
        for ha, hb in zip(a.gt_heatmaps, b.gt_heatmaps):
            assert np.array_equal(ha.values, hb.values)

    def test_bounds_and_offset_norms(self):
        cfg = _cfg(num_agents=20, num_frames=100, grid=GroundGrid(60, 60))
        truth = generate_scene(cfg)
        lo, hi = cfg.speed_cells
        for tr in truth.trajectories:
            for (_, x, y) in tr.points:
                assert 0 <= x <= 59 and 0 <= y <= 59
            for a, b in zip(tr.points, tr.points[1:]):
                n = math.hypot(b[1] - a[1], b[2] - a[2])
                assert lo - 1e-9 <= n <= hi + 1e-9

    def test_gt_offsets_match_position_differences(self):
        truth = generate_scene(_cfg())
        for k, rows in enumerate(truth.gt_cells):
            for (cx, cy, ox, oy) in rows:
                assert truth.gt_offsets[k].dx[cy, cx] == ox
                assert truth.gt_offsets[k].dy[cy, cx] == oy

    def test_heatmaps_in_unit_range(self):
        truth = generate_scene(_cfg(num_agents=15))
        for hm in truth.gt_heatmaps:
            assert hm.values.min() >= 0.0
            assert hm.values.max() <= 1.0


class TestRenderHeatmap:
    def test_point_at_cell_center(self):
        g = GroundGrid(11, 11)
        hm = render_heatmap([(5.0, 5.0)], g, 1.0, 3.0)
        assert hm.values[5, 5] == 1.0
        assert hm.values[5, 6] == pytest.approx(math.exp(-0.5))
        assert hm.values[5, 9] == 0.0  # beyond the radius

    def test_empty_points(self):
        hm = render_heatmap([], GroundGrid(5, 5), 1.0, 3.0)
        assert np.all(hm.values == 0.0)

    def test_overlap_is_max_not_sum(self):
        g = GroundGrid(11, 11)
        hm = render_heatmap([(4.0, 5.0), (5.0, 5.0)], g, 1.0, 3.0)
        # midpoint cells take the larger kernel, never the sum
        assert hm.values[5, 4] == 1.0
        assert hm.values[5, 5] == 1.0
        assert hm.values.max() <= 1.0

    def test_out_of_bounds_point(self):
        with pytest.raises(OutOfBoundsPoint):
            render_heatmap([(12.0, 2.0)], GroundGrid(10, 10), 1.0, 3.0)


class TestCorruptDetections:
    def test_clean_when_noise_free(self):
        truth = generate_scene(_cfg(miss_rate=0.0, fp_rate_per_frame=0.0,
                                    jitter_sigma_cells=0.0))
        dets = corrupt_detections(truth)
        for f, frame in enumerate(dets):
            assert len(frame) == truth.config.num_agents
            for d, (px, py) in zip(frame, truth.gt_points[f]):
                assert (d.x, d.y) == (px, py)
                assert 0.7 <= d.confidence <= 1.0

    def test_total_miss_leaves_only_false_positives(self):
        truth = generate_scene(_cfg(miss_rate=0.999999, fp_rate_per_frame=1.0))
        dets = corrupt_detections(truth)
        for frame in dets:
            for d in frame:
                assert d.confidence <= 0.3  # all FP confidences

    def test_miss_rate_concentration(self):
        cfg = _cfg(num_agents=10, num_frames=100, miss_rate=0.2,
                   grid=GroundGrid(60, 60))
        truth = generate_scene(cfg)
        dets = corrupt_detections(truth)
        kept = sum(len(f) for f in dets)
        dropped_frac = 1.0 - kept / 1000.0
        assert 0.16 <= dropped_frac <= 0.24

    def test_deterministic(self):
        truth = generate_scene(_cfg(miss_rate=0.2, fp_rate_per_frame=0.7,
                                    jitter_sigma_cells=0.3))
        a = corrupt_detections(truth)
        b = corrupt_detections(truth)
        assert a == b


class TestSubsampleFps:
    def test_stride_one_is_identity(self):
        truth = generate_scene(_cfg())
        sub = subsample_fps(truth, 1)
        for ta, tb in zip(truth.trajectories, sub.trajectories):
            assert ta.points == tb.points
        assert len(sub.gt_offsets) == len(truth.gt_offsets)

    def test_offsets_compose_across_gap(self):
        cfg = _cfg(num_agents=1, turn_sigma_rad=0.0, speed_cells=(2.0, 2.0),
                   grid=GroundGrid(64, 64), num_frames=10)
        truth = generate_scene(cfg)
        sub = subsample_fps(truth, 3)
        (cx, cy, ox, oy) = sub.gt_cells[0][0]
        p0 = truth.trajectories[0].points[0]
        p3 = truth.trajectories[0].points[3]
        assert (ox, oy) == (p3[1] - p0[1], p3[2] - p0[2])
        assert math.hypot(ox, oy) == pytest.approx(6.0)

    def test_oversized_stride_gives_single_frame(self):
        truth = generate_scene(_cfg(num_frames=8))
        sub = subsample_fps(truth, 100)
        assert sub.num_frames == 1
        assert len(sub.gt_offsets) == 0

    def test_detections_reindexed(self):
        truth = generate_scene(_cfg(num_frames=9))
        dets = corrupt_detections(truth)
        sub = subsample_fps(dets, 4)
        assert len(sub) == 3
        for t, frame in enumerate(sub):
            for d in frame:
                assert d.time == t


class TestTruthFromPositions:
    def test_dense_truth_is_rendered_on_first_read(self, monkeypatch):
        calls = []

        def counting_render(points, *args):
            calls.append(points)
            return render_heatmap(points, *args)

        monkeypatch.setattr(sim, "render_heatmap", counting_render)
        truth = generate_scene(_cfg(num_frames=6))
        sub = subsample_fps(truth, 2)
        corrupt_detections(truth)
        corrupt_detections(sub)
        assert calls == []
        assert truth.gt_heatmaps is truth.gt_heatmaps
        assert calls == list(truth.gt_points)

    def test_subsampling_slices_the_read_only_positions(self):
        truth = generate_scene(_cfg(num_frames=7))
        sub = subsample_fps(truth, 3)
        assert not truth.positions.flags.writeable
        assert np.shares_memory(sub.positions, truth.positions)
        np.testing.assert_array_equal(sub.positions, truth.positions[:, ::3])
        assert sub.num_frames == sub.config.num_frames == 3
