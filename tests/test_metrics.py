import json

import numpy as np
import pytest

from groundflow.core import GroundGrid, OffsetField, Trajectory
from groundflow.errors import UndefinedMetric
from groundflow.fit import FitResult
from groundflow.metrics import MotReport, clear_mot, mean_offset_report, offset_error
from groundflow.pipeline import track_detections
from groundflow.sim import SceneConfig, corrupt_detections, generate_scene


def _track(tid, pts):
    return Trajectory(tid, pts)


def _grid_tracks(n_tracks, n_frames, spacing=10.0):
    return [
        _track(k, [(t, spacing * k + 0.1 * t, 0.0) for t in range(n_frames)])
        for k in range(n_tracks)
    ]


class TestClearMot:
    def test_perfect_tracking(self):
        gt = _grid_tracks(4, 6)
        pred = [_track(100 + k, list(tr.points)) for k, tr in enumerate(gt)]
        rep = clear_mot(pred, gt)
        assert rep.mota == 1.0
        assert rep.motp == 0.0
        assert rep.idf1 == 1.0
        assert rep.idp == 1.0 and rep.idr == 1.0
        assert rep.fp == rep.fn == rep.idsw == 0

    def test_one_missed_detection_hand_count(self):
        # 10 objects x 5 frames, one detection missing: MOTA = 1 - 1/50
        gt = _grid_tracks(10, 5)
        pred = []
        for k, tr in enumerate(gt):
            pts = list(tr.points)
            if k == 3:
                pts = pts[:2] + pts[3:]
            pred.append(_track(k, pts))
        rep = clear_mot(pred, gt)
        assert rep.gt == 50
        assert rep.fn == 1 and rep.fp == 0 and rep.idsw == 0
        assert rep.mota == pytest.approx(0.98)

    def test_identity_swap_counts_two_switches(self):
        # two parallel gt tracks; predictions swap lanes at frame 3
        gt = [
            _track(0, [(t, 0.0, 0.0) for t in range(6)]),
            _track(1, [(t, 0.0, 20.0) for t in range(6)]),
        ]
        pred = [
            _track(10, [(t, 0.0, 0.0 if t < 3 else 20.0) for t in range(6)]),
            _track(11, [(t, 0.0, 20.0 if t < 3 else 0.0) for t in range(6)]),
        ]
        rep = clear_mot(pred, gt)
        assert rep.idsw == 2
        assert rep.fn == 0 and rep.fp == 0
        assert rep.mota == pytest.approx(1.0 - 2 / 12)
        assert rep.idf1 == pytest.approx(0.5)

    def test_mota_invariant_under_relabeling(self):
        gt = _grid_tracks(3, 8)
        pred = [_track(k, list(tr.points)) for k, tr in enumerate(gt)]
        relabeled = [_track(999 - k, list(tr.points)) for k, tr in enumerate(gt)]
        assert clear_mot(pred, gt).mota == clear_mot(relabeled, gt).mota

    def test_false_positives_counted(self):
        gt = _grid_tracks(2, 4)
        pred = [_track(0, list(gt[0].points)), _track(1, list(gt[1].points)),
                _track(2, [(t, 50.0, 50.0) for t in range(4)])]
        rep = clear_mot(pred, gt)
        assert rep.fp == 4
        assert rep.mota == pytest.approx(1.0 - 4 / 8)

    def test_idf1_bounds(self):
        gt = _grid_tracks(3, 5)
        pred = [_track(0, list(gt[0].points))]
        rep = clear_mot(pred, gt)
        assert 0.0 <= rep.idf1 <= 1.0
        assert rep.idf1 <= 2 * rep.idp and rep.idf1 <= 2 * rep.idr

    def test_empty_gt_rejected(self):
        with pytest.raises(UndefinedMetric):
            clear_mot(_grid_tracks(1, 3), [])

    def test_pinned_crowd_reports(self):
        # the crowd instance of test_track's pinned flow optimum, tracked with
        # the default parameters; every field was recorded before the scoring
        # became a single pass over frames and is compared exactly
        cfg = SceneConfig(grid=GroundGrid(140, 140), num_agents=50, num_frames=40,
                          speed_cells=(0.8, 1.8), miss_rate=0.03,
                          fp_rate_per_frame=1.875, jitter_sigma_cells=0.15, seed=200)
        truth = generate_scene(cfg)
        dets = corrupt_detections(truth)
        expected = {
            "mussp-nomotion": MotReport(
                mota=0.9635, motp=0.20329150549364824, idf1=0.9252975436819448,
                idp=0.9374037968188815, idr=0.9135,
                gt=2000, fp=1, fn=52, idsw=20, matches=1948),
            # recorded once the Kalman filter predicted one frame per frame
            "bytestyle-kalman": MotReport(
                mota=0.9715, motp=0.18675646887972394, idf1=0.9445429222587997,
                idp=0.956900974858902, idr=0.9325,
                gt=2000, fp=0, fn=51, idsw=6, matches=1949),
        }
        for mode, report in expected.items():
            assert clear_mot(track_detections(dets, mode), list(truth.trajectories)) == report

    def test_pinned_crowd_offset_report(self):
        # the same crowd tracked by bytestyle-offset with the true forward
        # offsets as the fitted fields; recorded with the per-track
        # two-stage tracker and compared exactly
        cfg = SceneConfig(grid=GroundGrid(140, 140), num_agents=50, num_frames=40,
                          speed_cells=(0.8, 1.8), miss_rate=0.03,
                          fp_rate_per_frame=1.875, jitter_sigma_cells=0.15, seed=200)
        truth = generate_scene(cfg)
        fits = [FitResult(f, f, ()) for f in truth.gt_offsets]
        pred = track_detections(corrupt_detections(truth), "bytestyle-offset", fit_results=fits)
        assert clear_mot(pred, list(truth.trajectories)) == MotReport(
            mota=0.9665, motp=0.2009933248312438, idf1=0.9298556596606736,
            idp=0.9420215495125706, idr=0.918,
            gt=2000, fp=1, fn=52, idsw=14, matches=1948)

    def test_json_field_names(self):
        gt = _grid_tracks(2, 3)
        rep = clear_mot(gt, gt)
        payload = json.loads(rep.to_json())
        assert set(payload) == {"mota", "motp", "idf1", "idp", "idr", "counts"}
        assert set(payload["counts"]) == {"gt", "fp", "fn", "idsw", "matches"}


class TestOffsetError:
    def _truth(self):
        return generate_scene(SceneConfig(grid=GroundGrid(24, 24), num_agents=3,
                                          num_frames=4, speed_cells=(1.0, 2.0),
                                          turn_sigma_rad=0.3, seed=2))

    def test_zero_error_on_exact_offsets(self):
        truth = self._truth()
        rep = offset_error(truth.gt_offsets[0], truth, 0)
        assert rep.l1 == 0.0 and rep.angle_deg == 0.0 and rep.norm_err == 0.0

    def test_perpendicular_by_hand(self):
        # gt (2,0) vs predicted (0,2): l1 = 2, angle = 90, norm error = 0
        g = GroundGrid(8, 8)
        truth = _FakeTruth(g, [(3, 3, 2.0, 0.0)])
        pred = OffsetField(g, _single(g, 3, 3, 0.0), _single(g, 3, 3, 2.0))
        rep = offset_error(pred, truth, 0)
        assert rep.l1 == pytest.approx(2.0)
        assert rep.angle_deg == pytest.approx(90.0)
        assert rep.norm_err == pytest.approx(0.0)

    def test_zero_prediction_against_3_4(self):
        g = GroundGrid(8, 8)
        truth = _FakeTruth(g, [(2, 5, 3.0, 4.0)])
        pred = OffsetField.zeros(g)
        rep = offset_error(pred, truth, 0)
        assert rep.l1 == pytest.approx(3.5)
        assert rep.norm_err == pytest.approx(5.0)
        assert rep.angle_deg == pytest.approx(180.0)

    def test_no_gt_cells_rejected(self):
        g = GroundGrid(8, 8)
        truth = _FakeTruth(g, [])
        with pytest.raises(UndefinedMetric):
            offset_error(OffsetField.zeros(g), truth, 0)

    def test_mean_report(self):
        g = GroundGrid(8, 8)
        t1 = _FakeTruth(g, [(2, 2, 1.0, 0.0)])
        pred = OffsetField.zeros(g)
        r = offset_error(pred, t1, 0)
        m = mean_offset_report([r, r])
        assert m.l1 == r.l1 and m.angle_deg == r.angle_deg


def _single(grid, x, y, value):
    a = np.zeros(grid.shape)
    a[y, x] = value
    return a


class _FakeTruth:
    """Minimal stand-in with the gt_cells/config attributes offset_error uses."""

    def __init__(self, grid, rows):
        from dataclasses import dataclass

        @dataclass
        class _Cfg:
            grid: GroundGrid

        self.config = _Cfg(grid)
        self.gt_cells = (tuple(rows),)
