import json
import os

import numpy as np
import pytest

from groundflow import io
from groundflow.cli import load_experiment_config, main, offsets_off_grid_lines
from groundflow.pipeline import fit_scene_offsets, stride_adapted, track_detections
from groundflow.sim import corrupt_detections, generate_scene, subsample_fps

TINY = """
scene.width = 28
scene.height = 28
scene.num_agents = 3
scene.num_frames = 6
scene.speed_min = 1.0
scene.speed_max = 1.5
scene.turn_sigma = 0.1
scene.miss_rate = 0.0
scene.fp_rate = 0.2
scene.jitter_sigma = 0.05
scene.seed = 11
fit.epochs = 25
fit.window = 15
sweep.strides = 1,2
sweep.modes = mussp,nearest
sweep.seeds = 11
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return str(p)


def _run(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_experiment_config(None)
        assert cfg.scene.grid.width_cells == 64
        assert cfg.fit.epochs == 80
        assert cfg.edges.sigma_m == 0.15

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("scene.widht = 32\n", "recon.lambda_r = 1.0\n",
                     "fit.optimizer = adaptive-moments\n", "sweep.ablations = no_se\n",
                     "output.dir = x\n"):
            p.write_text(line)
            rc = _run("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
            assert rc == 2, line

    def test_strides_must_be_sorted(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("sweep.strides = 5,1\n")
        rc = _run("sweep-fps", "--config", str(p), "--out", str(tmp_path / "o"))
        assert rc == 2


class TestSimulate:
    def test_writes_scene_files(self, tiny_cfg, tmp_path):
        out = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(out)) == 0
        for name in ("meta.cfg", "detections.csv", "truth_trajectories.csv",
                     "gt_heatmaps.bin", "gt_offsets.bin"):
            assert (out / name).exists()
        w, h, channels = io.load_maps(out / "gt_heatmaps.bin")
        assert (w, h) == (28, 28)
        assert len(channels) == 6

    def test_fp_rate_beyond_poisson_limit_is_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("scene.fp_rate = 746\n")
        rc = _run("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
        assert rc == 2

    def test_zero_agents_is_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("scene.num_agents = 0\n")
        rc = _run("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
        assert rc == 2

    def test_seed_override_wins_over_config_seed(self, tiny_cfg, tmp_path):
        out = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--seed", "3", "--out", str(out)) == 0
        assert io.read_kv(out / "meta.cfg")["scene.seed"] == "3"

    def test_byte_identical_reruns(self, tiny_cfg, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(a)) == 0
        assert _run("simulate", "--config", tiny_cfg, "--out", str(b)) == 0
        for name in ("detections.csv", "truth_trajectories.csv",
                     "gt_heatmaps.bin", "gt_offsets.bin", "meta.cfg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestFitTrack:
    def test_full_pipeline(self, tiny_cfg, tmp_path):
        scene = tmp_path / "scene"
        fit = tmp_path / "fit"
        trk = tmp_path / "trk"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        assert _run("fit", "--scene", str(scene), "--out", str(fit),
                    "--config", tiny_cfg) == 0
        assert (fit / "offsets_fwd.bin").exists()
        assert (fit / "offsets_bwd.bin").exists()
        assert (fit / "offset_report.json").exists()
        traces = sorted((fit / "traces").iterdir())
        assert len(traces) == 5
        header = traces[0].read_text().splitlines()[0]
        assert header == "epoch,lambda_r,l_mot,l_det,l_fb,l_se,total"

        assert _run("track", "--scene", str(scene), "--offsets", str(fit),
                    "--mode", "mussp", "--out", str(trk), "--config", tiny_cfg) == 0
        report = json.loads((trk / "mot_report.json").read_text())
        assert report["mota"] > 0.9
        tracks = io.load_trajectories(trk / "tracks.csv")
        assert len(tracks) >= 3

    @pytest.mark.parametrize("stride", [1, 2])
    def test_offsets_round_trip_gives_in_process_tracks(self, tiny_cfg, tmp_path, stride):
        scene = tmp_path / "scene"
        fit = tmp_path / "fit"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        assert _run("fit", "--scene", str(scene), "--out", str(fit), "--config", tiny_cfg,
                    "--stride", str(stride)) == 0
        cfg = load_experiment_config(tiny_cfg)
        dets = subsample_fps(corrupt_detections(generate_scene(cfg.scene)), stride)
        fits = fit_scene_offsets(dets, cfg.scene.grid, stride_adapted(cfg.fit, stride),
                                 cfg.scene.gaussian_sigma_cells, cfg.scene.gaussian_radius_cells)
        for mode in ("mussp", "bytestyle-offset"):
            trk = tmp_path / mode
            assert _run("track", "--scene", str(scene), "--offsets", str(fit), "--mode", mode,
                        "--out", str(trk), "--config", tiny_cfg, "--stride", str(stride)) == 0
            io.save_trajectories(tmp_path / "ref.csv", track_detections(
                dets, mode, fit_results=fits, edges=cfg.edges, two_stage=cfg.two_stage))
            assert (trk / "tracks.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), mode

    @pytest.mark.parametrize("threads", ["two", "0"])
    def test_bad_thread_count_is_config_error(self, tiny_cfg, tmp_path, monkeypatch, threads):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        monkeypatch.setenv("GROUNDFLOW_THREADS", threads)
        rc = _run("fit", "--scene", str(scene), "--out", str(tmp_path / "f"), "--config", tiny_cfg)
        assert rc == 2
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("stride", ["0", "-4"])
    @pytest.mark.parametrize("command", [("fit",), ("track", "--mode", "mussp")],
                             ids=["fit", "track"])
    def test_stride_below_one_is_config_error(self, tiny_cfg, tmp_path, command, stride):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        out = tmp_path / "o"
        rc = _run(*command, "--scene", str(scene), "--out", str(out), "--stride", stride)
        assert rc == 2
        assert not out.exists()

    def test_unknown_mode_is_usage_error(self, tiny_cfg, tmp_path):
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        with pytest.raises(SystemExit) as exc:
            _run("track", "--scene", str(scene), "--mode", "magic",
                 "--out", str(tmp_path / "t"))
        assert exc.value.code == 2

    def test_missing_scene_dir(self, tmp_path):
        rc = _run("fit", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "f"))
        assert rc == 2

    def test_corrupt_detections_file(self, tiny_cfg, tmp_path):
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        (scene / "detections.csv").write_text("garbage,header\n1,2\n")
        rc = _run("fit", "--scene", str(scene), "--out", str(tmp_path / "f"))
        assert rc == 2

    def test_empty_detections_reports_nan(self, tiny_cfg, tmp_path, capsys):
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        (scene / "detections.csv").write_text("time,id,x,y,confidence\n")
        trk = tmp_path / "trk"
        rc = _run("track", "--scene", str(scene), "--mode", "mussp", "--out", str(trk))
        assert rc == 0
        assert "NaN" in (trk / "mot_report.json").read_text()
        assert "undefined" in capsys.readouterr().err


class TestSweep:
    def test_sweep_outputs(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert _run("sweep-fps", "--config", tiny_cfg, "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "stride,mode,seed,mota,idf1,motp"
        assert len(lines) == 1 + 2 * 2  # strides x modes
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_thread_count_does_not_change_bytes(self, tiny_cfg, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        old = os.environ.get("GROUNDFLOW_THREADS")
        try:
            os.environ["GROUNDFLOW_THREADS"] = "1"
            assert _run("sweep-fps", "--config", tiny_cfg, "--out", str(a)) == 0
            os.environ["GROUNDFLOW_THREADS"] = "2"
            assert _run("sweep-fps", "--config", tiny_cfg, "--out", str(b)) == 0
        finally:
            if old is None:
                os.environ.pop("GROUNDFLOW_THREADS", None)
            else:
                os.environ["GROUNDFLOW_THREADS"] = old
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep.svg").read_bytes() == (b / "sweep.svg").read_bytes()


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert _run("gradcheck", "--instances", "2", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out

    def test_forward_offsets_keep_off_grid_lines(self):
        d = offsets_off_grid_lines(np.random.default_rng(0), (2, 40, 40), 0.7)
        assert d.shape == (2, 40, 40)
        assert np.abs(d - np.rint(d)).min() >= 1e-3
        # a margin that rejects about four draws in five: only the offending
        # components are drawn again
        plain = np.random.default_rng(1).normal(0.0, 0.7, 500)
        d = offsets_off_grid_lines(np.random.default_rng(1), 500, 0.7, margin=0.4)
        assert np.abs(d - np.rint(d)).min() >= 0.4
        kept = np.abs(plain - np.rint(plain)) >= 0.4
        assert 0 < kept.sum() < 500
        assert np.array_equal(d[kept], plain[kept])


class TestAblateCommand:
    def test_ablate_small(self, tmp_path, monkeypatch):
        p = tmp_path / "abl.cfg"
        p.write_text(
            "scene.width = 28\nscene.height = 28\nscene.num_agents = 3\n"
            "scene.num_frames = 5\nscene.seed = 2\nfit.epochs = 20\nfit.window = 15\n"
            "sweep.strides = 2\nsweep.seeds = 2\n"
        )
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("GROUNDFLOW_THREADS", threads)
            outs[threads] = tmp_path / f"abl{threads}"
            assert _run("ablate", "--config", str(p), "--out", str(outs[threads])) == 0
        out = outs["1"]
        table = (out / "ablation_fit.csv").read_text().splitlines()
        assert table[0] == "arm,seed,l1,angle_deg,norm_err"
        arms = {ln.split(",")[0] for ln in table[1:]}
        assert arms == {"full", "mot_only", "no_se", "no_fb", "no_mot"}
        motion = (out / "ablation_motion_term.csv").read_text().splitlines()
        assert [ln.split(",")[1] for ln in motion[1:]] == ["mussp", "mussp-nomotion"]
        for name in ("ablation_fit.csv", "ablation_motion_term.csv"):
            assert (out / name).read_bytes() == (outs["2"] / name).read_bytes()
