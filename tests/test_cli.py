import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from groundflow import cli, io
from groundflow.cli import ExperimentConfig, load_experiment_config, main, offsets_off_grid_lines
from groundflow.errors import Divergence
from groundflow.fit import FitConfig
from groundflow.pipeline import (
    fit_scene_offsets,
    stride_adapted,
    stride_gated,
    track_detections,
    zero_offset_report,
)
from groundflow.sim import corrupt_detections, generate_scene, subsample_fps
from groundflow.track import EdgeCostParams, TwoStageConfig
from oracles import load_trajectories

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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_experiment_config(None)
        assert cfg.scene.grid.width_cells == 64
        assert cfg.fit.epochs == 80
        assert cfg.edges.sigma_m == 0.15

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = load_experiment_config(None)
        assert cfg == ExperimentConfig()
        assert cfg.fit == FitConfig()
        assert cfg.edges == EdgeCostParams()
        assert cfg.two_stage == TwoStageConfig()

    def test_repeated_key_is_config_error(self, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text("scene.num_frames = 0\nscene.num_frames = 4\n")
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(p), "--out", str(out)) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("scene.widht = 32\n", "recon.lambda_r = 1.0\n",
                     "fit.optimizer = adaptive-moments\n", "sweep.ablations = no_se\n",
                     "output.dir = x\n"):
            p.write_text(line)
            rc = _run("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
            assert rc == 2, line

    @pytest.mark.parametrize("line", [
        "edges.max_gap = 0", "fit.epochs = 0", "fit.lambda_fb = -1", "scene.width = 0",
        "fit.schedule_cap = 0.1", "fit.window = 4", "fit.window = 1", "track.box_side = -3",
        "track.iou_threshold = 1.5", "track.max_age = -1", "fit.schedule_init = 0",
        "fit.schedule_increment = -0.1", "fit.se_radius = -1",
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, line):
        p = tmp_path / "bad.cfg"
        p.write_text(line + "\n")
        rc = _run("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
        assert rc == 2

    def test_strides_must_be_sorted(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("sweep.strides = 5,1\n")
        rc = _run("sweep-fps", "--config", str(p), "--out", str(tmp_path / "o"))
        assert rc == 2

    @pytest.mark.parametrize("line", [
        "sweep.seeds =", "sweep.modes =", "sweep.strides = 1,1", "sweep.strides = 1,2,2",
        "sweep.seeds = 11,11", "sweep.modes = mussp,mussp", "sweep.modes = mussp,hungarian",
    ])
    @pytest.mark.parametrize("command", ["sweep-fps", "ablate"])
    def test_empty_or_repeated_sweep_values_are_config_error(self, tmp_path, capsys, command,
                                                             line):
        # the bad line replaces TINY's line of its key, which a second line
        # of one key would fail on before its value is read
        key = line.split(" =")[0]
        p = tmp_path / "bad.cfg"
        p.write_text(re.sub(rf"^{re.escape(key)} = .*$", line, TINY, flags=re.M))
        out = tmp_path / "o"
        assert _run(command, "--config", str(p), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert key in err and "already set" not in err
        if "hungarian" in line:
            assert "'hungarian'" in err
        assert not out.exists()

    @pytest.mark.parametrize("strides", ["0,1", "-2,1", "0"])
    @pytest.mark.parametrize("command", ["sweep-fps", "ablate"])
    def test_stride_below_one_is_config_error(self, tmp_path, capsys, command, strides):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY.replace("sweep.strides = 1,2", f"sweep.strides = {strides}"))
        out = tmp_path / "o"
        assert _run(command, "--config", str(p), "--out", str(out)) == 2
        assert "sweep.strides" in capsys.readouterr().err
        assert not out.exists()


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

    def test_negative_turn_sigma_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("scene.turn_sigma = -0.25\n")
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(p), "--out", str(out)) == 2
        assert not out.exists()
        assert "turn_sigma" in capsys.readouterr().err

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

    def test_output_bytes_are_pinned(self, tiny_cfg, tmp_path):
        # SHA-256 of each file, recorded before the truth was rebuilt from one
        # positions array; any change to simulate's output shows here
        pinned = {
            "meta.cfg": "524346d4c934d7239113971e091ab2051fb6156d1b37eaa1bf39afdb9f5c1a12",
            "detections.csv": "d0fbf7102ca648d4f5c961d6502ecd4a42eca74e1a55a6d1e78298f39cea2a67",
            "truth_trajectories.csv":
                "cd656ddbd7ac9920a9ece8bb9a0a2da8eb1c4c7e18c04b2c9a12e8e4f858bfcc",
            "gt_heatmaps.bin": "2b1c9e2f9326485fb59c9f6185576c4e121682a45f99d1f9fcb5377f367d8f41",
            "gt_offsets.bin": "0e3ff36d7433d09df80051b9edfb7ccd936c500a35a26d6dbba0aa56cf6c1b18",
        }
        out = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(out)) == 0
        for name, digest in pinned.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
        tracks = load_trajectories(trk / "tracks.csv")
        assert len(tracks) >= 3

    def test_divergence_exits_3(self, tiny_cfg, tmp_path, monkeypatch, capsys):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0

        def diverging(*args, **kwargs):
            raise Divergence("pair 0: loss became non-finite at epoch 0")

        monkeypatch.setattr(cli, "fit_scene_offsets", diverging)
        assert _run("fit", "--scene", str(scene), "--out", str(tmp_path / "fit"),
                    "--config", tiny_cfg) == 3
        assert "numeric failure" in capsys.readouterr().err

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
                dets, mode, fit_results=fits, edges=stride_gated(cfg.edges, stride),
                two_stage=cfg.two_stage))
            assert (trk / "tracks.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), mode

    @pytest.mark.parametrize("fit_stride,track_stride", [(1, 2), (2, 1)])
    def test_offsets_from_another_stride_are_config_error(self, tiny_cfg, tmp_path,
                                                          fit_stride, track_stride):
        # 6 frames: 5 pairs at stride 1, 2 at stride 2
        scene = tmp_path / "scene"
        fit = tmp_path / "fit"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        assert _run("fit", "--scene", str(scene), "--out", str(fit), "--config", tiny_cfg,
                    "--stride", str(fit_stride)) == 0
        out = tmp_path / "trk"
        rc = _run("track", "--scene", str(scene), "--offsets", str(fit), "--mode", "mussp",
                  "--out", str(out), "--config", tiny_cfg, "--stride", str(track_stride))
        assert rc == 2
        assert not out.exists()

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

    def test_zero_se_radius_fits(self, tiny_cfg, tmp_path):
        # every spatial-extent neighbourhood is empty: the term is zero
        cfg = tmp_path / "se0.cfg"
        cfg.write_text(TINY + "fit.se_radius = 0\n")
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", str(cfg), "--out", str(scene)) == 0
        assert _run("fit", "--scene", str(scene), "--out", str(tmp_path / "f"),
                    "--config", str(cfg)) == 0

    def test_se_radius_defaults_to_the_scene_radius(self, tmp_path):
        # the heatmaps are rendered at radius 4.5; a fit without fit.se_radius
        # uses that radius, and an explicit fit.se_radius wins
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(TINY + "scene.gaussian_radius = 4.5\n")
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", str(sim_cfg), "--out", str(scene)) == 0
        offsets = {}
        for name in ("none", "4.5", "3.0"):
            argv = ["fit", "--scene", str(scene), "--out", str(tmp_path / name)]
            if name != "none":
                cfg = tmp_path / f"{name}.cfg"
                cfg.write_text(f"fit.se_radius = {name}\n")
                argv += ["--config", str(cfg)]
            assert _run(*argv) == 0
            offsets[name] = (tmp_path / name / "offsets_fwd.bin").read_bytes()
        assert offsets["none"] == offsets["4.5"]
        assert offsets["none"] != offsets["3.0"]

    @pytest.mark.parametrize("line", ["scene.width = 200", "scene.num_agents = 0",
                                      "scene.seed = 0"])
    @pytest.mark.parametrize("command", [("fit",), ("track", "--mode", "mussp")],
                             ids=["fit", "track"])
    def test_scene_key_that_disagrees_with_the_scene_is_config_error(
            self, tiny_cfg, tmp_path, capsys, command, line):
        # the scene comes from meta.cfg (28 x 28, 3 agents, seed 11)
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        rc = _run(*command, "--scene", str(scene), "--out", str(out), "--config", str(cfg))
        assert rc == 2
        assert not out.exists()
        assert line.split(" =")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda meta: meta + "scene.cell_size = 0.2\n",   # written before the key was removed
        lambda meta: meta + "fit.epochs = 3\n",
        lambda meta: meta.replace("scene.width = 28\n", ""),
    ], ids=["cell_size", "fit_key", "no_width"])
    def test_meta_cfg_that_is_not_the_scene_keys_is_config_error(self, tiny_cfg, tmp_path, edit):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        (scene / "meta.cfg").write_text(edit((scene / "meta.cfg").read_text()))
        out = tmp_path / "o"
        assert _run("fit", "--scene", str(scene), "--out", str(out), "--config", tiny_cfg) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_dist_threshold_is_config_error(self, tiny_cfg, tmp_path, value):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"track.dist_threshold = {value}\n")
        out = tmp_path / "trk"
        rc = _run("track", "--scene", str(scene), "--mode", "nearest", "--out", str(out),
                  "--config", str(cfg))
        assert rc == 2
        assert not out.exists()

    def test_unknown_mode_is_usage_error(self, tiny_cfg, tmp_path, capsys):
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        for mode in ("magic", "hungarian"):
            with pytest.raises(SystemExit) as exc:
                _run("track", "--scene", str(scene), "--mode", mode,
                     "--out", str(tmp_path / "t"))
            assert exc.value.code == 2
            assert repr(mode) in capsys.readouterr().err

    def test_missing_scene_dir(self, tmp_path):
        rc = _run("fit", "--scene", str(tmp_path / "nope"), "--out", str(tmp_path / "f"))
        assert rc == 2

    def test_corrupt_detections_file(self, tiny_cfg, tmp_path):
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        (scene / "detections.csv").write_text("garbage,header\n1,2\n")
        rc = _run("fit", "--scene", str(scene), "--out", str(tmp_path / "f"))
        assert rc == 2

    @pytest.mark.parametrize("row", [
        "-1,-1,5.0,5.0,0.9", "6,-1,5.0,5.0,0.9",              # times outside the 6 frames
        "2,-1,abc,5.0,0.9", "2,-1,5.0", "2,-1,5.0,5.0,nan",
        "2,-1,-40.0,5.0,0.9", "2,-1,28.0,5.0,0.9", "2,-1,5.0,-0.01,0.9",  # off the 28 x 28 grid
    ], ids=["time_-1", "time_6", "abc_x", "three_fields", "nan_conf", "x_-40", "x_28", "y_-0.01"])
    @pytest.mark.parametrize("command", [("fit",), ("track", "--mode", "mussp")],
                             ids=["fit", "track"])
    def test_malformed_detection_row_is_format_error(self, tiny_cfg, tmp_path, capsys,
                                                     command, row):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        csv = scene / "detections.csv"
        lines = csv.read_text().splitlines()
        lines[3] = row
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert _run(*command, "--scene", str(scene), "--out", str(out), "--config", tiny_cfg) == 2
        assert not out.exists()
        assert "detections.csv, line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_offset_is_format_error(self, tiny_cfg, tmp_path, capsys, value):
        # zero offsets for the 5 pairs of the 28 x 28 scene, one value not finite
        scene = tmp_path / "scene"
        fit = tmp_path / "fit"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        fit.mkdir()
        channels = [np.zeros((28, 28)) for _ in range(10)]
        io.save_maps(fit / "offsets_bwd.bin", channels)
        channels[1][3, 4] = value
        io.save_maps(fit / "offsets_fwd.bin", channels)
        out = tmp_path / "trk"
        rc = _run("track", "--scene", str(scene), "--offsets", str(fit), "--mode", "mussp",
                  "--out", str(out), "--config", tiny_cfg)
        assert rc == 2
        assert not out.exists()
        assert "offsets_fwd.bin" in capsys.readouterr().err

    def test_empty_detections_score_zero(self, tiny_cfg, tmp_path):
        # no tracks: every truth point is a miss, as sweep-fps scores it
        scene = tmp_path / "scene"
        _run("simulate", "--config", tiny_cfg, "--out", str(scene))
        (scene / "detections.csv").write_text("time,id,x,y,confidence\n")
        trk = tmp_path / "trk"
        rc = _run("track", "--scene", str(scene), "--mode", "mussp", "--out", str(trk))
        assert rc == 0
        assert (trk / "tracks.csv").read_text() == "time,id,x,y,confidence\n"
        report = json.loads((trk / "mot_report.json").read_text(), parse_constant=_no_constant)
        assert report["mota"] == 0.0
        assert report["idf1"] == 0.0

    def test_empty_scene_fits_zero_fields(self, tiny_cfg, tmp_path):
        # a scene without detections fits, as sweep-fps and ablate fit it
        scene = tmp_path / "scene"
        fit = tmp_path / "fit"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        (scene / "detections.csv").write_text("time,id,x,y,confidence\n")
        assert _run("fit", "--scene", str(scene), "--out", str(fit), "--config", tiny_cfg) == 0
        for name in ("offsets_fwd.bin", "offsets_bwd.bin"):
            _, _, channels = io.load_maps(fit / name)
            assert len(channels) == 10
            assert not any(c.any() for c in channels)
        assert len(list((fit / "traces").iterdir())) == 5
        truth = generate_scene(load_experiment_config(tiny_cfg).scene)
        assert (fit / "offset_report.json").read_text() == zero_offset_report(truth).to_json()
        assert _run("track", "--scene", str(scene), "--offsets", str(fit), "--mode", "mussp",
                    "--out", str(tmp_path / "trk"), "--config", tiny_cfg) == 0

    @pytest.mark.parametrize("stride", ["6", "9"])
    def test_stride_that_leaves_one_frame_is_config_error(self, tiny_cfg, tmp_path, capsys,
                                                          stride):
        # the 6-frame scene at stride 6 or more keeps frame 0 alone: no pair
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        out = tmp_path / "fit"
        assert _run("fit", "--scene", str(scene), "--out", str(out), "--config", tiny_cfg,
                    "--stride", stride) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"--stride {stride}" in err and "6 frames" in err

    def test_vanishing_initial_lambda_fits(self, tmp_path):
        # 1e-310 overflows the block reach; the window caps the radius
        cfg = tmp_path / "soft.cfg"
        cfg.write_text(TINY + "fit.schedule_init = 1e-310\n")
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", str(cfg), "--out", str(scene)) == 0
        assert _run("fit", "--scene", str(scene), "--out", str(tmp_path / "fit"),
                    "--config", str(cfg)) == 0

    def test_max_gap_beyond_the_scene_tracks_its_span(self, tiny_cfg, tmp_path):
        # no gap of the 6-frame scene reaches 6, so 10**11 tracks as 6 does
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        tracks = []
        for gap in ("6", "100000000000"):
            cfg = tmp_path / f"gap{gap}.cfg"
            cfg.write_text(TINY + f"edges.max_gap = {gap}\n")
            out = tmp_path / gap
            assert _run("track", "--scene", str(scene), "--mode", "mussp", "--out", str(out),
                        "--config", str(cfg)) == 0
            tracks.append((out / "tracks.csv").read_bytes())
        assert tracks[0] == tracks[1]


class TestNonUtf8Input:
    """A text input holding a byte that is not UTF-8 exits 2, names the
    file and leaves no output directory."""

    @staticmethod
    def _scene(tiny_cfg, tmp_path):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        return scene

    @staticmethod
    def _argv(command, scene):
        return {"simulate": [], "fit": ["--scene", str(scene)],
                "track": ["--scene", str(scene), "--mode", "mussp"],
                "sweep-fps": [], "ablate": []}[command]

    def _refused(self, argv, bad, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "out"
        assert _run(*argv, "--out", str(out)) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "track", "sweep-fps", "ablate"])
    def test_config_file(self, tiny_cfg, tmp_path, capsys, command):
        scene = self._scene(tiny_cfg, tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff" + Path(tiny_cfg).read_bytes())
        self._refused([command, *self._argv(command, scene), "--config", str(bad)], bad,
                      tmp_path, capsys)

    @pytest.mark.parametrize("command", ["fit", "track"])
    def test_meta_cfg(self, tiny_cfg, tmp_path, capsys, command):
        scene = self._scene(tiny_cfg, tmp_path)
        bad = scene / "meta.cfg"
        bad.write_bytes(bad.read_bytes() + b"\xff")
        self._refused([command, *self._argv(command, scene)], bad, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["fit", "track"])
    def test_detections_csv(self, tiny_cfg, tmp_path, capsys, command):
        scene = self._scene(tiny_cfg, tmp_path)
        bad = scene / "detections.csv"
        lines = bad.read_bytes().split(b"\n")
        row = lines[1].split(b",")
        row[2] = b"\xff"   # the x field
        lines[1] = b",".join(row)
        bad.write_bytes(b"\n".join(lines))
        self._refused([command, *self._argv(command, scene), "--config", tiny_cfg], bad,
                      tmp_path, capsys)


def _tree(root: Path) -> dict:
    """The bytes of each file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestByteOrderMark:
    """A text input that starts with a UTF-8 byte-order mark reads as the
    same file without it."""

    BOM = b"\xef\xbb\xbf"

    @pytest.mark.parametrize("command", ["simulate", "track"])
    def test_config_file(self, tiny_cfg, tmp_path, command):
        scene = tmp_path / "scene"
        assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(self.BOM + Path(tiny_cfg).read_bytes())
        argv = {"simulate": [], "track": ["--scene", str(scene), "--mode", "mussp"]}[command]
        outs = []
        for k, cfg in enumerate((tiny_cfg, bom)):
            outs.append(tmp_path / f"out{k}")
            assert _run(command, *argv, "--config", str(cfg), "--out", str(outs[k])) == 0
        assert _tree(outs[0]) == _tree(outs[1])

    @pytest.mark.parametrize("name", ["meta.cfg", "detections.csv"])
    @pytest.mark.parametrize("command", ["fit", "track"])
    def test_scene_file(self, tiny_cfg, tmp_path, command, name):
        scenes = [tmp_path / "plain", tmp_path / "bom"]
        for scene in scenes:
            assert _run("simulate", "--config", tiny_cfg, "--out", str(scene)) == 0
        marked = scenes[1] / name
        marked.write_bytes(self.BOM + marked.read_bytes())
        argv = {"fit": [], "track": ["--mode", "mussp"]}[command]
        outs = []
        for k, scene in enumerate(scenes):
            outs.append(tmp_path / f"out{k}")
            assert _run(command, "--scene", str(scene), *argv, "--config", tiny_cfg,
                        "--out", str(outs[k])) == 0
        assert _tree(outs[0]) == _tree(outs[1])


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


class TestOneScenePerSeed:
    @pytest.mark.parametrize("command", ["sweep-fps", "ablate"])
    def test_each_seed_is_simulated_once(self, tmp_path, monkeypatch, command):
        cfg = tmp_path / "two_seeds.cfg"
        cfg.write_text(TINY.replace("sweep.strides = 1,2", "sweep.strides = 1,2,3")
                       .replace("sweep.seeds = 11", "sweep.seeds = 4,7"))
        seeds = []

        def counted(scene_cfg):
            seeds.append(scene_cfg.seed)
            return generate_scene(scene_cfg)

        monkeypatch.setattr(cli, "generate_scene", counted)
        assert _run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
        assert sorted(seeds) == [4, 7]


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert _run("gradcheck", "--instances", "2", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out

    def test_failed_check_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "finite_diff_check", lambda *args, **kwargs: 1.0)
        assert _run("gradcheck", "--instances", "1") == 3
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_instances_below_one_is_usage_error(self, instances, capsys):
        assert _run("gradcheck", "--instances", instances) == 2
        assert "passed" not in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_seed_below_zero_is_usage_error(self, seed, capsys):
        assert _run("gradcheck", "--instances", "1", "--seed", seed) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert "passed" not in captured.out

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

    def test_one_frame_scene_is_config_error(self, tiny_cfg, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(TINY.replace("scene.num_frames = 6", "scene.num_frames = 1"))
        out = tmp_path / "abl"
        assert _run("ablate", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()
        assert "scene.num_frames" in capsys.readouterr().err

    def test_arm_weights(self, tmp_path, monkeypatch):
        p = tmp_path / "abl.cfg"
        p.write_text(
            "scene.width = 28\nscene.height = 28\nscene.num_agents = 3\n"
            "scene.num_frames = 5\nscene.seed = 2\nfit.epochs = 20\nfit.window = 15\n"
            "fit.lambda_fb = 0.07\nfit.lambda_se = 0.5\n"
            "sweep.strides = 2\nsweep.seeds = 2\n"
        )
        fits = []

        def recorded(frames, grid, fit_cfg, *args, **kwargs):
            fits.append((fit_cfg.weights.lambda_fb, fit_cfg.weights.lambda_se, len(frames)))
            return fit_scene_offsets(frames, grid, fit_cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "fit_scene_offsets", recorded)
        out = tmp_path / "abl"
        assert _run("ablate", "--config", str(p), "--out", str(out)) == 0
        table = (out / "ablation_fit.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in table[1:]] == [
            "full", "mot_only", "no_se", "no_fb", "no_mot"]
        # the four fitted arms on the 5 full-rate frames, in table order, and
        # no_mot fits nothing; then the motion-term table's one fit of the
        # 3 frames at stride 2, with the configured weights
        assert fits == [(0.07, 0.5, 5), (0.0, 0.0, 5), (0.07, 0.0, 5), (0.0, 0.5, 5),
                        (0.07, 0.5, 3)]
