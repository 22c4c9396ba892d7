"""Property-based checks of the config loader: every key it knows is
accepted, any other key is rejected, and so is a float key's value that
is not finite; a scene that `simulate` writes as meta.cfg loads back
unchanged. And of the exit codes of `fit` and `track` on a scene
directory with one line of detections.csv or one value of
offsets_fwd.bin mangled: 0 or 2, and no output directory on a 2."""
import shutil
import string

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groundflow import io  # noqa: E402
from groundflow.cli import load_experiment_config, main  # noqa: E402
from groundflow.core import GroundGrid  # noqa: E402
from groundflow.errors import ConfigError  # noqa: E402
from groundflow.pipeline import FIT_MODES, TRACK_MODES  # noqa: E402
from groundflow.sim import SceneConfig  # noqa: E402

# every key load_experiment_config reads, with its default value
KNOWN = {
    "scene.width": "64", "scene.height": "64",
    "scene.num_agents": "8", "scene.num_frames": "30",
    "scene.speed_min": "0.8", "scene.speed_max": "1.8", "scene.turn_sigma": "0.25",
    "scene.miss_rate": "0.03", "scene.fp_rate": "0.3", "scene.jitter_sigma": "0.15",
    "scene.gaussian_sigma": "1.0", "scene.gaussian_radius": "3.0", "scene.seed": "0",
    "fit.schedule_init": "0.8", "fit.schedule_increment": "0.08", "fit.schedule_cap": "5.0",
    "fit.lambda_fb": "0.05", "fit.lambda_se": "1.0", "fit.epochs": "80",
    "fit.learning_rate": "0.25", "fit.window": "21", "fit.se_radius": "3.0",
    "edges.sigma_t": "0.5", "edges.sigma_d": "0.15", "edges.sigma_m": "0.15",
    "edges.max_gap": "3", "edges.entry_cost": "0.2", "edges.exit_cost": "0.2",
    "edges.obs_cost_scale": "1.0",
    "track.box_side": "5.0", "track.iou_threshold": "0.1", "track.max_age": "3",
    "track.dist_threshold": "2.5",
    "sweep.strides": "1,3,5", "sweep.modes": "mussp,mussp-nomotion,bytestyle-kalman,bytestyle-offset",
    "sweep.seeds": "0",
}
DEFAULT = load_experiment_config(None)
# the float keys: those whose default has a decimal point
FLOAT_KEYS = sorted(k for k, v in KNOWN.items() if "." in v)

known_key = st.sampled_from(sorted(KNOWN))
# random names, and near misses of known keys: a character more or less,
# or a known leaf under another section
unknown_key = st.one_of(
    st.text(string.ascii_lowercase + string.digits + "._-", min_size=1, max_size=24),
    st.builds(lambda k, c: k + c, known_key, st.sampled_from("s_0.")),
    known_key.map(lambda k: k[:-1]),
    st.builds(lambda a, b: a.split(".")[0] + "." + b.split(".")[1], known_key, known_key),
).filter(lambda k: k not in KNOWN)
seed_override = st.none() | st.integers(0, 2**31 - 1)


def _write(tmp_path_factory, keys) -> str:
    path = tmp_path_factory.mktemp("cfg") / "x.cfg"
    io.write_kv(path, {k: KNOWN.get(k, "1") for k in keys})
    return str(path)


@pytest.mark.parametrize("key", sorted(KNOWN))
def test_each_known_key_alone_is_accepted(tmp_path_factory, key):
    assert load_experiment_config(_write(tmp_path_factory, [key])) == DEFAULT


@settings(max_examples=60, deadline=None, derandomize=True)
@given(keys=st.sets(known_key), seed=seed_override)
def test_known_keys_are_accepted(tmp_path_factory, keys, seed):
    cfg = load_experiment_config(_write(tmp_path_factory, keys), seed)
    assert cfg.scene.seed == (0 if seed is None else seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bad=unknown_key, keys=st.sets(known_key, max_size=6), seed=seed_override)
def test_any_unknown_key_is_rejected(tmp_path_factory, bad, keys, seed):
    with pytest.raises(ConfigError, match="unknown config key") as exc:
        load_experiment_config(_write(tmp_path_factory, keys | {bad}), seed)
    assert bad in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_config_error(tmp_path, key, value):
    path = tmp_path / "x.cfg"
    io.write_kv(path, {key: value})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@st.composite
def scenes(draw):
    """A small valid scene with every field that a scene.* key sets drawn."""
    width, height = draw(st.integers(6, 24)), draw(st.integers(6, 24))
    speed_max = draw(st.floats(0.0, (min(width, height) - 1) / 2, exclude_max=True))
    sigma = draw(st.floats(0.1, 2.0))
    return SceneConfig(
        grid=GroundGrid(width, height),
        num_agents=draw(st.integers(1, 4)),
        num_frames=draw(st.integers(1, 4)),
        speed_cells=(draw(st.floats(0.0, speed_max)), speed_max),
        turn_sigma_rad=draw(st.floats(0.0, 3.0)),
        miss_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        fp_rate_per_frame=draw(st.floats(0.0, 2.0)),
        jitter_sigma_cells=draw(st.floats(0.0, 1.0)),
        gaussian_sigma_cells=sigma,
        gaussian_radius_cells=draw(st.floats(sigma, 4.0)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scene=scenes())
def test_simulated_scene_meta_loads_back_equal(tmp_path_factory, scene):
    tmp = tmp_path_factory.mktemp("meta")
    io.write_kv(tmp / "scene.cfg", {
        "scene.width": scene.grid.width_cells,
        "scene.height": scene.grid.height_cells,
        "scene.num_agents": scene.num_agents,
        "scene.num_frames": scene.num_frames,
        "scene.speed_min": repr(scene.speed_cells[0]),
        "scene.speed_max": repr(scene.speed_cells[1]),
        "scene.turn_sigma": repr(scene.turn_sigma_rad),
        "scene.miss_rate": repr(scene.miss_rate),
        "scene.fp_rate": repr(scene.fp_rate_per_frame),
        "scene.jitter_sigma": repr(scene.jitter_sigma_cells),
        "scene.gaussian_sigma": repr(scene.gaussian_sigma_cells),
        "scene.gaussian_radius": repr(scene.gaussian_radius_cells),
        "scene.seed": scene.seed,
    })
    assert main(["simulate", "--config", str(tmp / "scene.cfg"), "--out", str(tmp / "out")]) == 0
    assert load_experiment_config(str(tmp / "out" / "meta.cfg")).scene == scene


# a six-frame scene, fitted in a few epochs
TINY = """
scene.width = 28
scene.height = 28
scene.num_agents = 3
scene.num_frames = 6
scene.speed_min = 1.0
scene.speed_max = 1.5
scene.miss_rate = 0.0
scene.fp_rate = 0.2
scene.seed = 11
fit.epochs = 3
fit.window = 15
"""
NUM_FRAMES = 6
SIZE = 28   # TINY's width and height


@pytest.fixture(scope="module")
def fitted_scene(tmp_path_factory):
    """A simulated TINY scene directory, its config and its fitted offsets."""
    tmp = tmp_path_factory.mktemp("tiny")
    (tmp / "tiny.cfg").write_text(TINY)
    assert main(["simulate", "--config", str(tmp / "tiny.cfg"), "--out", str(tmp / "scene")]) == 0
    assert main(["fit", "--scene", str(tmp / "scene"), "--out", str(tmp / "fit"),
                 "--config", str(tmp / "tiny.cfg")]) == 0
    return tmp


def _run_into(argv, out) -> int:
    rc = main(argv + ["--out", str(out)])
    assert rc in (0, 2)
    assert rc == 0 or not out.exists()
    return rc


@st.composite
def mangled_rows(draw, row: list[str]):
    """`row` mangled, and whether the result still is a valid row: a
    field dropped, a field that is no number, a non-finite field, another
    time, another x or y, or one byte that is not UTF-8. The byte is a
    surrogate escape, which the file is written with."""
    kind = draw(st.sampled_from(["drop", "word", "non_finite", "time", "position", "byte"]))
    field = draw(st.integers(0, 4))
    row = list(row)
    if kind == "byte":
        text = ",".join(row)
        at = draw(st.integers(0, len(text)))
        return text[:at] + chr(0xDC00 + draw(st.integers(0x80, 0xFF))) + text[at:], False
    if kind == "drop":
        del row[field]
    elif kind == "word":
        row[field] = draw(st.sampled_from(["abc", "", "1e", "0x1"]))
    elif kind == "non_finite":
        row[field] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
    elif kind == "time":
        t = draw(st.integers(-3, NUM_FRAMES + 3))
        row[0] = str(t)
        return ",".join(row), 0 <= t < NUM_FRAMES
    else:
        v = draw(st.floats(-3, SIZE + 3))
        row[draw(st.sampled_from([2, 3]))] = repr(v)
        return ",".join(row), 0 <= v < SIZE
    return ",".join(row), False


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(TRACK_MODES))
def test_mangled_detection_row_exits_0_or_2(fitted_scene, tmp_path_factory, data, mode):
    tmp = tmp_path_factory.mktemp("mangled")
    scene = tmp / "scene"
    shutil.copytree(fitted_scene / "scene", scene)
    lines = (scene / "detections.csv").read_text().splitlines()
    k = data.draw(st.integers(1, len(lines) - 1))
    lines[k], valid = data.draw(mangled_rows(lines[k].split(",")))
    (scene / "detections.csv").write_text("\n".join(lines) + "\n", encoding="utf-8",
                                          errors="surrogateescape")
    cfg = str(fitted_scene / "tiny.cfg")
    for argv in (["fit"], ["track", "--mode", mode]):
        rc = _run_into(argv + ["--scene", str(scene), "--config", cfg], tmp / argv[0])
        assert rc == (0 if valid else 2), (argv, lines[k])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(FIT_MODES),
       value=st.floats(width=32) | st.sampled_from([np.nan, np.inf, -np.inf]))
def test_mangled_offset_exits_0_or_2(fitted_scene, tmp_path_factory, data, mode, value):
    tmp = tmp_path_factory.mktemp("mangled")
    fit = tmp / "fit"
    shutil.copytree(fitted_scene / "fit", fit)
    w, h, channels = io.load_maps(fit / "offsets_fwd.bin")
    c = data.draw(st.integers(0, len(channels) - 1))
    channels[c][data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = value
    io.save_maps(fit / "offsets_fwd.bin", channels)
    rc = _run_into(["track", "--scene", str(fitted_scene / "scene"), "--offsets", str(fit),
                    "--mode", mode, "--config", str(fitted_scene / "tiny.cfg")], tmp / "trk")
    assert rc == (0 if np.isfinite(value) else 2)
