"""Property-based round trips of the file formats: the GFH1 map container,
detection and trajectory CSV, and key = value config files."""
import string

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from groundflow import io  # noqa: E402
from groundflow.core import Detection, GroundGrid, Trajectory  # noqa: E402
from oracles import load_trajectories  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def map_stacks(draw):
    h, w, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return [draw(arrays(np.float32, (h, w), elements=st.floats(width=32, allow_nan=False)))
            .astype(np.float64) for _ in range(n)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(channels=map_stacks())
def test_maps_round_trip_float32_values(tmp_path_factory, channels):
    path = tmp_path_factory.mktemp("maps") / "maps.bin"
    io.save_maps(path, channels)
    w, h, loaded = io.load_maps(path)
    assert (h, w) == channels[0].shape
    assert len(loaded) == len(channels)
    for got, want in zip(loaded, channels):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(0, 3), max_size=6), w=st.integers(1, 40),
       h=st.integers(1, 40), data=st.data())
def test_detections_round_trip(tmp_path_factory, counts, w, h, data):
    xs, ys = st.floats(0, w, exclude_max=True), st.floats(0, h, exclude_max=True)
    frames = [[Detection(t, data.draw(xs), data.draw(ys), data.draw(finite))
               for _ in range(k)] for t, k in enumerate(counts)]
    path = tmp_path_factory.mktemp("dets") / "dets.csv"
    io.save_detections(path, frames)
    assert io.load_detections(path, len(frames), GroundGrid(w, h)) == frames


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ids=st.sets(st.integers(-5, 10**6), max_size=5), data=st.data())
def test_trajectories_round_trip(tmp_path_factory, ids, data):
    trajectories = [
        Trajectory(i, [(t, data.draw(finite), data.draw(finite))
                       for t in sorted(data.draw(st.sets(st.integers(0, 50), min_size=1,
                                                         max_size=6)))])
        for i in ids
    ]
    path = tmp_path_factory.mktemp("tracks") / "tracks.csv"
    io.save_trajectories(path, trajectories)
    assert load_trajectories(path) == sorted(trajectories, key=lambda tr: tr.id)


keys = st.text(string.ascii_lowercase + string.digits + "._-", min_size=1, max_size=12)
# printable ASCII without the comment sign; the parser strips the ends
values = st.text(string.ascii_letters + string.digits + string.punctuation.replace("#", "") + " ",
                 max_size=16).map(str.strip)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mapping=st.dictionaries(keys, values, max_size=8))
def test_kv_round_trip(tmp_path_factory, mapping):
    path = tmp_path_factory.mktemp("kv") / "x.cfg"
    io.write_kv(path, mapping)
    assert io.read_kv(path) == mapping
