import numpy as np
import pytest

from groundflow import io
from groundflow.core import Detection, GroundGrid, Trajectory
from groundflow.errors import FormatError
from oracles import load_trajectories

GRID = GroundGrid(8, 6)


class TestMapsContainer:
    def test_round_trip(self, tmp_path):
        a = np.arange(12, dtype=np.float64).reshape(3, 4) / 11.0
        b = np.ones((3, 4)) * 0.25
        path = tmp_path / "maps.bin"
        io.save_maps(path, [a, b])
        w, h, channels = io.load_maps(path)
        assert (w, h) == (4, 3)
        assert len(channels) == 2
        # float32 storage: exact for values representable in f32
        assert np.allclose(channels[0], a, atol=1e-7)
        assert np.array_equal(channels[1], b)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "maps.bin"
        io.save_maps(path, [np.zeros((2, 5))])
        raw = path.read_bytes()
        assert raw[:4] == b"GFH1"
        assert len(raw) == 16 + 4 * 10
        assert int.from_bytes(raw[4:8], "little") == 5
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            io.load_maps(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "maps.bin"
        io.save_maps(path, [np.zeros((4, 4))])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            io.load_maps(path)


class TestCsv:
    def test_detections_round_trip(self, tmp_path):
        frames = [
            [Detection(0, 1.5, 2.25, 0.9), Detection(0, 3.0, 0.125, 0.8)],
            [],
            [Detection(2, 0.1234567890123, 4.0, 0.5)],
        ]
        path = tmp_path / "dets.csv"
        io.save_detections(path, frames)
        assert path.read_text().splitlines()[0] == "time,id,x,y,confidence"
        loaded = io.load_detections(path, 3, GRID)
        assert len(loaded) == 3
        assert loaded[0][0] == frames[0][0]
        assert loaded[2][0].x == 0.1234567890123  # repr round-trips exactly

    def test_write_csv_writes_floats_repr_exact_and_the_rest_as_str(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_csv(path, "a,b,c,d,e", [(1, np.float64(0.1), 2.0, "x", np.int64(3)),
                                         (-1, 1e-17, 1 / 3, "y", 0)])
        assert path.read_text() == "a,b,c,d,e\n1,0.1,2.0,x,3\n-1,1e-17,0.3333333333333333,y,0\n"
        io.write_csv(path, "a,b", [])
        assert path.read_text() == "a,b\n"

    def test_integer_detection_fields_are_written_as_floats(self, tmp_path):
        path = tmp_path / "dets.csv"
        io.save_detections(path, [[Detection(0, 1, 2, 1)]])
        assert path.read_text() == "time,id,x,y,confidence\n0,-1,1.0,2.0,1.0\n"

    def test_detections_have_id_minus_one(self, tmp_path):
        path = tmp_path / "dets.csv"
        io.save_detections(path, [[Detection(0, 1.0, 1.0, 0.5)]])
        assert path.read_text().splitlines()[1].split(",")[1] == "-1"

    def test_trajectories_round_trip(self, tmp_path):
        trs = [Trajectory(3, [(0, 1.0, 2.0), (1, 1.5, 2.5)]),
               Trajectory(1, [(4, 0.0, 0.0)])]
        path = tmp_path / "tracks.csv"
        io.save_trajectories(path, trs)
        loaded = load_trajectories(path)
        assert [tr.id for tr in loaded] == [1, 3]
        assert loaded[1].points == ((0, 1.0, 2.0), (1, 1.5, 2.5))

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            io.load_detections(path, 4, GRID)

    def test_detections_fill_every_frame_of_the_scene(self, tmp_path):
        path = tmp_path / "dets.csv"
        io.save_detections(path, [[], [Detection(1, 1.0, 2.0, 0.5)]])
        assert io.load_detections(path, 4, GRID) == [[], [Detection(1, 1.0, 2.0, 0.5)], [], []]

    @pytest.mark.parametrize("row", [
        "-1,-1,1.0,1.0,0.5", "4,-1,1.0,1.0,0.5",           # time outside the 4 frames
        "1,-1,1.0,0.5", "1,-1,1.0,1.0,0.5,7",               # four or six fields
        "1,-1,abc,1.0,0.5", "1.5,-1,1.0,1.0,0.5", "1,x,1.0,1.0,0.5",
        "1,-1,nan,1.0,0.5", "1,-1,1.0,-inf,0.5", "1,-1,1.0,1.0,nan", "1,-1,1.0,1.0,1e999",
        "1,-1,-40.0,1.0,0.5", "1,-1,8.0,1.0,0.5", "1,-1,1.0,-0.01,0.5", "1,-1,1.0,6.0,0.5",
    ])
    def test_malformed_detection_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "dets.csv"
        path.write_text(f"time,id,x,y,confidence\n0,-1,1.0,1.0,0.5\n\n{row}\n")
        with pytest.raises(FormatError, match=rf"dets\.csv, line 4: "):
            io.load_detections(path, 4, GRID)


class TestKvConfig:
    def test_parse(self):
        kv = io.parse_kv("a.b = 1\n# comment\nc = hello world # trailing\n\n")
        assert kv == {"a.b": "1", "c": "hello world"}

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            io.parse_kv("just some words\n")

    def test_rejects_a_repeated_key(self):
        with pytest.raises(FormatError, match=r"line 3: key 'a' already set on line 1"):
            io.parse_kv("a = 1\nb = 2\n a=3 # again\n")

    def test_write_is_sorted_and_stable(self, tmp_path):
        p1 = tmp_path / "a.cfg"
        p2 = tmp_path / "b.cfg"
        io.write_kv(p1, {"z": 1, "a": 2})
        io.write_kv(p2, {"a": 2, "z": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == "a = 2\nz = 1\n"
