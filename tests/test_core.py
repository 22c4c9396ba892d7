import numpy as np
import pytest

from groundflow.core import GroundGrid, Heatmap, OffsetField, Trajectory


class TestGroundGrid:
    def test_shape_and_defaults(self):
        g = GroundGrid(180, 80)
        assert g.shape == (80, 180)

    @pytest.mark.parametrize("w,h", [(0, 4), (4, 0)])
    def test_rejects_bad_dimensions(self, w, h):
        with pytest.raises(ValueError):
            GroundGrid(w, h)


class TestHeatmap:
    def test_accepts_unit_range(self):
        g = GroundGrid(3, 2)
        hm = Heatmap(g, [[0.0, 0.5, 1.0], [0.2, 0.0, 0.9]])
        assert hm.values.shape == (2, 3)
        assert not hm.values.flags.writeable

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan, np.inf])
    def test_rejects_out_of_range(self, bad):
        g = GroundGrid(2, 2)
        vals = np.zeros((2, 2))
        vals[0, 1] = bad
        with pytest.raises(ValueError):
            Heatmap(g, vals)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Heatmap(GroundGrid(3, 3), np.zeros((2, 2)))


class TestOffsetField:
    def test_rejects_nonfinite(self):
        g = GroundGrid(2, 2)
        bad = np.zeros((2, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            OffsetField(g, bad, np.zeros((2, 2)))

    def test_zeros(self):
        f = OffsetField.zeros(GroundGrid(4, 3))
        assert f.dx.shape == (3, 4)
        assert np.all(f.dx == 0) and np.all(f.dy == 0)


class TestTrajectory:
    def test_strictly_increasing_required(self):
        Trajectory(0, [(0, 1.0, 1.0), (1, 2.0, 2.0)])
        with pytest.raises(ValueError):
            Trajectory(0, [(0, 1.0, 1.0), (0, 2.0, 2.0)])
        with pytest.raises(ValueError):
            Trajectory(0, [(2, 1.0, 1.0), (1, 2.0, 2.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory(0, [])

