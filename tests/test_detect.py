import numpy as np
import pytest

from groundflow.core import Detection
from groundflow.detect import select_true_detections, split_kmeans2


class TestSplitKmeans2:
    def test_hand_lloyd_iteration(self):
        # centroids start at (0.05, 0.9); one assignment step converges
        assert split_kmeans2([0.9, 0.85, 0.1, 0.05]) == pytest.approx(0.475)

    def test_lloyd_stops_at_a_local_optimum(self):
        # from (0, 1) one step reaches the centroids (0.25, 0.8) and stays
        # there, though {0} against {0.5, 0.6, 1} has less squared error
        vals = np.array([0.0, 0.5, 0.6, 1.0])
        t = split_kmeans2(vals)
        assert t == pytest.approx(0.525)

        def squared_error(high):
            return sum(float(((v - v.mean()) ** 2).sum()) for v in (vals[~high], vals[high]))

        assert squared_error(vals > t) == pytest.approx(0.205)
        assert squared_error(vals > 0.35) == pytest.approx(0.14)

    def test_symmetric_blocks(self):
        vals = [1.0] * 10 + [0.0] * 10
        assert split_kmeans2(vals) == pytest.approx(0.5)

    def test_degenerate_single_value(self):
        assert split_kmeans2([0.5]) == 0.5
        # nothing is strictly above the threshold
        assert sum(1 for v in [0.5] if v > 0.5) == 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.uniform(0.7, 1.0, 30), rng.uniform(0.0, 0.3, 15)])
        t1 = split_kmeans2(vals)
        t2 = split_kmeans2(vals[::-1])
        t3 = split_kmeans2(rng.permutation(vals))
        assert t1 == pytest.approx(t2) == pytest.approx(t3)

    def test_objective_separates_bimodal(self):
        vals = [0.92, 0.88, 0.71, 0.28, 0.11, 0.05]
        t = split_kmeans2(vals)
        assert 0.28 < t < 0.71

    def test_objective_never_increases_from_init(self):
        def objective(vals, c_lo, c_hi):
            d_lo = (vals - c_lo) ** 2
            d_hi = (vals - c_hi) ** 2
            return float(np.minimum(d_lo, d_hi).sum())

        rng = np.random.default_rng(7)
        for _ in range(25):
            vals = rng.random(rng.integers(2, 40))
            t = split_kmeans2(vals)
            lo = vals[vals <= t]
            hi = vals[vals > t]
            c_lo = lo.mean() if lo.size else vals.min()
            c_hi = hi.mean() if hi.size else vals.max()
            assert objective(vals, c_lo, c_hi) <= objective(vals, vals.min(), vals.max()) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_kmeans2([])


class TestSelectTrueDetections:
    def _dets(self, confs):
        return [Detection(0, float(i), 0.0, c) for i, c in enumerate(confs)]

    def test_bimodal_splits_noise(self):
        dets = self._dets([0.9, 0.8, 0.85, 0.1, 0.2])
        kept, threshold = select_true_detections(dets)
        assert [d.confidence for d in kept] == [0.9, 0.8, 0.85]
        assert 0.2 < threshold < 0.8

    def test_unimodal_keeps_all(self):
        dets = self._dets([0.72, 0.8, 0.88, 0.95, 0.77])
        kept, _ = select_true_detections(dets)
        assert len(kept) == len(dets)

    def test_empty(self):
        assert select_true_detections([]) == ([], 0.0)
