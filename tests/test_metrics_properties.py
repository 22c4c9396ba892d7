"""Property-based checks of CLEAR MOT and identity scoring on small random
instances."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

from groundflow.core import Trajectory  # noqa: E402
from groundflow.metrics import clear_mot  # noqa: E402

SIZE = 12.0
THRESHOLD = 2.5


def _instance(seed: int, n_gt: int, n_pred: int, n_frames: int, jitter: float):
    """Ground truth tracks on random frame subsets, and predictions that
    follow a ground-truth track (switching now and then, with jitter) or
    wander; ids are distinct within each list."""
    rng = np.random.default_rng(seed)

    def frames():
        keep = rng.random(n_frames) < 0.7
        keep[rng.integers(n_frames)] = True
        return np.nonzero(keep)[0].tolist()

    gt = [Trajectory(int(i), [(t, *rng.uniform(0, SIZE, 2)) for t in frames()])
          for i in rng.choice(1000, n_gt, replace=False)]
    at = [{p[0]: p[1:] for p in tr.points} for tr in gt]
    pred = []
    for i in rng.choice(1000, n_pred, replace=False):
        src = int(rng.integers(n_gt))
        pts = []
        for t in frames():
            if rng.random() < 0.2:
                src = int(rng.integers(n_gt))
            if t in at[src] and rng.random() < 0.8:
                x, y = np.asarray(at[src][t]) + rng.normal(0.0, jitter, 2)
            else:
                x, y = rng.uniform(0, SIZE, 2)
            pts.append((t, x, y))
        pred.append(Trajectory(int(i), pts))
    return pred, gt


def _identity_true_positives(pred, gt) -> int:
    """The largest number of gt points a one-to-one track assignment keeps
    within the threshold, counted trajectory pair by trajectory pair."""
    overlap = np.zeros((len(gt), len(pred)))
    pred_at = [{t: (x, y) for t, x, y in p.points} for p in pred]
    for a, g in enumerate(gt):
        for b, at in enumerate(pred_at):
            overlap[a, b] = sum(t in at and math.hypot(x - at[t][0], y - at[t][1]) <= THRESHOLD
                                for t, x, y in g.points)
    rows, cols = linear_sum_assignment(-overlap)
    return int(overlap[rows, cols].sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_gt=st.integers(1, 5), n_pred=st.integers(0, 6),
       n_frames=st.integers(1, 8), jitter=st.sampled_from([0.0, 0.5, 2.0]))
def test_counts_balance_and_ignore_list_order(seed, n_gt, n_pred, n_frames, jitter):
    pred, gt = _instance(seed, n_gt, n_pred, n_frames, jitter)
    rep = clear_mot(pred, gt, THRESHOLD)
    assert rep.matches + rep.fn == rep.gt == sum(len(tr.points) for tr in gt)
    assert rep.matches + rep.fp == sum(len(tr.points) for tr in pred)
    assert rep.idr == _identity_true_positives(pred, gt) / rep.gt

    rng = np.random.default_rng(seed + 1)
    shuffled_pred = [pred[k] for k in rng.permutation(len(pred))]
    shuffled_gt = [gt[k] for k in rng.permutation(len(gt))]
    assert clear_mot(shuffled_pred, gt, THRESHOLD) == rep
    assert clear_mot(pred, shuffled_gt, THRESHOLD) == rep

    itself = clear_mot(gt, gt, THRESHOLD)
    assert (itself.mota, itself.idf1, itself.motp) == (1.0, 1.0, 0.0)
