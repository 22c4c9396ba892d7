"""Property-based checks of the fit's start from detection matches."""
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from groundflow.core import GroundGrid  # noqa: E402
from groundflow.fit import (  # noqa: E402
    START_LAMBDA,
    FitConfig,
    FitPair,
    _Frame,
    _matches,
    _start,
    fit_offsets,
)
from groundflow.sim import render_heatmap  # noqa: E402

SIZE = 32
GRID = GroundGrid(SIZE, SIZE)
CFG = FitConfig(epochs=1)
CLAMP = float((CFG.window_cells - 1) // 2)
HALF_WEIGHT = 10.0 / (4.0 * CFG.schedule.init)

coord = st.floats(0.0, SIZE - 1.0, allow_nan=False)
point = st.tuples(coord, coord)
points = st.lists(point, max_size=8)


def _frame(pts, cfg=CFG):
    return _Frame(render_heatmap(pts, GRID, 1.0, 3.0).values, tuple(pts), cfg)


def _cells(frame, k):
    hood = frame.hoods[k]
    return hood[hood < SIZE * SIZE]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(points, points, st.floats(0.5, 20.0))
def test_matches_are_one_to_one_and_within_the_clamp(pts_t, pts_t1, clamp):
    i, j, d = _matches(pts_t, pts_t1, clamp)
    assert len(set(i.tolist())) == len(i) and len(set(j.tolist())) == len(j)
    assert np.all(np.hypot(d[:, 0], d[:, 1]) <= clamp)
    a, b = np.reshape(pts_t, (-1, 2)), np.reshape(pts_t1, (-1, 2))
    assert np.array_equal(d, b[j] - a[i])
    assert list(i) == sorted(i)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point, point)
def test_an_isolated_fast_pair_starts_at_its_displacement(a, b):
    d = np.subtract(b, a)
    assume(HALF_WEIGHT < np.hypot(*d) <= CLAMP)
    frame_t, frame_t1 = _frame([a]), _frame([b])
    params, schedule = _start(frame_t, frame_t1, CFG.schedule, CLAMP)
    expected = np.zeros((4, SIZE * SIZE))
    expected[0, _cells(frame_t, 0)], expected[1, _cells(frame_t, 0)] = d
    expected[2, _cells(frame_t1, 0)], expected[3, _cells(frame_t1, 0)] = -d
    assert np.array_equal(params.reshape(4, -1), expected)
    assert schedule == replace(CFG.schedule, init=START_LAMBDA)
    pair = FitPair(frame_t.x, frame_t1.x, (a,), (b,))
    assert fit_offsets([pair], CFG, GRID)[0].trace[0]["lambda_r"] == START_LAMBDA


@settings(max_examples=60, deadline=None, derandomize=True)
@given(points, points, st.floats(0.2, 5.0))
def test_a_pair_within_the_half_weight_distance_keeps_zero_and_init(pts_t, pts_t1, init):
    cfg = replace(CFG, schedule=replace(CFG.schedule, init=init))
    _, _, d = _matches(pts_t, pts_t1, CLAMP)
    assume(not len(d) or np.median(np.hypot(d[:, 0], d[:, 1])) <= 10.0 / (4.0 * init))
    params, schedule = _start(_frame(pts_t, cfg), _frame(pts_t1, cfg), cfg.schedule, CLAMP)
    assert not params.any()
    assert schedule == cfg.schedule
