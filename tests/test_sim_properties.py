"""Property-based checks of the scene truth built from the positions
array: the offset rows equal a per-agent loop, and frame-rate
subsampling composes (stride a then stride b keeps the frames of
stride a * b)."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groundflow.core import GroundGrid  # noqa: E402
from groundflow.sim import SceneConfig, generate_scene, subsample_fps  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 4), b=st.integers(1, 4), num_frames=st.integers(1, 13),
       seed=st.integers(0, 2**16))
def test_subsampling_composes(a, b, num_frames, seed):
    truth = generate_scene(SceneConfig(GroundGrid(16, 16), num_agents=4,
                                       num_frames=num_frames, seed=seed))
    twice = subsample_fps(subsample_fps(truth, a), b)
    once = subsample_fps(truth, a * b)
    assert twice.config == once.config
    np.testing.assert_array_equal(twice.positions, once.positions)
    assert twice.trajectories == once.trajectories
    assert twice.gt_points == once.gt_points
    assert twice.gt_cells == once.gt_cells
    assert len(twice.gt_heatmaps) == len(once.gt_heatmaps) == once.num_frames
    for x, y in zip(twice.gt_heatmaps, once.gt_heatmaps):
        np.testing.assert_array_equal(x.values, y.values)
    assert len(twice.gt_offsets) == len(once.gt_offsets) == once.num_frames - 1
    for x, y in zip(twice.gt_offsets, once.gt_offsets):
        np.testing.assert_array_equal(x.dx, y.dx)
        np.testing.assert_array_equal(x.dy, y.dy)


def _reference_cells(positions):
    """Per pair, the half-up rounded cell of each agent that first claims
    it, with the agent's position difference to the next frame."""
    pairs = []
    for f in range(positions.shape[1] - 1):
        taken, rows = set(), []
        for a in range(positions.shape[0]):
            x, y = positions[a, f]
            cell = (math.floor(x + 0.5), math.floor(y + 0.5))
            if cell not in taken:
                taken.add(cell)
                rows.append((*cell, positions[a, f + 1, 0] - x, positions[a, f + 1, 1] - y))
        pairs.append(tuple(rows))
    return tuple(pairs)


@settings(max_examples=25, deadline=None)
@given(num_agents=st.integers(1, 24), num_frames=st.integers(1, 8),
       stride=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_cells_equal_the_per_agent_loop(num_agents, num_frames, stride, seed):
    # a 12 x 12 grid makes agents share cells, so first-claim-wins is exercised
    truth = subsample_fps(generate_scene(SceneConfig(
        GroundGrid(12, 12), num_agents=num_agents, num_frames=num_frames, seed=seed)), stride)
    want = _reference_cells(truth.positions)
    assert truth.gt_cells == want
    assert [type(v) for rows in truth.gt_cells for row in rows for v in row] == \
        [type(v) for rows in want for row in rows for v in row]
