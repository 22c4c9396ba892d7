"""Property-based checks of the vectorized graph build against the
per-arc definition of the transition cost."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groundflow.core import Detection, GroundGrid, OffsetField  # noqa: E402
from groundflow.track import EdgeCostParams, build_graph, edge_cost, sample_offset  # noqa: E402

SIZE = 12


def _reference_arcs(dets, bwd_fields, p: EdgeCostParams):
    """The arcs of time-sorted detections one pair at a time: every (i, j)
    with i < j and a gap in 1..max_gap, in (i, j) order, with its cost."""
    deltas = []
    for d in dets:
        fld = None
        if bwd_fields is not None and d.time >= 1 and d.time - 1 < len(bwd_fields):
            fld = bwd_fields[d.time - 1]
        deltas.append(sample_offset(fld, d.x, d.y))
    arcs, costs = [], []
    for i, a in enumerate(dets):
        for j in range(i + 1, len(dets)):
            b = dets[j]
            if 1 <= b.time - a.time <= p.max_gap:
                arcs.append((i, j))
                costs.append(edge_cost((a.x, a.y), (b.x, b.y), a.time, b.time, deltas[j], p))
    return arcs, costs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    per_frame=st.lists(st.integers(0, 4), min_size=0, max_size=9),
    max_gap=st.integers(1, 4),
    per_frame_input=st.booleans(),
    with_fields=st.booleans(),
    num_fields=st.integers(0, 10),
)
def test_arcs_match_the_pairwise_definition(seed, per_frame, max_gap, per_frame_input,
                                            with_fields, num_fields):
    # per_frame[t] detections at frame t: zeros make empty frames and gaps
    # longer than max_gap; fields may cover fewer frames than the scene
    rng = np.random.default_rng(seed)
    frames = [[Detection(t, float(rng.uniform(-2, SIZE + 2)), float(rng.uniform(-2, SIZE + 2)),
                         float(rng.uniform(0.1, 1.0))) for _ in range(k)]
              for t, k in enumerate(per_frame)]
    grid = GroundGrid(SIZE, SIZE)
    fields = None
    if with_fields:
        fields = [OffsetField(grid, rng.normal(0, 3, (SIZE, SIZE)), rng.normal(0, 3, (SIZE, SIZE)))
                  for _ in range(num_fields)]
    p = EdgeCostParams(sigma_t=float(rng.uniform(0, 1)), sigma_d=float(rng.uniform(0, 0.3)),
                       sigma_m=float(rng.uniform(0, 0.3)), max_gap=max_gap)
    # a flat list comes in reverse time order; the build sorts it stably
    dets = frames if per_frame_input else [d for frame in frames for d in frame][::-1]
    g = build_graph(dets, fields, p)
    flat = [d for frame in dets for d in frame] if per_frame_input else dets
    assert list(g.detections) == sorted(flat, key=lambda d: d.time)
    arcs, costs = _reference_arcs(list(g.detections), fields, p)
    assert g.heads.dtype == np.int64 and g.tails.dtype == np.int64
    assert list(zip(g.heads.tolist(), g.tails.tolist())) == arcs
    assert len(g.trans) == len(arcs)
    if arcs:
        np.testing.assert_allclose(g.trans, costs, rtol=1e-12, atol=0)
