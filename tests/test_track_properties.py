"""Property-based checks of the vectorized graph build against the
per-arc definition of the transition cost and the reach gate, of the
solver's assignment matrix against scipy's triplet build, of the
matrix matchers against entry-by-entry, exhaustive and dense-solver
references, of the batched Kalman steps against the steps of one filter
state, and of the two-stage trackers' high-confidence set against the
noise split."""
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from groundflow import track  # noqa: E402
from groundflow.core import Detection, GroundGrid, OffsetField  # noqa: E402
from groundflow.pipeline import filter_noise_detections, track_detections  # noqa: E402
from groundflow.track import (  # noqa: E402
    EdgeCostParams,
    associate_hungarian,
    associate_nearest,
    brute_force_detailed,
    build_graph,
    kalman_predict_batch,
    kalman_update_batch,
    solve_ssp_detailed,
)
from oracles import (  # noqa: E402
    edge_cost,
    kalman_predict,
    kalman_update,
    nearest_matches,
    sample_offset,
)

SIZE = 12
# reach per frame of gap: off, or short enough to cut arcs in a SIZE scene
gate_cells = st.one_of(st.just(math.inf), st.floats(0.25, 2 * SIZE))


def _reference_arcs(dets, bwd_fields, p: EdgeCostParams):
    """The arcs of time-sorted detections one pair at a time: every (i, j)
    with i < j, a gap in 1..max_gap and a distance within gate_cells * gap,
    in (i, j) order, with its cost."""
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
            gap = b.time - a.time
            if 1 <= gap <= p.max_gap and math.hypot(a.x - b.x, a.y - b.y) <= p.gate_cells * gap:
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
    gate=gate_cells,
)
def test_arcs_match_the_pairwise_definition(seed, per_frame, max_gap, per_frame_input,
                                            with_fields, num_fields, gate):
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
                       sigma_m=float(rng.uniform(0, 0.3)), max_gap=max_gap, gate_cells=gate)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    per_frame=st.lists(st.integers(0, 12), min_size=0, max_size=9),
    max_gap=st.integers(1, 4),
    with_fields=st.booleans(),
    gate=gate_cells,
)
def test_gated_arcs_are_the_ungated_arcs_within_reach(seed, per_frame, max_gap, with_fields,
                                                      gate):
    # the gate only drops arcs: the rest keep their order and their bits
    rng = np.random.default_rng(seed)
    frames = [[Detection(t, float(rng.uniform(-2, SIZE + 2)), float(rng.uniform(-2, SIZE + 2)),
                         float(rng.uniform(0.1, 1.0))) for _ in range(k)]
              for t, k in enumerate(per_frame)]
    grid = GroundGrid(SIZE, SIZE)
    fields = None
    if with_fields:
        fields = [OffsetField(grid, rng.normal(0, 3, (SIZE, SIZE)), rng.normal(0, 3, (SIZE, SIZE)))
                  for _ in range(len(frames))]
    p = EdgeCostParams(sigma_t=float(rng.uniform(0, 1)), sigma_d=float(rng.uniform(0, 0.3)),
                       sigma_m=float(rng.uniform(0, 0.3)), max_gap=max_gap, gate_cells=gate)
    g = build_graph(frames, fields, p)
    full = build_graph(frames, fields, replace(p, gate_cells=math.inf))
    xy = np.array([(d.x, d.y) for d in full.detections]).reshape(-1, 2)
    t = np.array([d.time for d in full.detections], dtype=np.int64)
    dist = np.hypot(*(xy[full.heads] - xy[full.tails]).T)
    keep = dist <= gate * (t[full.tails] - t[full.heads])
    assert _same_bits(g.heads, full.heads[keep])
    assert _same_bits(g.tails, full.tails[keep])
    assert _same_bits(g.trans, full.trans[keep])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    per_frame=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    max_gap=st.integers(1, 4),
    lattice=st.booleans(),
    gate=gate_cells,
)
def test_solver_cost_equals_brute_force(seed, per_frame, max_gap, lattice, gate):
    # up to 10 detections; integer positions on a lattice give tied optima
    rng = np.random.default_rng(seed)
    dets = []
    for t, k in enumerate(per_frame):
        for _ in range(k):
            x, y = rng.uniform(0, SIZE, 2)
            if lattice:
                x, y = np.rint(x / 3), np.rint(y / 3)
            dets.append(Detection(t, float(x), float(y), float(rng.uniform(0.2, 1.0))))
    dets = dets[:10]
    p = EdgeCostParams(sigma_t=float(rng.uniform(0, 1)), sigma_d=float(rng.uniform(0.05, 0.4)),
                       sigma_m=float(rng.uniform(0, 0.4)), max_gap=max_gap,
                       entry_cost=float(rng.uniform(0, 0.6)), exit_cost=float(rng.uniform(0, 0.6)),
                       gate_cells=gate)
    g = build_graph(dets, None, p)
    _, cost = solve_ssp_detailed(g)
    _, optimum = brute_force_detailed(g)
    assert abs(cost - optimum) <= 1e-9


def _triplet_matrix(g):
    """The solver's assignment matrix from (row, column, weight) triplets,
    which scipy sorts into column order within each row."""
    n = len(g.detections)
    ar = np.arange(n)
    entry, exit_ = g.params.entry_cost, g.params.exit_cost
    wts = np.concatenate([g.trans - exit_ - entry, -(entry + g.obs + exit_), np.zeros(n)])
    return coo_matrix((wts + (1.0 - wts.min()),
                       (np.concatenate([g.heads, ar, ar]), np.concatenate([g.tails, ar, n + ar]))),
                      shape=(n, 2 * n)).tocsr()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    per_frame=st.lists(st.integers(0, 12), min_size=1, max_size=9),
    max_gap=st.integers(1, 4),
    gate=gate_cells,
)
def test_solver_matrix_is_the_triplet_matrix(seed, per_frame, max_gap, gate):
    # the CSR arrays the solver writes row by row are the ones scipy builds
    # from triplets, bit for bit, so LAPJVsp picks the same optimum
    rng = np.random.default_rng(seed)
    dets = [Detection(t, float(rng.uniform(0, SIZE)), float(rng.uniform(0, SIZE)),
                      float(rng.uniform(0.1, 1.0))) for t, k in enumerate(per_frame) for _ in range(k)]
    p = EdgeCostParams(max_gap=max_gap, entry_cost=float(rng.uniform(0, 2)),
                       exit_cost=float(rng.uniform(0, 2)), gate_cells=gate)
    g = build_graph(dets, None, p)
    seen = []
    real = track.min_weight_full_bipartite_matching
    with mock.patch.object(track, "min_weight_full_bipartite_matching",
                           lambda m: seen.append(m) or real(m)):
        solve_ssp_detailed(g)
    if not dets:
        assert not seen
        return
    got, want = seen[0], _triplet_matrix(g)
    assert got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert _same_bits(a, b)


@st.composite
def matrices(draw, elements, max_side: int) -> np.ndarray:
    """An (n, m) float matrix, n and m in 0..max_side, each entry drawn alone."""
    n, m = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    return np.array([[draw(elements) for _ in range(m)] for _ in range(n)]).reshape(n, m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cost=matrices(st.sampled_from([0.0, 1.0, 2.0, 3.0]), 6),
       max_dist=st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]))
def test_nearest_is_the_first_minimum_within_reach(cost, max_dist):
    # integer costs tie often, so the first-minimum rule is exercised
    assert associate_nearest(cost, max_dist) == nearest_matches(cost, max_dist)


def _brute_force_matching(cost, cutoff) -> tuple[int, float]:
    """(pairs, total cost) of the cheapest of the one-to-one matchings
    within the cutoff that have the most pairs, by enumeration."""
    n, m = cost.shape
    best = (0, 0.0)   # (-pairs, total): the empty matching
    for cols in itertools.product(range(-1, m), repeat=n):
        pairs = [(i, j) for i, j in enumerate(cols) if j >= 0]
        if len({j for _, j in pairs}) == len(pairs) and all(cost[p] <= cutoff for p in pairs):
            best = min(best, (-len(pairs), sum(cost[p] for p in pairs)))
    return -best[0], best[1]


# whole-number costs tie often, with each other and with the cutoff; a
# 0.1 lattice perturbed by 1e-12 to 1e-6 makes near ties
near_ties = st.builds(lambda k, eps, sign: k / 10 + sign * eps, st.integers(0, 10),
                      st.floats(1e-12, 1e-6), st.sampled_from([-1.0, 1.0]))
costs = st.one_of(st.sampled_from([float(k) for k in range(11)]), st.floats(0.0, 10.0),
                  near_ties)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cost=matrices(costs, 4), cutoff=st.one_of(st.just(math.inf), costs))
# a near tie that an exit weight far above the costs' scale resolves wrongly
@example(cost=np.array([[-1e-7, 0.1 - 1e-7], [0.1 - 1e-7, 0.1 - 1e-8], [0.0, 0.1 + 1e-8]]),
         cutoff=math.inf)
def test_hungarian_is_the_cheapest_largest_matching(cost, cutoff):
    pairs = associate_hungarian(cost, cutoff)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    assert all(cost[p] <= cutoff for p in pairs)
    count, total = _brute_force_matching(cost, cutoff)
    assert len(pairs) == count
    assert math.isclose(sum(cost[p] for p in pairs), total, abs_tol=1e-12)


def _big_m_matching(cost, cutoff) -> list[tuple[int, int]]:
    """The dense reference: scipy.optimize's Hungarian solver on the costs
    with every pair above the cutoff at 1e9, less the pairs above it."""
    rows, cols = linear_sum_assignment(np.where(cost > cutoff, 1e9, cost))
    keep = cost[rows, cols] <= cutoff
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 10), m=st.integers(0, 10),
       cutoff=st.one_of(st.just(math.inf), st.floats(-5.0, 5.0)))
def test_hungarian_takes_the_unique_optimum_of_the_dense_solver(seed, n, m, cutoff):
    # continuous costs make the cheapest largest matching unique, so the
    # matcher must return the very pairs of the dense reference
    cost = np.random.default_rng(seed).uniform(-5.0, 5.0, (n, m))
    assert associate_hungarian(cost, cutoff) == _big_m_matching(cost, cutoff)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(side=st.integers(0, 5), rows_empty=st.booleans())
def test_empty_matrices_match_nothing(side, rows_empty):
    cost = np.zeros((0, side) if rows_empty else (side, 0))
    assert associate_nearest(cost, 1.0) == []
    assert associate_hungarian(cost) == []


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 60))
def test_batched_kalman_steps_equal_the_scalar_ones(seed, size):
    # random SPD covariances of varied scale
    rng = np.random.default_rng(seed)
    a = rng.normal(0, rng.uniform(0.05, 10), (size, 4, 4))
    covs = a @ a.swapaxes(1, 2) + 1e-3 * np.eye(4)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    means = rng.normal(0, 50, (size, 4))
    zs = rng.normal(0, 50, (size, 2))
    pm, pc = kalman_predict_batch(means, covs)
    um, uc = kalman_update_batch(pm, pc, zs)
    assert pm.shape == (size, 4) and uc.shape == (size, 4, 4)
    for t in range(size):
        mean, cov = kalman_predict(means[t], covs[t])
        assert _same_bits(pm[t], mean) and _same_bits(pc[t], cov)
        mean, cov = kalman_update(mean, cov, zs[t])
        assert _same_bits(um[t], mean) and _same_bits(uc[t], cov)


# confidences on a coarse lattice tie often, with each other and with the split
confidence = st.one_of(st.sampled_from([k / 10 for k in range(11)]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=6), data=st.data())
def test_two_stage_high_set_is_the_kept_set(counts, data):
    # every detection sits 10 cells from any other, so none overlaps a
    # track's box and every high-confidence one starts a track
    frames, k = [], 0
    for t, n in enumerate(counts):
        frames.append([Detection(t, 10.0 * (k + i), 5.0, data.draw(confidence))
                       for i in range(n)])
        k += n
    kept = {(d.time, d.x, d.y) for dets in filter_noise_detections(frames) for d in dets}
    for mode in ("bytestyle-kalman", "bytestyle-offset"):
        starts = {tr.points[0] for tr in track_detections(frames, mode)}
        assert starts == kept, mode
