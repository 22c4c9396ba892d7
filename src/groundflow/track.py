"""Data association: motion-aware min-cost-flow tracking plus online
baselines (greedy nearest, Hungarian bipartite, and two-stage
ground-plane-IoU association with Kalman or learned motion).

Every association is one call on a cost matrix. The online matchers
(`associate_nearest`, `associate_hungarian`) take an (n, m) matrix whose
rows are the earlier frame's detections or tracks and whose columns are
the later frame's detections; their callers state the cost: ground-plane
distance for the chaining baselines, 1 - IoU for the two-stage tracker.
`metrics.clear_mot` scores with `associate_hungarian` too. Both trackers
read a fitted field with one `losses.bilinear_sampler` per frame.

Every assignment in the package has one sparse solver, scipy's LAPJVsp
(`min_weight_full_bipartite_matching`), called by `_cheapest_assignment`
on CSR arrays that it shifts positive. The flow tracker's path cover and
`associate_hungarian` both pose it with one exit column per row: a
track's end in the one, an unmatched row at `_FORBIDDEN` in the other.
`associate_hungarian` needs it only when two rows' least allowed pairs
share a column and two columns' share a row, and even then it takes the
pairs alone in their row and column without it.

The flow tracker charges every track one entry and one exit cost, kept
only in the graph's `EdgeCostParams`, and every detection an observation
cost (negative; it rewards confident detections). It joins detections
up to `max_gap` frames apart, and within reach (`gate_cells` cells per
frame of gap; off by default), by motion-aware transition costs. Every
arc cost is negative, so without the gate any link within `max_gap`,
however far, beats paying exit + entry. In this time-ordered graph a
set of vertex-disjoint tracks is a bipartite matching of detections as
predecessors to detections as successors (the path-cover view of
network-flow tracking), so the global minimum over any number of tracks
is one sparse assignment, solved by scipy's LAPJVsp
(`min_weight_full_bipartite_matching`).

The transition arcs are three parallel arrays (heads, tails, costs) in
lexicographic (head, tail) order over the time-sorted detections, built
one numpy block per source frame; only the arcs within reach are
stored. The solver writes its CSR matrix row by row in that order, with
no triplet copy. Among equal-cost optima the result is whichever one
LAPJVsp returns for that matrix: deterministic, but not necessarily
the optimum a successive-shortest-paths solver would pick.

The two-stage tracker (`run_two_stage`, after ByteTrack) holds its live
tracks as rows of parallel arrays, so each frame's motion step, IoU
matching and Kalman update are a few array operations: the filter
steps act on the whole (T, 4) mean and (T, 4, 4) covariance stacks,
always by one frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .core import Detection, Trajectory
from .errors import InstanceTooLarge
from .losses import bilinear_sampler


@dataclass(frozen=True)
class EdgeCostParams:
    sigma_t: float = 0.5
    sigma_d: float = 0.15
    sigma_m: float = 0.15
    max_gap: int = 3
    entry_cost: float = 0.2
    exit_cost: float = 0.2
    obs_cost_scale: float = 1.0
    gate_cells: float = math.inf   # reach per tracked frame of gap; inf: no gate

    def __post_init__(self):
        if self.max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        for name in ("sigma_t", "sigma_d", "sigma_m", "entry_cost", "exit_cost"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative")
        for name in ("obs_cost_scale", "gate_cells"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive")


@dataclass
class TrackingGraph:
    """Detections with their observation costs and transition arcs.

    Detection i costs obs[i]; every track also pays params.entry_cost
    and params.exit_cost once. Arc k joins detection heads[k] to the
    later detection tails[k] at cost trans[k]; the arcs are sorted by
    (head, tail) and unique, so len(trans) is the arc count.
    """

    detections: tuple
    obs: np.ndarray
    heads: np.ndarray    # int64
    tails: np.ndarray    # int64, time of tails[k] > time of heads[k]
    trans: np.ndarray    # float64 transition costs
    params: EdgeCostParams


def _flatten(detections) -> list[Detection]:
    if detections and isinstance(detections[0], (list, tuple)):
        flat = [d for frame in detections for d in frame]
    else:
        flat = list(detections)
    return sorted(flat, key=lambda d: d.time)  # stable: input order within a frame


def build_graph(detections, bwd_fields, p: EdgeCostParams) -> TrackingGraph:
    """Build the tracking graph over detections.

    `detections` is a flat list or per-frame lists; `bwd_fields` maps
    pair index k (frames k -> k+1) to the fitted backward field, or is
    None for motion-free costs. Observation arcs cost
    -obs_cost_scale * confidence.

    Detection i at frame t_i is joined to a later detection j when the
    gap t_j - t_i is in 1..max_gap and j lies within reach: the distance
    d(i, j) is at most gate_cells * gap. The arc costs

        -exp(-sigma_t (gap - 1)) exp(-sigma_d d(i, j)) exp(-sigma_m dm),

    where dm is the distance from i to j displaced backward by gap times
    the backward offset sampled at j (zero without a field). Each source
    frame is costed against the detections 1..max_gap frames later in
    one broadcast, and the pairs within reach are taken from it in
    row-major order, so each kept arc has the bits it has with the gate
    off. `pipeline.stride_gated` sets the reach the CLI uses.
    """
    dets = _flatten(detections)
    n = len(dets)
    obs = np.array([-p.obs_cost_scale * d.confidence for d in dets])
    times = np.array([d.time for d in dets], dtype=np.int64)
    xs = np.array([d.x for d in dets], dtype=np.float64)
    ys = np.array([d.y for d in dets], dtype=np.float64)
    # frame f holds detections bounds[f]:bounds[f + 1]
    bounds = np.append(np.flatnonzero(np.diff(times, prepend=times[:1] - 1)), n)
    # backward offset sampled once per detection (at its own position)
    bx = np.zeros(n)
    by = np.zeros(n)
    if bwd_fields is not None:
        for s, e in zip(bounds[:-1], bounds[1:]):
            t = int(times[s])
            if t >= 1 and t - 1 < len(bwd_fields):
                fld = bwd_fields[t - 1]
                read = bilinear_sampler(fld.dx.shape, xs[s:e], ys[s:e])
                bx[s:e] = read(fld.dx)
                by[s:e] = read(fld.dy)
    # no gap exceeds the stream's span, so a larger max_gap reaches no further
    reach = min(p.max_gap, int(times[-1] - times[0]) if n else 0)
    time_factor = np.array([math.exp(-p.sigma_t * (gap - 1)) for gap in range(reach + 1)])
    heads = [np.zeros(0, np.int64)]
    tails = [np.zeros(0, np.int64)]
    trans = [np.zeros(0)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        # targets: the later frames up to max_gap ahead, which start at e
        hi = np.searchsorted(times, times[s] + reach, side="right")
        gap = times[e:hi] - times[s]
        ix = xs[s:e, None]
        iy = ys[s:e, None]
        d = np.hypot(ix - xs[e:hi], iy - ys[e:hi])
        dm = np.hypot(ix - (xs[e:hi] + gap * bx[e:hi]), iy - (ys[e:hi] + gap * by[e:hi]))
        cost = -(time_factor[gap] * np.exp(-p.sigma_d * d) * np.exp(-p.sigma_m * dm))
        keep = d <= p.gate_cells * gap   # masks read row-major: (head, tail) order
        heads.append(np.repeat(np.arange(s, e, dtype=np.int64), np.count_nonzero(keep, axis=1)))
        tails.append(np.broadcast_to(np.arange(e, hi, dtype=np.int64), keep.shape)[keep])
        trans.append(cost[keep])
    return TrackingGraph(tuple(dets), obs, _drain(heads), _drain(tails), _drain(trans), p)


def _drain(blocks: list) -> np.ndarray:
    """Concatenate the blocks and let them go, so that only one of the
    graph's arrays is ever held twice."""
    out = np.concatenate(blocks)
    blocks.clear()
    return out


def cover_cost(g: TrackingGraph, tracks: list[list[int]]) -> float:
    """Canonical total cost of a set of index tracks (fixed summation order).

    Raises KeyError if a link of a track is not an arc of the graph.
    """
    n = len(g.detections)
    want = np.array([a * n + b for track in tracks for a, b in zip(track, track[1:])],
                    dtype=np.int64)
    keys = g.heads * n  # ascending with the tails added: arcs are in (head, tail) order
    keys += g.tails
    pos = np.searchsorted(keys, want)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == want[found]
    if not found.all():
        a, b = divmod(int(want[~found][0]), n)
        raise KeyError((a, b))
    link = iter(g.trans[pos].tolist())
    total = 0.0
    for track in tracks:
        total += g.params.entry_cost
        total += g.obs[track[0]]
        for b in track[1:]:
            total += next(link)
            total += g.obs[b]
        total += g.params.exit_cost
    return float(total)


def _tracks_to_trajectories(g: TrackingGraph, tracks: list[list[int]]) -> list[Trajectory]:
    tracks = sorted(tracks, key=lambda tr: (g.detections[tr[0]].time, tr[0]))
    out = []
    for tid, track in enumerate(tracks):
        pts = tuple((g.detections[i].time, g.detections[i].x, g.detections[i].y)
                    for i in track)
        out.append(Trajectory(tid, pts))
    return out


def _assignment_arrays(g: TrackingGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The path-cover assignment of `solve_ssp_detailed` as the CSR arrays
    (data, indices, indptr) of an (n, 2n) matrix, before the shift.

    Row i's entries are written straight into the CSR arrays in column
    order: i (unused), the tails of i's arcs (all later, so > i and < n),
    n + i (exit). The arrays are the ones scipy builds from (row,
    column, weight) triplets, without the triplets.
    """
    n = len(g.detections)
    ar = np.arange(n)
    indptr = np.zeros(n + 1, dtype=np.int32)   # LAPJVsp takes int32 indices
    np.cumsum(np.bincount(g.heads, minlength=n) + 2, out=indptr[1:])
    first, last = indptr[:-1], indptr[1:] - 1
    is_arc = np.ones(indptr[-1], dtype=bool)
    is_arc[first] = is_arc[last] = False
    entry, exit_ = g.params.entry_cost, g.params.exit_cost
    link = g.trans - exit_
    link -= entry
    data = np.empty(indptr[-1])
    data[is_arc] = link
    del link
    data[first] = -(entry + g.obs + exit_)
    data[last] = 0.0
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[is_arc] = g.tails
    indices[first] = ar
    indices[last] = n + ar
    return data, indices, indptr


def _cheapest_assignment(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                         width: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the cheapest matching that matches every row of
    the CSR matrix (data, indices, indptr) with `width` columns, by
    LAPJVsp (scipy's `min_weight_full_bipartite_matching`). Every row is
    matched once, so one constant shift that makes all weights positive
    leaves the optimum unchanged; `data` is shifted in place."""
    data += 1.0 - data.min()
    return min_weight_full_bipartite_matching(
        csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, width)))


def solve_ssp_detailed(g: TrackingGraph) -> tuple[list[list[int]], float]:
    """Minimum-cost path cover; returns (index tracks, canonical cost).

    Rows are detections as predecessors. Column j < n is detection j as
    a successor and column n + i is row i's exit. Counting every
    detection first as a one-point track (entry + obs + exit), a link
    i -> j changes the cost by (trans - exit) - entry, and row i on its
    own column leaves detection i unused (-(entry + obs + exit)). Every
    row is matched once, and LAPJVsp solves the sparse assignment by
    shortest augmenting paths.
    """
    n = len(g.detections)
    if n == 0:
        return [], 0.0
    rows, cols = _cheapest_assignment(*_assignment_arrays(g), 2 * n)
    succ = np.empty(n, dtype=np.int64)
    succ[rows] = cols
    # a detection whose column no row took (its own row would mean
    # unused) has no predecessor and starts a track
    taken = np.zeros(n, dtype=bool)
    taken[cols[cols < n]] = True
    tracks = []
    for start in np.flatnonzero(~taken):
        track = [int(start)]
        while succ[track[-1]] < n:
            track.append(int(succ[track[-1]]))
        tracks.append(track)
    return tracks, cover_cost(g, tracks)


def solve_ssp(g: TrackingGraph) -> list[Trajectory]:
    """Min-cost-flow tracking; returns vertex-disjoint trajectories."""
    tracks, _ = solve_ssp_detailed(g)
    return _tracks_to_trajectories(g, tracks)


def brute_force_detailed(g: TrackingGraph) -> tuple[list[list[int]], float]:
    """Exhaustive optimum over all vertex-disjoint path covers (n <= 10)."""
    n = len(g.detections)
    if n > 10:
        raise InstanceTooLarge(f"brute force limited to 10 detections, got {n}")
    if n == 0:
        return [], 0.0
    entry, exit_, obs = g.params.entry_cost, g.params.exit_cost, g.obs
    trans = dict(zip(zip(g.heads.tolist(), g.tails.tolist()), g.trans.tolist()))
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(k: int, tails: frozenset) -> float:
        if k == n:
            return float(sum(exit_ for _ in tails))
        b = best(k + 1, tails)  # leave detection k unused
        b = min(b, float(entry + obs[k]) + best(k + 1, tails | {k}))
        for t in sorted(tails):
            if (t, k) in trans:
                b = min(b, float(trans[(t, k)] + obs[k]) + best(k + 1, (tails - {t}) | {k}))
        return b

    # replay the decisions to recover one optimal cover
    tracks: list[list[int]] = []
    tail_to_track: dict[int, int] = {}
    tails: frozenset = frozenset()
    for k in range(n):
        target = best(k, tails)
        if target == best(k + 1, tails):
            continue
        if target == float(entry + obs[k]) + best(k + 1, tails | {k}):
            tail_to_track[k] = len(tracks)
            tracks.append([k])
            tails = tails | {k}
            continue
        for t in sorted(tails):
            if (t, k) in trans and target == float(trans[(t, k)] + obs[k]) + best(k + 1, (tails - {t}) | {k}):
                idx = tail_to_track.pop(t)
                tracks[idx].append(k)
                tail_to_track[k] = idx
                tails = (tails - {t}) | {k}
                break
        else:  # numeric fall-through: treat as skip
            continue
    return tracks, cover_cost(g, tracks)


def associate_nearest(cost: np.ndarray, max_dist: float) -> list[tuple[int, int]]:
    """Greedy nearest-target mapping on an (n, m) cost matrix: row i takes
    the first column of least cost, if that cost is <= max_dist. Many rows
    may take one column."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    best = cost.argmin(axis=1)
    rows = np.flatnonzero(cost[np.arange(len(cost)), best] <= max_dist)
    return list(zip(rows.tolist(), best[rows].tolist()))


# the weight of an unmatched row's exit in `associate_hungarian`: while the
# rows times the span of their costs stay far below it, one more matched
# row always lowers the total, so the solver matches as many as it can
_FORBIDDEN = 1e9


def associate_hungarian(cost: np.ndarray, cutoff: float = math.inf) -> list[tuple[int, int]]:
    """The cheapest of the largest one-to-one matchings on an (n, m) cost
    matrix, among the pairs costing at most `cutoff`; a +inf cost is a
    forbidden pair. Returns (row, column) pairs in row order. Raises
    ValueError for a NaN or -inf cost or a NaN cutoff.

    Most calls need no solver. If the rows' least allowed pairs fall in
    different columns, those pairs are the answer: they match every row
    that has an allowed pair, each at the least it can cost. The same
    holds column by column. A pair alone in its row and its column is
    the least of both, so a call whose allowed pairs are all like that
    takes this path. Otherwise the lone pairs are taken as they are,
    since every largest matching holds them, and the other rows go to
    one LAPJVsp call, posed as the flow tracker poses its path cover:
    each row's allowed columns, plus the row's own exit column at
    `_FORBIDDEN`, so the solver leaves as few rows unmatched as it can
    and, among those matchings, takes the cheapest.
    """
    cost = np.asarray(cost, dtype=np.float64)
    # a NaN fails every comparison, so this catches NaN and -inf costs alike
    if math.isnan(cutoff) or not (cost > -math.inf).all():
        raise ValueError("costs must be finite or +inf and cutoff must not be NaN")
    if cost.size == 0:
        return []
    allowed = (cost <= cutoff) & (cost < math.inf)
    least = np.where(allowed, cost, math.inf)
    by_row = least.argmin(axis=1)   # each row's least allowed pair, if it has one
    rows = np.flatnonzero(allowed.any(axis=1))
    pairs = list(zip(rows.tolist(), by_row[rows].tolist()))
    if len({j for _, j in pairs}) == len(pairs):
        return pairs
    by_col = least.argmin(axis=0)   # each column's least allowed pair, if it has one
    cols = np.flatnonzero(allowed.any(axis=0))
    pairs = sorted(zip(by_col[cols].tolist(), cols.tolist()))
    if len({i for i, _ in pairs}) == len(pairs):
        return pairs
    per_row = allowed.sum(axis=1)
    lone = (per_row == 1) & (allowed.sum(axis=0)[by_row] == 1)
    match = np.where(lone, by_row, -1)   # row -> column, -1 unmatched
    rest = np.flatnonzero(per_row > lone)   # the rows with an allowed pair, none lone
    rest_cols = np.flatnonzero(allowed[rest].any(axis=0))
    block = least[rest][:, rest_cols]
    k, m = block.shape
    edges = np.hstack([block < math.inf, np.eye(k, dtype=bool)])
    weights = np.hstack([block, np.full((k, k), _FORBIDDEN)])
    indptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(per_row[rest] + 1, out=indptr[1:])
    r, c = _cheapest_assignment(weights[edges], np.nonzero(edges)[1].astype(np.int32),
                                indptr, m + k)
    hit = c < m   # the other rows took their exits
    match[rest[r[hit]]] = rest_cols[c[hit]]
    rows = np.flatnonzero(match >= 0)
    return list(zip(rows.tolist(), match[rows].tolist()))


# constant-velocity filter noise and the covariance of a new track's filter
PROCESS_NOISE = 0.01
MEAS_NOISE = 0.25
INIT_POS_VAR = 1.0
INIT_VEL_VAR = 10.0
_INIT_COV = np.diag([INIT_POS_VAR, INIT_POS_VAR, INIT_VEL_VAR, INIT_VEL_VAR])
# one frame of constant-velocity motion, and the position measurement
_F = np.eye(4)
_F[0, 2] = _F[1, 3] = 1.0
_H = np.eye(2, 4)


def _swap(m: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return m.swapaxes(-1, -2)


def kalman_predict_batch(means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict every row of (T, 4) means (x, y, vx, vy) and (T, 4, 4)
    covariances one frame on; the covariances are re-symmetrized."""
    mean = (_F @ means[:, :, None])[:, :, 0]
    cov = _F @ covs @ _F.T + PROCESS_NOISE * np.eye(4)
    cov = 0.5 * (cov + _swap(cov))
    return mean, cov


def kalman_update_batch(means: np.ndarray, covs: np.ndarray,
                        zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Update every row of (T, 4) means and (T, 4, 4) covariances by the
    (T, 2) measured positions zs; the covariances are re-symmetrized."""
    S = _H @ covs @ _H.T + MEAS_NOISE * np.eye(2)
    K = _swap(np.linalg.solve(_swap(S), _swap(covs @ _H.T)))
    mean = means + (K @ (zs - (_H @ means[:, :, None])[:, :, 0])[:, :, None])[:, :, 0]
    cov = (np.eye(4) - K @ _H) @ covs
    cov = 0.5 * (cov + _swap(cov))
    return mean, cov


@dataclass(frozen=True)
class TwoStageConfig:
    box_side: float = 5.0
    iou_threshold: float = 0.1
    max_age: int = 3

    def __post_init__(self):
        if not self.box_side > 0:
            raise ValueError("box_side must be positive")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in [0, 1]")
        if self.max_age < 0:
            raise ValueError("max_age must be >= 0")


def _square_iou_cost(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """1 - IoU of side-length squares centred at rows of a (k, 2) and b
    (m, 2), as a (k, m) matrix; squares of side 0 have IoU 0."""
    ix = np.maximum(0.0, side - np.abs(a[:, None, 0] - b[None, :, 0]))
    iy = np.maximum(0.0, side - np.abs(a[:, None, 1] - b[None, :, 1]))
    inter = ix * iy
    union = 2.0 * side * side - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return 1.0 - iou


MOTION_SOURCES = ("kalman", "learned-offset")


def run_two_stage(frames: list[list[Detection]], motion_source: str,
                  fwd_fields=None, conf_split: float = 0.5,
                  cfg: TwoStageConfig = TwoStageConfig()) -> list[Trajectory]:
    """Two-stage ground-plane IoU tracking over a detection sequence
    (frame t holds the detections of time t).

    The live tracks are rows of parallel arrays in birth order: track
    id, time of the last detection, misses since, the last detection's
    position and, with Kalman motion, the filter means (T, 4) and
    covariances (T, 4, 4). Each frame extrapolates every head to t:
    Kalman motion predicts every row's kept state one frame on, by one
    `kalman_predict_batch`; learned offsets move the last detection by
    the forward field of pair t - 1 sampled there, times the frames
    since; with no field the heads stay put. Stage 1 matches the
    high-confidence detections (conf >= conf_split) to the heads by the
    Hungarian method on 1 - IoU of box_side squares; stage 2 offers the
    unmatched rows the low-confidence ones. One `kalman_update_batch`
    measures the matched rows, rows missed more than max_age frames in
    a row are dropped, and every unmatched high-confidence detection
    starts a track. Returns every track ever started, by id.
    """
    if motion_source not in MOTION_SOURCES:
        raise ValueError(f"motion_source must be one of {MOTION_SOURCES}")
    kalman = motion_source == "kalman"
    points: list[list[tuple]] = []
    ids = np.zeros(0, np.int64)
    last = np.zeros(0, np.int64)
    misses = np.zeros(0, np.int64)
    heads = np.zeros((0, 2))
    means, covs = np.zeros((0, 4)), np.zeros((0, 4, 4))
    for t, dets in enumerate(frames):
        pred = heads
        if kalman:
            means, covs = kalman_predict_batch(means, covs)
            pred = means[:, :2]
        elif fwd_fields is not None and 1 <= t <= len(fwd_fields):
            fld = fwd_fields[t - 1]
            gaps = t - last
            xs, ys = heads[:, 0], heads[:, 1]
            read = bilinear_sampler(fld.dx.shape, xs, ys)
            pred = np.column_stack([xs + gaps * read(fld.dx), ys + gaps * read(fld.dy)])

        xy = np.array([(d.x, d.y) for d in dets], dtype=np.float64).reshape(-1, 2)
        times = np.array([d.time for d in dets], dtype=np.int64)
        high = np.array([d.confidence >= conf_split for d in dets], dtype=bool)
        unmatched = high.copy()   # the detections that start a track
        match = np.full(len(ids), -1)   # row -> index of its detection in dets
        for cand in (np.flatnonzero(high), np.flatnonzero(~high)):
            rows = np.flatnonzero(match < 0)
            if len(rows) and len(cand):
                cost = _square_iou_cost(pred[rows], xy[cand], cfg.box_side)
                pairs = associate_hungarian(cost, 1.0 - cfg.iou_threshold)
                a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
                match[rows[a]] = cand[b]

        hit = np.flatnonzero(match >= 0)
        k = match[hit]
        unmatched[k] = False
        for r, d in zip(ids[hit].tolist(), k.tolist()):
            points[r].append((dets[d].time, dets[d].x, dets[d].y))
        last[hit] = times[k]
        heads[hit] = xy[k]
        misses = np.where(match >= 0, 0, misses + 1)
        if kalman:
            means[hit], covs[hit] = kalman_update_batch(means[hit], covs[hit], xy[k])

        keep = misses <= cfg.max_age
        born = np.flatnonzero(unmatched)
        ids = np.concatenate([ids[keep], np.arange(len(points), len(points) + len(born))])
        points += [[(dets[d].time, dets[d].x, dets[d].y)] for d in born.tolist()]
        last = np.concatenate([last[keep], times[born]])
        misses = np.concatenate([misses[keep], np.zeros(len(born), np.int64)])
        heads = np.concatenate([heads[keep], xy[born]])
        if kalman:
            means = np.concatenate([means[keep], np.pad(xy[born], ((0, 0), (0, 2)))])
            covs = np.concatenate([covs[keep], np.broadcast_to(_INIT_COV, (len(born), 4, 4))])
    return [Trajectory(tid, tuple(pts)) for tid, pts in enumerate(points)]
