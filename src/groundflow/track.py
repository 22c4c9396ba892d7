"""Data association: motion-aware min-cost-flow tracking plus online
baselines (greedy nearest, Hungarian bipartite, constant-velocity
Kalman, and two-stage ground-plane-IoU association).

The flow tracker scores every detection with entry, observation and
exit costs (the observation cost is negative and rewards confident
detections) and joins detections up to `max_gap` frames apart by
motion-aware transition costs. In this time-ordered graph a set of
vertex-disjoint tracks is a bipartite matching of detections as
predecessors to detections as successors (the path-cover view of
network-flow tracking), so the global minimum over any number of
tracks is one sparse assignment, solved by scipy's LAPJVsp
(`min_weight_full_bipartite_matching`).

The transition arcs are three parallel arrays (heads, tails, costs) in
lexicographic (head, tail) order over the time-sorted detections, built
one numpy block per source frame. Among equal-cost optima the result is
whichever one LAPJVsp returns for the sparse matrix built in that
order: deterministic, but not necessarily the optimum a
successive-shortest-paths solver would pick.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .core import Detection, OffsetField, Trajectory
from .errors import InstanceTooLarge, NonSpdCovariance
from .losses import bilinear_sample


@dataclass(frozen=True)
class EdgeCostParams:
    sigma_t: float = 0.5
    sigma_d: float = 0.15
    sigma_m: float = 0.15
    max_gap: int = 3
    entry_cost: float = 0.2
    exit_cost: float = 0.2
    obs_cost_scale: float = 1.0

    def __post_init__(self):
        if self.max_gap < 1:
            raise ValueError("max_gap must be >= 1")
        for name in ("sigma_t", "sigma_d", "sigma_m", "entry_cost", "exit_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (self.obs_cost_scale > 0):
            raise ValueError("obs_cost_scale must be positive")


def sample_offset(field: OffsetField | None, x: float, y: float) -> tuple[float, float]:
    """Bilinear sample of an offset field at a continuous point (border-clamped)."""
    if field is None:
        return 0.0, 0.0
    px = np.array([x])
    py = np.array([y])
    return float(bilinear_sample(field.dx, px, py)[0]), float(bilinear_sample(field.dy, px, py)[0])


def edge_cost(i_pos, j_pos, t1: int, t2: int, delta_bwd_at_j, p: EdgeCostParams) -> float:
    """Transition cost between detections at t1 < t2.

    -exp(-sigma_t*(gap-1)) * exp(-sigma_d*d(i,j)) * W_m, where W_m
    discounts by the distance between i and j displaced backward by
    gap * delta (the sampled backward offset at j).
    """
    gap = t2 - t1
    if gap < 1 or gap > p.max_gap:
        raise ValueError(f"edge gap {gap} outside [1, {p.max_gap}]")
    d = math.hypot(i_pos[0] - j_pos[0], i_pos[1] - j_pos[1])
    bx, by = delta_bwd_at_j
    pred_x = j_pos[0] + gap * bx
    pred_y = j_pos[1] + gap * by
    dm = math.hypot(i_pos[0] - pred_x, i_pos[1] - pred_y)
    return -(math.exp(-p.sigma_t * (gap - 1)) * math.exp(-p.sigma_d * d)
             * math.exp(-p.sigma_m * dm))


@dataclass
class TrackingGraph:
    """Detections with their entry/observation/exit costs and
    transition arcs.

    Arc k joins detection heads[k] to the later detection tails[k] at
    cost trans[k]; the arcs are sorted by (head, tail) and unique, so
    len(trans) is the arc count.
    """

    detections: tuple
    entry: np.ndarray
    exit: np.ndarray
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
    -obs_cost_scale * confidence. Each source frame's detections are
    scored against every detection 1..max_gap frames later in one
    broadcast, with the arithmetic of `edge_cost`.
    """
    dets = _flatten(detections)
    n = len(dets)
    entry = np.full(n, p.entry_cost)
    exit_ = np.full(n, p.exit_cost)
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
                bx[s:e] = bilinear_sample(fld.dx, xs[s:e], ys[s:e])
                by[s:e] = bilinear_sample(fld.dy, xs[s:e], ys[s:e])
    time_factor = np.array([math.exp(-p.sigma_t * (gap - 1)) for gap in range(p.max_gap + 1)])
    heads = [np.zeros(0, np.int64)]
    tails = [np.zeros(0, np.int64)]
    trans = [np.zeros(0)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        # targets: the later frames up to max_gap ahead, which start at e
        hi = np.searchsorted(times, times[s] + p.max_gap, side="right")
        gap = times[e:hi] - times[s]
        ix = xs[s:e, None]
        iy = ys[s:e, None]
        d = np.hypot(ix - xs[e:hi], iy - ys[e:hi])
        dm = np.hypot(ix - (xs[e:hi] + gap * bx[e:hi]), iy - (ys[e:hi] + gap * by[e:hi]))
        cost = -(time_factor[gap] * np.exp(-p.sigma_d * d) * np.exp(-p.sigma_m * dm))
        heads.append(np.repeat(np.arange(s, e, dtype=np.int64), hi - e))
        tails.append(np.tile(np.arange(e, hi, dtype=np.int64), e - s))
        trans.append(cost.ravel())
    return TrackingGraph(tuple(dets), entry, exit_, obs, np.concatenate(heads),
                         np.concatenate(tails), np.concatenate(trans), p)


def cover_cost(g: TrackingGraph, tracks: list[list[int]]) -> float:
    """Canonical total cost of a set of index tracks (fixed summation order).

    Raises KeyError if a link of a track is not an arc of the graph.
    """
    n = len(g.detections)
    want = np.array([a * n + b for track in tracks for a, b in zip(track, track[1:])],
                    dtype=np.int64)
    keys = g.heads * n + g.tails  # ascending: arcs are in (head, tail) order
    pos = np.searchsorted(keys, want)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == want[found]
    if not found.all():
        a, b = divmod(int(want[~found][0]), n)
        raise KeyError((a, b))
    link = iter(g.trans[pos].tolist())
    total = 0.0
    for track in tracks:
        total += g.entry[track[0]]
        total += g.obs[track[0]]
        for b in track[1:]:
            total += next(link)
            total += g.obs[b]
        total += g.exit[track[-1]]
    return float(total)


def _tracks_to_trajectories(g: TrackingGraph, tracks: list[list[int]]) -> list[Trajectory]:
    tracks = sorted(tracks, key=lambda tr: (g.detections[tr[0]].time, tr[0]))
    out = []
    for tid, track in enumerate(tracks):
        pts = tuple((g.detections[i].time, g.detections[i].x, g.detections[i].y)
                    for i in track)
        out.append(Trajectory(tid, pts))
    return out


def solve_ssp_detailed(g: TrackingGraph) -> tuple[list[list[int]], float]:
    """Minimum-cost path cover; returns (index tracks, canonical cost).

    Rows are detections as predecessors. Column j < n is detection j as
    a successor and column n + i is row i's exit. Counting every
    detection first as a one-point track (entry + obs + exit), a link
    i -> j changes the cost by trans - exit_i - entry_j, and row i on its
    own column leaves detection i unused (-(entry + obs + exit)). Every
    row is matched once, so one constant shift that makes all weights
    positive leaves the optimum unchanged. LAPJVsp solves the sparse
    assignment by shortest augmenting paths.
    """
    n = len(g.detections)
    if n == 0:
        return [], 0.0
    ar = np.arange(n)
    heads, tails = g.heads, g.tails
    wts = np.concatenate([g.trans - g.exit[heads] - g.entry[tails],
                          -(g.entry + g.obs + g.exit), np.zeros(n)])
    mat = coo_matrix((wts + (1.0 - wts.min()),
                      (np.concatenate([heads, ar, ar]), np.concatenate([tails, ar, n + ar]))),
                     shape=(n, 2 * n)).tocsr()
    rows, cols = min_weight_full_bipartite_matching(mat)
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
    entry, exit_, obs = g.entry, g.exit, g.obs
    trans = dict(zip(zip(g.heads.tolist(), g.tails.tolist()), g.trans.tolist()))
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(k: int, tails: frozenset) -> float:
        if k == n:
            return float(sum(exit_[t] for t in sorted(tails)))
        b = best(k + 1, tails)  # leave detection k unused
        b = min(b, float(entry[k] + obs[k]) + best(k + 1, tails | {k}))
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
        if target == float(entry[k] + obs[k]) + best(k + 1, tails | {k}):
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


def associate_nearest(dets_t, dets_t1, max_dist: float) -> list[tuple[int, int]]:
    """Greedy nearest-target mapping; many-to-one is allowed by design."""
    matches = []
    for i, d in enumerate(dets_t):
        best_j = -1
        best_d = math.inf
        for j, e in enumerate(dets_t1):
            dist = math.hypot(d.x - e.x, d.y - e.y)
            if dist <= max_dist and dist < best_d:
                best_d = dist
                best_j = j
        if best_j >= 0:
            matches.append((i, best_j))
    return matches


_FORBIDDEN = 1e9


def associate_hungarian(dets_t, dets_t1, cost: np.ndarray | None = None,
                        cutoff: float = math.inf) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one matching; pairs beyond `cutoff` are forbidden."""
    n, m = len(dets_t), len(dets_t1)
    if n == 0 or m == 0:
        return []
    if cost is None:
        cost = np.array([[math.hypot(a.x - b.x, a.y - b.y) for b in dets_t1]
                         for a in dets_t])
    cost = np.asarray(cost, dtype=np.float64)
    work = np.where(cost > cutoff, _FORBIDDEN, cost)
    rows, cols = linear_sum_assignment(work)
    keep = cost[rows, cols] <= cutoff
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


@dataclass(frozen=True)
class KalmanState:
    """Constant-velocity filter state: (x, y, vx, vy) and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(4)
        cov = np.asarray(self.cov, dtype=np.float64).reshape(4, 4)
        if not np.allclose(cov, cov.T, atol=1e-8):
            raise NonSpdCovariance("covariance must be symmetric")
        eig = np.linalg.eigvalsh(cov)
        if eig.min() < -1e-9:
            raise NonSpdCovariance(f"covariance has negative eigenvalue {eig.min():.3e}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _from_filter(cls, mean: np.ndarray, cov: np.ndarray) -> "KalmanState":
        """A state computed by kalman_predict/kalman_update from a valid one.

        Skips the symmetry and eigenvalue checks: the filter re-symmetrizes
        the covariance itself, and checking every step dominated the
        two-stage tracker's time.
        """
        state = object.__new__(cls)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(state, "mean", mean)
        object.__setattr__(state, "cov", cov)
        return state

    @property
    def pos(self) -> tuple[float, float]:
        return (float(self.mean[0]), float(self.mean[1]))


def kalman_predict(s: KalmanState, dt: float, process_noise: float = 0.01) -> KalmanState:
    """Constant-velocity predict; process noise scales with dt (dt=0 is a no-op)."""
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    mean = F @ s.mean
    cov = F @ s.cov @ F.T + process_noise * dt * np.eye(4)
    cov = 0.5 * (cov + cov.T)
    return KalmanState._from_filter(mean, cov)


def kalman_update(s: KalmanState, pos, meas_noise: float = 0.25) -> KalmanState:
    """Linear position-measurement update; covariance re-symmetrized."""
    H = np.zeros((2, 4))
    H[0, 0] = 1.0
    H[1, 1] = 1.0
    z = np.asarray(pos, dtype=np.float64).reshape(2)
    S = H @ s.cov @ H.T + meas_noise * np.eye(2)
    K = np.linalg.solve(S.T, (s.cov @ H.T).T).T
    mean = s.mean + K @ (z - H @ s.mean)
    cov = (np.eye(4) - K @ H) @ s.cov
    cov = 0.5 * (cov + cov.T)
    return KalmanState._from_filter(mean, cov)


def _swap(m: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return m.swapaxes(-1, -2)


def kalman_predict_batch(means: np.ndarray, covs: np.ndarray, dts: np.ndarray,
                         process_noise: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """`kalman_predict` of every row of (T, 4) means and (T, 4, 4)
    covariances, row t by dts[t]. The same matmuls run on the stack, so
    each row equals the scalar call bit for bit."""
    dts = np.asarray(dts, dtype=np.float64)
    F = np.tile(np.eye(4), (len(dts), 1, 1))
    F[:, 0, 2] = dts
    F[:, 1, 3] = dts
    mean = (F @ means[:, :, None])[:, :, 0]
    cov = F @ covs @ _swap(F) + (process_noise * dts)[:, None, None] * np.eye(4)
    cov = 0.5 * (cov + _swap(cov))
    return mean, cov


def kalman_update_batch(means: np.ndarray, covs: np.ndarray, zs: np.ndarray,
                        meas_noise: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """`kalman_update` of every row of (T, 4) means and (T, 4, 4)
    covariances by the (T, 2) positions zs, bit for bit as the scalar
    call."""
    H = np.zeros((2, 4))
    H[0, 0] = 1.0
    H[1, 1] = 1.0
    S = H @ covs @ H.T + meas_noise * np.eye(2)
    K = _swap(np.linalg.solve(_swap(S), _swap(covs @ H.T)))
    mean = means + (K @ (zs - (H @ means[:, :, None])[:, :, 0])[:, :, None])[:, :, 0]
    cov = (np.eye(4) - K @ H) @ covs
    cov = 0.5 * (cov + _swap(cov))
    return mean, cov


def _step_filters(tracks: list, step, *args) -> np.ndarray:
    """Run the filters of `tracks` through one batched step (`step` is
    kalman_predict_batch or kalman_update_batch); track t gets row t.
    Returns the stepped means."""
    means, covs = step(np.array([tr.kalman.mean for tr in tracks]),
                       np.array([tr.kalman.cov for tr in tracks]), *args)
    for tr, mean, cov in zip(tracks, means, covs):
        tr.kalman = KalmanState._from_filter(mean, cov)
    return means


@dataclass(frozen=True)
class TwoStageConfig:
    box_side: float = 5.0
    iou_threshold: float = 0.1
    max_age: int = 3
    process_noise: float = 0.01
    meas_noise: float = 0.25
    init_pos_var: float = 1.0
    init_vel_var: float = 10.0


class OnlineTrack:
    """Mutable state of one track in the two-stage tracker."""

    def __init__(self, tid: int, det: Detection, cfg: TwoStageConfig, use_kalman: bool):
        self.id = tid
        self.points = [(det.time, det.x, det.y)]
        self.last_time = det.time
        self.misses = 0
        self.kalman: KalmanState | None = None
        if use_kalman:
            self.kalman = KalmanState(
                np.array([det.x, det.y, 0.0, 0.0]),
                np.diag([cfg.init_pos_var, cfg.init_pos_var,
                         cfg.init_vel_var, cfg.init_vel_var]),
            )

    @property
    def pos(self) -> tuple[float, float]:
        _, x, y = self.points[-1]
        return (x, y)


def _square_iou(c1, c2, side: float) -> float:
    ix = max(0.0, side - abs(c1[0] - c2[0]))
    iy = max(0.0, side - abs(c1[1] - c2[1]))
    inter = ix * iy
    union = 2.0 * side * side - inter
    return inter / union if union > 0 else 0.0


def _square_iou_cost(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    """1 - IoU of side-length squares centred at rows of a (k, 2) and b
    (m, 2), as a (k, m) matrix; the arithmetic of `_square_iou`."""
    ix = np.maximum(0.0, side - np.abs(a[:, None, 0] - b[None, :, 0]))
    iy = np.maximum(0.0, side - np.abs(a[:, None, 1] - b[None, :, 1]))
    inter = ix * iy
    union = 2.0 * side * side - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return 1.0 - iou


MOTION_SOURCES = ("kalman", "learned-offset", "none")


def associate_two_stage(tracks: list[OnlineTrack], detections: list[Detection],
                        motion_source: str, conf_split: float,
                        cfg: TwoStageConfig = TwoStageConfig(),
                        fwd_field: OffsetField | None = None,
                        frame: int | None = None,
                        next_id: int = 0) -> tuple[list[OnlineTrack], int]:
    """One frame of two-stage ground-plane association.

    Stage 1 matches high-confidence detections (conf >= conf_split) to
    motion-extrapolated track heads by IoU of side-length squares;
    stage 2 offers the leftovers the low-confidence detections. Returns
    the surviving tracks and the next unused track id.

    The heads are extrapolated all at once: with Kalman motion one
    `kalman_predict_batch` over every track that has a filter, with
    learned motion one sampling of the field per component. After the
    matching, one `kalman_update_batch` updates every matched track
    that has a filter. Both steps equal the per-track
    `kalman_predict`/`kalman_update` bit for bit.
    """
    if motion_source not in MOTION_SOURCES:
        raise ValueError(f"motion_source must be one of {MOTION_SOURCES}")
    if frame is None:
        if not detections:
            raise ValueError("frame index required when the detection list is empty")
        frame = detections[0].time

    # track heads extrapolated to this frame, one row per track
    predicted = np.array([tr.pos for tr in tracks], dtype=np.float64).reshape(-1, 2)
    gaps = np.array([frame - tr.last_time for tr in tracks], dtype=np.int64)
    if motion_source == "kalman":
        kal = [i for i, tr in enumerate(tracks) if tr.kalman is not None]
        if kal:
            means = _step_filters([tracks[i] for i in kal], kalman_predict_batch,
                                  gaps[kal], cfg.process_noise)
            predicted[kal] = means[:, :2]
    elif motion_source == "learned-offset" and fwd_field is not None:
        xs, ys = predicted[:, 0], predicted[:, 1]
        predicted = np.column_stack([xs + gaps * bilinear_sample(fwd_field.dx, xs, ys),
                                     ys + gaps * bilinear_sample(fwd_field.dy, xs, ys)])

    high = [d for d in detections if d.confidence >= conf_split]
    low = [d for d in detections if d.confidence < conf_split]

    def match(track_ids: list[int], dets: list[Detection]) -> tuple[dict[int, Detection], set[int]]:
        if not track_ids or not dets:
            return {}, set()
        cost = _square_iou_cost(predicted[track_ids],
                                np.array([(d.x, d.y) for d in dets]), cfg.box_side)
        pairs = associate_hungarian(
            [tracks[t] for t in track_ids], dets, cost=cost,
            cutoff=1.0 - cfg.iou_threshold,
        )
        assigned = {track_ids[a]: dets[b] for a, b in pairs}
        used = {id(dets[b]) for _, b in pairs}
        return assigned, used

    all_ids = list(range(len(tracks)))
    assigned1, used1 = match(all_ids, high)
    remaining = [i for i in all_ids if i not in assigned1]
    assigned2, used2 = match(remaining, low)
    assigned = {**assigned1, **assigned2}

    survivors: list[OnlineTrack] = []
    measured: list[OnlineTrack] = []
    for i, tr in enumerate(tracks):
        det = assigned.get(i)
        if det is not None:
            tr.points.append((det.time, det.x, det.y))
            tr.last_time = det.time
            tr.misses = 0
            if tr.kalman is not None:
                measured.append(tr)
            survivors.append(tr)
        else:
            tr.misses += 1
            if tr.misses <= cfg.max_age:
                survivors.append(tr)
    if measured:
        zs = np.array([tr.pos for tr in measured], dtype=np.float64)
        _step_filters(measured, kalman_update_batch, zs, cfg.meas_noise)

    for d in high:
        if id(d) not in used1:
            survivors.append(OnlineTrack(next_id, d, cfg, motion_source == "kalman"))
            next_id += 1
    return survivors, next_id


def run_two_stage(frames: list[list[Detection]], motion_source: str,
                  fwd_fields=None, conf_split: float = 0.5,
                  cfg: TwoStageConfig = TwoStageConfig()) -> list[Trajectory]:
    """Run the two-stage tracker over a detection sequence.

    Tracks are mutated in place, so an archive of every track ever
    created yields the full output including terminated ones. Each
    frame steps the filters of all its live tracks as one array
    operation (see `associate_two_stage`).
    """
    active: list[OnlineTrack] = []
    archive: dict[int, OnlineTrack] = {}
    next_id = 0
    for t, dets in enumerate(frames):
        fwd = None
        if fwd_fields is not None and t >= 1 and t - 1 < len(fwd_fields):
            fwd = fwd_fields[t - 1]
        active, next_id = associate_two_stage(
            active, dets, motion_source, conf_split,
            cfg=cfg, fwd_field=fwd, frame=t, next_id=next_id,
        )
        for tr in active:
            archive.setdefault(tr.id, tr)
    return [Trajectory(tid, tuple(archive[tid].points)) for tid in sorted(archive)]
