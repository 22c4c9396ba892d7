"""Checks of the program's outputs against computations made apart from it.

Nothing here calls the program's warp, loss, fit, tracking or metric
code: the weight function, bilinear sampling, edge costs, offset errors
and the tracker's optimum are written out again from their documented
formulas. Each check returns True when the output passes.

The tracker's optimum uses the path-cover view of network-flow tracking
(Zhang, Li & Nevatia, CVPR 2008; muSSP, Wang et al., NeurIPS 2019): a set
of vertex-disjoint tracks in the time-ordered detection graph is a
bipartite matching of detections as predecessors to detections as
successors, so a min-weight full bipartite matching gives the optimum
independently of the program's successive-shortest-paths solver.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

# floating-point agreement between two exact computations of one sum
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- fit ---------------------------------------------------------------------

def loss_falls(trace) -> bool:
    """The pair's total loss at its last epoch is below its first."""
    return trace[-1]["total"] < trace[0]["total"]


def finite_and_clamped(trace, fields, clamp: float) -> bool:
    """Every logged loss term and every offset is finite; |offset| <= clamp."""
    for row in trace:
        if not all(math.isfinite(row[k]) for k in ("l_mot", "l_fb", "l_se", "total")):
            return False
    for a in fields:
        a = np.asarray(a)
        if not np.all(np.isfinite(a)) or float(np.max(np.abs(a), initial=0.0)) > clamp:
            return False
    return True


def weight(l: np.ndarray, lam: float) -> np.ndarray:
    """W(l) = 1 / (1 + exp(4 lam l - 10)), exponent clamped to [-60, 60]."""
    return 1.0 / (1.0 + np.exp(np.clip(4.0 * lam * l - 10.0, -60.0, 60.0)))


def dense_sum(values: np.ndarray, dx: np.ndarray, dy: np.ndarray, lam: float) -> np.ndarray:
    """out_j = sum_i x_i W(|j - (i + delta_i)|) over every grid cell j.

    Cells with x_i == 0 add exactly zero, so only nonzero sources are summed.
    Output rows are taken a few at a time so that no temporary outgrows the
    blocks the fit itself allocates: a larger freed block would raise the
    allocator's mmap threshold and make the program's next round faster
    than its first.
    """
    h, w = values.shape
    ys, xs = np.nonzero(values)
    cx = xs + dx[ys, xs]
    cy = ys + dy[ys, xs]
    out = np.empty((h, w))
    jx = np.arange(w)[None, :] - cx[:, None]
    for j in range(h):
        out[j] = values[ys, xs] @ weight(np.hypot(jx, j - cy[:, None]), lam)
    return out


def matches_dense(windowed: np.ndarray, dense: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
    return float(np.max(np.abs(windowed - dense), initial=0.0)) <= REL_TOL * scale


# -- offsets against the simulator's true positions ------------------------

def true_offset_rows(trajectories, pair: int, stride: int):
    """(cell_x, cell_y, dx, dy) of each agent over one subsampled pair.

    Cells are the half-up rounded positions; the first agent (by id) to
    claim a cell keeps it.
    """
    f0, f1 = pair * stride, (pair + 1) * stride
    rows, taken = [], set()
    for tr in sorted(trajectories, key=lambda t: t.id):
        pos = {t: (x, y) for t, x, y in tr.points}
        (x0, y0), (x1, y1) = pos[f0], pos[f1]
        cell = (math.floor(x0 + 0.5), math.floor(y0 + 0.5))
        if cell in taken:
            continue
        taken.add(cell)
        rows.append((cell[0], cell[1], x1 - x0, y1 - y0))
    return rows


def offset_errors(fwd_fields, trajectories, stride: int) -> tuple[float, float]:
    """Mean over pairs of (L1, angle in degrees) of fitted forward offsets.

    L1 averages 0.5 (|ex| + |ey|) over the true cells; the angle averages
    over cells whose true offset is nonzero, with 180 for a zero estimate.
    """
    l1s, angles = [], []
    for k, (fdx, fdy) in enumerate(fwd_fields):
        rows = true_offset_rows(trajectories, k, stride)
        l1 = ang = 0.0
        n_ang = 0
        for cx, cy, ox, oy in rows:
            px, py = float(fdx[cy, cx]), float(fdy[cy, cx])
            l1 += 0.5 * (abs(px - ox) + abs(py - oy))
            if math.hypot(ox, oy) > 1e-6:
                n_ang += 1
                if math.hypot(px, py) <= 1e-12:
                    ang += 180.0
                else:
                    ang += math.degrees(math.atan2(abs(px * oy - py * ox), px * ox + py * oy))
        l1s.append(l1 / len(rows))
        angles.append(ang / n_ang if n_ang else 0.0)
    return float(np.mean(l1s)), float(np.mean(angles))


def zero_motion_l1(trajectories, num_pairs: int, stride: int) -> float:
    return float(np.mean([
        np.mean([0.5 * (abs(ox) + abs(oy)) for _, _, ox, oy in true_offset_rows(trajectories, k, stride)])
        for k in range(num_pairs)
    ]))


# -- tracks ------------------------------------------------------------------

def track_indices(tracks, detections):
    """Map each track point to a detection index, each detection used once.

    Returns None when a point is not an input detection or a detection is
    claimed twice (tracks not vertex-disjoint).
    """
    free: dict[tuple, list[int]] = {}
    for k, d in enumerate(detections):
        free.setdefault((d.time, d.x, d.y), []).append(k)
    out = []
    for tr in tracks:
        idx = []
        for t, x, y in tr.points:
            slot = free.get((t, x, y))
            if not slot:
                return None
            idx.append(slot.pop())
        out.append(idx)
    return out


def tracks_valid(tracks, detections, max_gap: int) -> bool:
    """Vertex-disjoint, strictly increasing in time, every gap <= max_gap,
    every point an input detection."""
    if track_indices(tracks, detections) is None:
        return False
    for tr in tracks:
        times = [p[0] for p in tr.points]
        if not times or any(not (1 <= b - a <= max_gap) for a, b in zip(times, times[1:])):
            return False
    return True


def bilinear(arr: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at points clamped to the grid's extent."""
    h, w = arr.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(y).astype(np.int64), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    return ((1 - fy) * ((1 - fx) * arr[y0, x0] + fx * arr[y0, x1])
            + fy * ((1 - fx) * arr[y1, x0] + fx * arr[y1, x1]))


def flow_costs(detections, bwd_fields, p):
    """Node and arc costs of the documented flow model.

    Detections must be time-sorted. Returns (entry, obs, exit, heads,
    tails, link) with one arc i -> j for every 1 <= t_j - t_i <= max_gap:
    link = -exp(-sigma_t (gap - 1)) exp(-sigma_d |i - j|) exp(-sigma_m |i - (j + gap b_j)|),
    b_j the backward field of pair t_j - 1 sampled at j (zero without one).
    """
    n = len(detections)
    t = np.array([d.time for d in detections])
    x = np.array([d.x for d in detections])
    y = np.array([d.y for d in detections])
    bx, by = np.zeros(n), np.zeros(n)
    if bwd_fields is not None:
        for k, (fdx, fdy) in enumerate(bwd_fields):
            sel = t == k + 1
            bx[sel] = bilinear(fdx, x[sel], y[sel])
            by[sel] = bilinear(fdy, x[sel], y[sel])
    heads, tails = [], []
    for tt in np.unique(t):
        i = np.flatnonzero(t == tt)
        j = np.flatnonzero((t > tt) & (t <= tt + p.max_gap))
        heads.append(np.repeat(i, j.size))
        tails.append(np.tile(j, i.size))
    hi = np.concatenate(heads) if heads else np.zeros(0, np.int64)
    tj = np.concatenate(tails) if tails else np.zeros(0, np.int64)
    gap = t[tj] - t[hi]
    d = np.hypot(x[hi] - x[tj], y[hi] - y[tj])
    dm = np.hypot(x[hi] - (x[tj] + gap * bx[tj]), y[hi] - (y[tj] + gap * by[tj]))
    link = -(np.exp(-p.sigma_t * (gap - 1)) * np.exp(-p.sigma_d * d) * np.exp(-p.sigma_m * dm))
    entry = np.full(n, p.entry_cost)
    exit_ = np.full(n, p.exit_cost)
    obs = -p.obs_cost_scale * np.array([d.confidence for d in detections])
    return entry, obs, exit_, hi, tj, link


def path_cover_optimum(entry, obs, exit_, heads, tails, link) -> float:
    """Minimum total cost over all sets of vertex-disjoint tracks.

    Rows are detections as predecessors. Column j < n is detection j as a
    successor, column n + i is row i's exit. With every detection first a
    one-point track (cost entry + obs + exit), a link i -> j changes the
    cost by link - exit_i - entry_j, and row i on its own column j = i
    leaves detection i unused (-(entry + obs + exit)). Every row is matched
    once, so a constant shift that makes all weights positive leaves the
    optimum unchanged.
    """
    n = entry.size
    if n == 0:
        return 0.0
    ar = np.arange(n)
    rows = np.concatenate([heads, ar, ar])
    cols = np.concatenate([tails, ar, n + ar])
    wts = np.concatenate([link - exit_[heads] - entry[tails], -(entry + obs + exit_), np.zeros(n)])
    shift = 1.0 - float(wts.min())
    mat = coo_matrix((wts + shift, (rows, cols)), shape=(n, 2 * n)).tocsr()
    r, c = min_weight_full_bipartite_matching(mat)
    chosen = np.asarray(mat[r, c]).ravel() - shift
    return float((entry + obs + exit_).sum() + chosen.sum())


def cover_cost(index_tracks, entry, obs, exit_, heads, tails, link):
    """Cost of index tracks under the same model; None if a link is no arc."""
    arc = {(int(a), int(b)): float(c) for a, b, c in zip(heads, tails, link)}
    total = 0.0
    for tr in index_tracks:
        total += entry[tr[0]] + exit_[tr[-1]] + sum(obs[k] for k in tr)
        for a, b in zip(tr, tr[1:]):
            if (a, b) not in arc:
                return None
            total += arc[(a, b)]
    return float(total)


def flow_optimal(tracks, detections, bwd_fields, p) -> bool:
    """The tracks' recomputed cost equals the independent path-cover optimum."""
    index_tracks = track_indices(tracks, detections)
    if index_tracks is None:
        return False
    costs = flow_costs(detections, bwd_fields, p)
    got = cover_cost(index_tracks, *costs)
    return got is not None and close(got, path_cover_optimum(*costs))
