"""Reference implementations that only tests use: the cost of one flow
arc and the offset sampled at one point, which `build_graph` is checked
against; the Kalman steps of one filter state, which the batched steps
of `groundflow.track` are checked against; the IoU of one pair of
squares; the nearest-target matches of one cost matrix, entry by
entry; the value of each loss term alone; the offset gradient of one
reconstruction; and the trajectory CSV reader."""
import math

import numpy as np

from groundflow.core import OffsetField, Trajectory
from groundflow.errors import DimensionMismatch
from groundflow.io import _read_csv
from groundflow.losses import (
    _same_shape,
    bilinear_sampler,
    loss_fb_grad,
    loss_se_grad_hoods,
    se_neighborhoods,
)
from groundflow.track import MEAS_NOISE, PROCESS_NOISE, EdgeCostParams
from groundflow.warp import (
    ReconstructionConfig,
    WarpPlan,
    WarpWorkspace,
    _check_shapes,
    _offsets_of,
    _values_of,
    grad_offsets_with_plan,
    reconstruct_with_plan,
    smoothed_target,
)


def sample_offset(field: OffsetField | None, x: float, y: float) -> tuple[float, float]:
    """Bilinear sample of an offset field at a continuous point (border-clamped)."""
    if field is None:
        return 0.0, 0.0
    read = bilinear_sampler(field.dx.shape, np.array([x]), np.array([y]))
    return float(read(field.dx)[0]), float(read(field.dy)[0])


def edge_cost(i_pos, j_pos, t1: int, t2: int, delta_bwd_at_j, p: EdgeCostParams) -> float:
    """Transition cost between detections at t1 < t2, whatever their
    distance (the reach gate is not applied).

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


def nearest_matches(cost, max_dist: float) -> list[tuple[int, int]]:
    """Each row's first column of least cost, if that cost is <= max_dist,
    found one entry at a time."""
    matches = []
    for i, row in enumerate(cost):
        best_j, best = -1, math.inf
        for j, c in enumerate(row):
            if c <= max_dist and c < best:
                best_j, best = j, c
        if best_j >= 0:
            matches.append((i, best_j))
    return matches


def kalman_predict(mean, cov, process_noise=PROCESS_NOISE):
    """Constant-velocity predict of a (4,) mean (x, y, vx, vy) and its
    (4, 4) covariance by one frame; the covariance is re-symmetrized."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = 1.0
    cov = F @ cov @ F.T + process_noise * np.eye(4)
    return F @ mean, 0.5 * (cov + cov.T)


def kalman_update(mean, cov, z, meas_noise=MEAS_NOISE):
    """Update of a mean and covariance by the measured position z."""
    H = np.eye(2, 4)
    S = H @ cov @ H.T + meas_noise * np.eye(2)
    K = np.linalg.solve(S.T, (cov @ H.T).T).T
    mean = mean + K @ (np.asarray(z, dtype=np.float64) - H @ mean)
    cov = (np.eye(4) - K @ H) @ cov
    return mean, 0.5 * (cov + cov.T)


def square_iou(c1, c2, side: float) -> float:
    """IoU of the side-length squares centred at c1 and c2."""
    ix = max(0.0, side - abs(c1[0] - c2[0]))
    iy = max(0.0, side - abs(c1[1] - c2[1]))
    inter = ix * iy
    union = 2.0 * side * side - inter
    return inter / union if union > 0 else 0.0


def smoothed(X, cfg: ReconstructionConfig) -> np.ndarray:
    """smoothed_target of one heatmap, through a throwaway plan and workspace."""
    return smoothed_target(WarpPlan(_values_of(X), cfg.window_cells), cfg.lambda_r,
                           WarpWorkspace())


def loss_mot(X_hat, X_gt, cfg: ReconstructionConfig) -> float:
    """Squared L2 between a reconstruction and the smoothed ground truth."""
    xh = np.asarray(X_hat, dtype=np.float64)
    target = smoothed(X_gt, cfg)
    _same_shape(xh, target, "motion loss")
    d = xh - target
    return float((d * d).sum())


def loss_fb(delta_fwd, delta_bwd) -> float:
    return loss_fb_grad(delta_fwd, delta_bwd)[0]


def loss_se(delta, gt_points, radius: float) -> float:
    dx, dy = _offsets_of(delta)
    hoods = se_neighborhoods(dx.shape, gt_points, radius)
    return loss_se_grad_hoods(dx, dy, hoods)[0]


def reconstruct_backward(X, delta, cfg: ReconstructionConfig,
                         upstream) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (d_offset_x, d_offset_y) of
    sum(upstream * reconstruct(X, delta, cfg)) with respect to the offsets.

    It vanishes where x_i is zero because the contribution is linear in
    x_i. The heatmaps are fixed inputs of the fit, so no gradient with
    respect to X is computed.
    """
    values = _values_of(X)
    dx, dy = _offsets_of(delta)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_shapes(values, dx, dy)
    if upstream.shape != values.shape:
        raise DimensionMismatch("upstream gradient must have the grid's shape")
    plan = WarpPlan(values, cfg.window_cells)
    workspace = WarpWorkspace()
    reconstruct_with_plan(plan, dx, dy, cfg.lambda_r, workspace)
    return grad_offsets_with_plan(plan, upstream, cfg.lambda_r, workspace)


def load_trajectories(path) -> list[Trajectory]:
    """Trajectories of a CSV that `io.save_trajectories` wrote, sorted by id."""
    by_id: dict[int, list[tuple[int, float, float]]] = {}
    for _, r in _read_csv(path):
        by_id.setdefault(int(r[1]), []).append((int(r[0]), float(r[2]), float(r[3])))
    return [Trajectory(tid, tuple(sorted(by_id[tid]))) for tid in sorted(by_id)]
