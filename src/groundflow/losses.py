"""Loss terms for detection-supervised motion fitting.

Four terms make up the composite objective:

* detection: squared L2 between predicted and ground-truth heatmaps,
* motion consistency: squared L2 between the warped heatmap and a
  zero-offset-smoothed ground truth (both sides carry the same blur),
* forward/backward: the reversed-pair offsets sampled at the forward
  displacement target should negate the forward offsets,
* spatial extent: the offsets inside each ground-truth peak's footprint
  should agree (penalizes per-peak offset spread).

Each term has an exact analytic gradient; the gradient versions return
(value, grads...) so the fitter assembles totals without recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .warp import (
    ReconstructionConfig,
    WarpPlan,
    grad_offsets_with_plan,
    reconstruct_with_plan,
    smoothed_target,
    _offsets_of,
    _values_of,
)


@dataclass(frozen=True)
class LossWeights:
    """Scalar weights of the regularization terms."""

    lambda_fb: float = 0.05
    lambda_se: float = 1.0

    def __post_init__(self):
        if self.lambda_fb < 0 or self.lambda_se < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass(frozen=True)
class LambdaSchedule:
    """Annealing of the reconstruction decay parameter.

    Starts soft (easy optimization), sharpens by `increment` at the end
    of every epoch, and saturates at `cap`.
    """

    init: float = 0.8
    increment: float = 0.08
    cap: float = 5.0
    current: float = 0.8

    def __post_init__(self):
        if not (self.init <= self.current <= self.cap):
            raise ValueError("schedule requires init <= current <= cap")


def schedule_step(s: LambdaSchedule) -> LambdaSchedule:
    return replace(s, current=min(s.current + s.increment, s.cap))


def _same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape:
        raise DimensionMismatch(f"{what}: {a.shape} vs {b.shape}")


def loss_det(X, X_gt) -> float:
    """Squared L2 between a predicted and a ground-truth heatmap."""
    a = _values_of(X)
    b = _values_of(X_gt)
    _same_shape(a, b, "detection loss")
    d = a - b
    return float((d * d).sum())


def loss_mot(X_hat, X_gt, cfg: ReconstructionConfig, target: np.ndarray | None = None) -> float:
    """Squared L2 between a reconstruction and the smoothed ground truth.

    `target` may carry a precomputed smoothed_target(X_gt, cfg).
    """
    xh = np.asarray(X_hat, dtype=np.float64)
    if target is None:
        target = smoothed_target(X_gt, cfg)
    _same_shape(xh, target, "motion loss")
    d = xh - target
    return float((d * d).sum())


def _bilinear_corners(shape, px: np.ndarray, py: np.ndarray):
    """Corner cells (x0, x1, y0, y1), fractions (fx, fy) and in-grid masks
    (inside_x, inside_y) of bilinear sampling at border-clamped points."""
    h, w = shape
    cx = np.clip(px, 0.0, float(w - 1))
    cy = np.clip(py, 0.0, float(h - 1))
    inside_x = (px >= 0.0) & (px <= w - 1)
    inside_y = (py >= 0.0) & (py <= h - 1)
    x0 = np.floor(cx).astype(np.int64)
    y0 = np.floor(cy).astype(np.int64)
    if w > 1:
        x0 = np.minimum(x0, w - 2)
    if h > 1:
        y0 = np.minimum(y0, h - 2)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    return x0, x1, y0, y1, cx - x0, cy - y0, inside_x, inside_y


def bilinear_sample(arr: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of `arr` at continuous points, border-clamped."""
    x0, x1, y0, y1, fx, fy, _, _ = _bilinear_corners(arr.shape, px, py)
    v00, v10, v01, v11 = arr[y0, x0], arr[y0, x1], arr[y1, x0], arr[y1, x1]
    top = v00 + fx * (v10 - v00)
    bot = v01 + fx * (v11 - v01)
    return top + fy * (bot - top)


@lru_cache(maxsize=8)
def _cell_mesh(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat x and y coordinates of every cell of an h x w grid (read-only)."""
    yy, xx = np.mgrid[0:h, 0:w]
    xx = xx.ravel()
    yy = yy.ravel()
    xx.setflags(write=False)
    yy.setflags(write=False)
    return xx, yy


def loss_fb(delta_fwd, delta_bwd) -> float:
    return loss_fb_grad(delta_fwd, delta_bwd)[0]


def loss_fb_grad(delta_fwd, delta_bwd):
    """Forward/backward consistency with gradients for both fields.

    value = sum_i || dfwd(i) + sample(dbwd, i + dfwd(i)) ||^2 with the
    backward field sampled bilinearly at the displaced point (border-
    clamped). Both backward components share one corner computation.
    """
    fdx, fdy = _offsets_of(delta_fwd)
    bdx, bdy = _offsets_of(delta_bwd)
    _same_shape(fdx, bdx, "forward/backward loss")
    h, w = fdx.shape
    xx, yy = _cell_mesh(h, w)
    x0, x1, y0, y1, fx, fy, inside_x, inside_y = _bilinear_corners(
        (h, w), xx + fdx.ravel(), yy + fdy.ravel())
    corners = (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1)
    gx = 1.0 - fx
    gy = 1.0 - fy
    samples = []
    for b in (bdx.ravel(), bdy.ravel()):
        v00, v10, v01, v11 = (b.take(c) for c in corners)
        top = v00 + fx * (v10 - v00)
        bot = v01 + fx * (v11 - v01)
        # value and its derivatives, zero along an axis where the point was clamped
        samples.append((top + fy * (bot - top),
                        (gy * (v10 - v00) + fy * (v11 - v01)) * inside_x,
                        (bot - top) * inside_y))
    (sx, dsx_dx, dsx_dy), (sy, dsy_dx, dsy_dy) = samples
    rx = fdx.ravel() + sx
    ry = fdy.ravel() + sy
    value = float((rx * rx + ry * ry).sum())
    g_fdx = (2.0 * rx * (1.0 + dsx_dx) + 2.0 * ry * dsy_dx).reshape(h, w)
    g_fdy = (2.0 * rx * dsx_dy + 2.0 * ry * (1.0 + dsy_dy)).reshape(h, w)
    # scatter 2r onto the four corner cells, corner by corner
    g_bdx = np.zeros(h * w)
    g_bdy = np.zeros(h * w)
    rx2 = 2.0 * rx
    ry2 = 2.0 * ry
    for c, wgt in zip(corners, (gx * gy, fx * gy, gx * fy, fx * fy)):
        g_bdx += np.bincount(c, weights=rx2 * wgt, minlength=h * w)
        g_bdy += np.bincount(c, weights=ry2 * wgt, minlength=h * w)
    return value, g_fdx, g_fdy, g_bdx.reshape(h, w), g_bdy.reshape(h, w)


def se_neighborhoods(shape, gt_points, radius: float) -> list[np.ndarray]:
    """Flat cell indices within Euclidean `radius` of each ground-truth point."""
    h, w = shape
    hoods = []
    for (px, py) in gt_points:
        x0 = max(0, int(np.floor(px - radius)))
        x1 = min(w - 1, int(np.ceil(px + radius)))
        y0 = max(0, int(np.floor(py - radius)))
        y1 = min(h - 1, int(np.ceil(py + radius)))
        if x1 < x0 or y1 < y0:
            hoods.append(np.empty(0, dtype=np.int64))
            continue
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        d2 = (xs - px) ** 2 + (ys - py) ** 2
        keep = d2 <= radius * radius
        hoods.append((ys[keep] * w + xs[keep]).astype(np.int64))
    return hoods


def loss_se(delta, gt_points, radius: float) -> float:
    dx, dy = _offsets_of(delta)
    hoods = se_neighborhoods(dx.shape, gt_points, radius)
    return loss_se_grad_hoods(dx, dy, hoods)[0]


def loss_se_grad_hoods(dx: np.ndarray, dy: np.ndarray, hoods: list[np.ndarray]):
    """Spatial-extent loss from precomputed neighborhoods, with gradients.

    Per point: STD = sqrt(var(dx) + var(dy)) over its neighborhood cells
    (population variance); the value is the mean over points. The
    gradient at an exactly constant neighborhood (STD = 0) is zero.
    """
    h, w = dx.shape
    g_dx = np.zeros(h * w)
    g_dy = np.zeros(h * w)
    n_points = len(hoods)
    if n_points == 0:
        return 0.0, g_dx.reshape(h, w), g_dy.reshape(h, w)
    dxf = dx.ravel()
    dyf = dy.ravel()
    total = 0.0
    for idx in hoods:
        n = idx.size
        if n == 0:
            continue
        vx = dxf[idx]
        vy = dyf[idx]
        if vx.max() == vx.min() and vy.max() == vy.min():
            continue  # exactly constant: zero spread, zero (sub)gradient
        mx = vx.mean()
        my = vy.mean()
        ex = vx - mx
        ey = vy - my
        var = (ex * ex).sum() / n + (ey * ey).sum() / n
        std = np.sqrt(var)
        total += std
        if std > 1e-12:
            scale = 1.0 / (n_points * n * std)
            np.add.at(g_dx, idx, ex * scale)
            np.add.at(g_dy, idx, ey * scale)
    return float(total / n_points), g_dx.reshape(h, w), g_dy.reshape(h, w)


def combine_terms(l_mot: float, l_det: float, l_fb: float, l_se: float,
                  weights: LossWeights) -> float:
    return l_mot + l_det + weights.lambda_fb * l_fb + weights.lambda_se * l_se


@dataclass(frozen=True)
class TotalLoss:
    """Composite loss of one frame pair and its gradients."""

    total: float
    l_mot: float
    l_det: float
    l_fb: float
    l_se: float
    g_fdx: np.ndarray
    g_fdy: np.ndarray
    g_bdx: np.ndarray
    g_bdy: np.ndarray


def loss_total(x_t, x_t1, delta_fwd, delta_bwd, points_t, points_t1,
               cfg: ReconstructionConfig, weights: LossWeights, se_radius: float,
               plans: tuple[WarpPlan, WarpPlan] | None = None,
               hoods: tuple[list, list] | None = None,
               targets: tuple[np.ndarray, np.ndarray] | None = None) -> TotalLoss:
    """Composite loss of a frame pair with gradients wrt both offset fields.

    The heatmaps are fixed inputs here (the offset fields are the free
    variables), so the detection term is identically zero and reported
    as such. The motion term covers both temporal directions: the pair
    warped forward by delta_fwd and the reversed pair warped by
    delta_bwd, each compared against the other frame's smoothed heatmap.
    The spatial-extent term is likewise applied to each field with its
    source frame's points; the forward/backward term couples the two
    fields once, anchored at the forward one.

    `targets` may carry the precomputed smoothed targets of the forward
    and the backward motion term: (smoothed x_t1, smoothed x_t).
    """
    xt = _values_of(x_t)
    xt1 = _values_of(x_t1)
    fdx, fdy = _offsets_of(delta_fwd)
    bdx, bdy = _offsets_of(delta_bwd)
    _same_shape(xt, xt1, "frame pair")
    _same_shape(xt, fdx, "heatmap vs offsets")
    if plans is None:
        plans = (WarpPlan(xt, cfg.window_cells), WarpPlan(xt1, cfg.window_cells))
    plan_t, plan_t1 = plans
    if hoods is None:
        hoods = (
            se_neighborhoods(xt.shape, points_t, se_radius),
            se_neighborhoods(xt.shape, points_t1, se_radius),
        )
    hoods_t, hoods_t1 = hoods

    if targets is None:
        targets = (smoothed_target(xt1, cfg, plan=plan_t1), smoothed_target(xt, cfg, plan=plan_t))
    target_fwd, target_bwd = targets

    cache_f: dict = {}
    xhat_f = reconstruct_with_plan(plan_t, fdx, fdy, cfg.lambda_r, cache=cache_f)
    res_f = xhat_f - target_fwd
    l_mot_f = float((res_f * res_f).sum())
    gf_dx, gf_dy = grad_offsets_with_plan(plan_t, 2.0 * res_f, cfg.lambda_r, cache=cache_f)

    cache_b: dict = {}
    xhat_b = reconstruct_with_plan(plan_t1, bdx, bdy, cfg.lambda_r, cache=cache_b)
    res_b = xhat_b - target_bwd
    l_mot_b = float((res_b * res_b).sum())
    gb_dx, gb_dy = grad_offsets_with_plan(plan_t1, 2.0 * res_b, cfg.lambda_r, cache=cache_b)

    l_fb, fb_gf_dx, fb_gf_dy, fb_gb_dx, fb_gb_dy = loss_fb_grad((fdx, fdy), (bdx, bdy))
    l_se_f, se_gf_dx, se_gf_dy = loss_se_grad_hoods(fdx, fdy, hoods_t)
    l_se_b, se_gb_dx, se_gb_dy = loss_se_grad_hoods(bdx, bdy, hoods_t1)

    lam_fb = weights.lambda_fb
    lam_se = weights.lambda_se
    l_mot = l_mot_f + l_mot_b
    l_se_total = l_se_f + l_se_b
    total = combine_terms(l_mot, 0.0, l_fb, l_se_total, weights)
    return TotalLoss(
        total=total,
        l_mot=l_mot,
        l_det=0.0,
        l_fb=l_fb,
        l_se=l_se_total,
        g_fdx=gf_dx + lam_fb * fb_gf_dx + lam_se * se_gf_dx,
        g_fdy=gf_dy + lam_fb * fb_gf_dy + lam_se * se_gf_dy,
        g_bdx=gb_dx + lam_fb * fb_gb_dx + lam_se * se_gb_dx,
        g_bdy=gb_dy + lam_fb * fb_gb_dy + lam_se * se_gb_dy,
    )
