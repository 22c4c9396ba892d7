"""Loss terms for detection-supervised motion fitting.

Three terms make up the composite objective; the paper's fourth, the
detection term, is identically zero here because the heatmaps are
rendered from detections and are fixed inputs, not predictions:

* motion consistency: squared L2 between the warped heatmap and a
  zero-offset-smoothed ground truth (both sides carry the same blur),
* forward/backward: the reversed-pair offsets sampled at the forward
  displacement target should negate the forward offsets,
* spatial extent: the offsets inside each ground-truth peak's footprint
  should agree (penalizes per-peak offset spread).

Each term has an exact analytic gradient; the gradient versions return
(value, grads...) so the fitter assembles totals without recomputation.
The composite loss stacks its gradient wrt (fdx, fdy, bdx, bdy) as one
(4, h, w) array, summed over the three stacked terms. The spatial-extent
term reads each point's footprint from one (points, cells) neighbourhood
matrix padded with the out-of-grid index h * w, so it gathers, reduces
and scatters all points at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .warp import (
    ReconstructionConfig,
    WarpPlan,
    WarpWorkspace,
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
        if not (self.lambda_fb >= 0 and self.lambda_se >= 0):
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

    def __post_init__(self):
        # lambda_r stays positive and only rises: the schedule only sharpens
        if not (0 < self.init <= self.cap and self.increment >= 0):
            raise ValueError("schedule requires 0 < init <= cap and increment >= 0")

    def values(self, epochs: int):
        """lambda_r of each of `epochs` epochs, starting at `init`."""
        lam = self.init
        for _ in range(epochs):
            yield lam
            lam = min(lam + self.increment, self.cap)


def _same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape:
        raise DimensionMismatch(f"{what}: {a.shape} vs {b.shape}")


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


def bilinear_sampler(shape, px: np.ndarray, py: np.ndarray):
    """Border-clamped bilinear interpolation at fixed points of a grid of
    `shape`, as a function of a field whose last two axes are the grid's
    (y, x), or of a stack of them; the corners are found once."""
    x0, x1, y0, y1, fx, fy, _, _ = _bilinear_corners(shape, px, py)

    def sample(arr: np.ndarray) -> np.ndarray:
        v00, v10, v01, v11 = arr[..., y0, x0], arr[..., y0, x1], arr[..., y1, x0], arr[..., y1, x1]
        top = v00 + fx * (v10 - v00)
        bot = v01 + fx * (v11 - v01)
        return top + fy * (bot - top)

    return sample


@lru_cache(maxsize=8)
def _cell_mesh(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat x and y coordinates of every cell of an h x w grid (read-only)."""
    yy, xx = np.mgrid[0:h, 0:w]
    xx = xx.ravel()
    yy = yy.ravel()
    xx.setflags(write=False)
    yy.setflags(write=False)
    return xx, yy


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
    y0w = y0 * w
    y1w = y1 * w
    corners = (y0w + x0, y0w + x1, y1w + x0, y1w + x1)
    gx = 1.0 - fx
    gy = 1.0 - fy
    samples = []
    for b in (bdx.ravel(), bdy.ravel()):
        v00, v10, v01, v11 = (b.take(c) for c in corners)
        d_top = v10 - v00
        d_bot = v11 - v01
        top = v00 + fx * d_top
        bot = v01 + fx * d_bot
        d_y = bot - top
        # value and its derivatives, zero along an axis where the point was clamped
        samples.append((top + fy * d_y, (gy * d_top + fy * d_bot) * inside_x, d_y * inside_y))
    (sx, dsx_dx, dsx_dy), (sy, dsy_dx, dsy_dy) = samples
    rx = fdx.ravel() + sx
    ry = fdy.ravel() + sy
    value = float((rx * rx + ry * ry).sum())
    rx2 = 2.0 * rx
    ry2 = 2.0 * ry
    g_fdx = (rx2 * (1.0 + dsx_dx) + ry2 * dsy_dx).reshape(h, w)
    g_fdy = (rx2 * dsx_dy + ry2 * (1.0 + dsy_dy)).reshape(h, w)
    # scatter 2r onto the four corner cells, corner by corner
    corner_w = (gx * gy, fx * gy, gx * fy, fx * fy)
    g_bdx = np.bincount(corners[0], weights=rx2 * corner_w[0], minlength=h * w)
    g_bdy = np.bincount(corners[0], weights=ry2 * corner_w[0], minlength=h * w)
    for c, wgt in zip(corners[1:], corner_w[1:]):
        g_bdx += np.bincount(c, weights=rx2 * wgt, minlength=h * w)
        g_bdy += np.bincount(c, weights=ry2 * wgt, minlength=h * w)
    return value, g_fdx, g_fdy, g_bdx.reshape(h, w), g_bdy.reshape(h, w)


def se_neighborhoods(shape, gt_points, radius: float) -> np.ndarray:
    """Flat cell indices within Euclidean `radius` of each ground-truth point.

    Row p of the (P, M) int64 result lists point p's cells in row-major
    order and is padded at its end with h * w, one past the last cell.
    The cells are those of the point's clipped bounding box
    [floor(p - radius), ceil(p + radius)] that lie within the radius.
    """
    h, w = shape
    pts = np.asarray(gt_points, dtype=np.float64).reshape(-1, 2)
    px, py = pts[:, 0, None, None], pts[:, 1, None, None]
    x0 = np.maximum(0, np.floor(px - radius).astype(np.int64))
    x1 = np.minimum(w - 1, np.ceil(px + radius).astype(np.int64))
    y0 = np.maximum(0, np.floor(py - radius).astype(np.int64))
    y1 = np.minimum(h - 1, np.ceil(py + radius).astype(np.int64))
    box_w = max(0, int((x1 - x0).max(initial=-1)) + 1)
    box_h = max(0, int((y1 - y0).max(initial=-1)) + 1)
    xs = x0 + np.arange(box_w)[None, None, :]
    ys = y0 + np.arange(box_h)[None, :, None]
    keep = (xs <= x1) & (ys <= y1) & ((xs - px) ** 2 + (ys - py) ** 2 <= radius * radius)
    # cells ascend in row-major order and the padding sorts after them
    cells = np.sort(np.where(keep, ys * w + xs, h * w).reshape(len(pts), box_h * box_w), axis=1)
    return cells[:, :int(keep.sum(axis=(1, 2)).max(initial=0))]


def loss_se_grad_hoods(dx: np.ndarray, dy: np.ndarray, hoods: np.ndarray):
    """Spatial-extent loss from a se_neighborhoods matrix, with gradients.

    Per point: STD = sqrt(var(dx) + var(dy)) over its neighborhood cells
    (population variance); the value is the mean over points. An empty
    or exactly constant neighborhood (max == min in dx and in dy) adds
    zero with a zero gradient, and so does the gradient of any point
    whose STD is at most 1e-12.
    """
    h, w = dx.shape
    n_points = hoods.shape[0]
    if hoods.size == 0:   # no points, or every neighborhood empty
        return 0.0, np.zeros((h, w)), np.zeros((h, w))
    cells = hoods < h * w
    n = np.maximum(cells.sum(axis=1), 1)  # an empty row is never live; 1 keeps it finite
    # the padding gathers the appended zero
    vx = np.append(dx.ravel(), 0.0)[hoods]
    vy = np.append(dy.ravel(), 0.0)[hoods]
    live = (cells & ((vx != vx[:, :1]) | (vy != vy[:, :1]))).any(axis=1)
    ex = np.where(cells, vx - (vx.sum(axis=1) / n)[:, None], 0.0)
    ey = np.where(cells, vy - (vy.sum(axis=1) / n)[:, None], 0.0)
    std = np.where(live, np.sqrt((ex * ex).sum(axis=1) / n + (ey * ey).sum(axis=1) / n), 0.0)
    scale = np.zeros(n_points)
    np.divide(1.0, n_points * n * std, out=scale, where=live & (std > 1e-12))
    flat = hoods.ravel()
    g_dx = np.bincount(flat, weights=(ex * scale[:, None]).ravel(), minlength=h * w + 1)
    g_dy = np.bincount(flat, weights=(ey * scale[:, None]).ravel(), minlength=h * w + 1)
    return float(std.sum() / n_points), g_dx[:h * w].reshape(h, w), g_dy[:h * w].reshape(h, w)


@dataclass(frozen=True)
class TotalLoss:
    """Composite loss of one frame pair and its gradient.

    `grad` stacks the gradients wrt fdx, fdy, bdx and bdy as the rows of
    one read-only (4, h, w) array; g_fdx .. g_bdy are views of its rows.
    """

    total: float
    l_mot: float
    l_fb: float
    l_se: float
    grad: np.ndarray

    g_fdx = property(lambda self: self.grad[0])
    g_fdy = property(lambda self: self.grad[1])
    g_bdx = property(lambda self: self.grad[2])
    g_bdy = property(lambda self: self.grad[3])


def loss_total(x_t, x_t1, delta_fwd, delta_bwd, points_t, points_t1,
               cfg: ReconstructionConfig, weights: LossWeights, se_radius: float,
               plans: tuple[WarpPlan, WarpPlan] | None = None,
               hoods: tuple[np.ndarray, np.ndarray] | None = None,
               targets: tuple[np.ndarray, np.ndarray] | None = None,
               workspace: WarpWorkspace | None = None) -> TotalLoss:
    """Composite loss of a frame pair with gradients wrt both offset fields.

    The heatmaps are fixed inputs here (the offset fields are the free
    variables), so the detection term is identically zero and left out;
    the `fit` command writes its l_det trace column as 0.0. The motion
    term covers both temporal directions: the pair warped forward by
    delta_fwd and the reversed pair warped by delta_bwd, each compared
    against the other frame's smoothed heatmap.
    The spatial-extent term is likewise applied to each field with its
    source frame's points; the forward/backward term couples the two
    fields once, anchored at the forward one.

    `targets` may carry the precomputed smoothed targets of the forward
    and the backward motion term: (smoothed x_t1, smoothed x_t). Both
    warp directions run in `workspace` (a fresh one if None), each
    direction's gradient before the other direction's forward pass.
    """
    xt = _values_of(x_t)
    xt1 = _values_of(x_t1)
    fdx, fdy = _offsets_of(delta_fwd)
    bdx, bdy = _offsets_of(delta_bwd)
    _same_shape(xt, xt1, "frame pair")
    _same_shape(xt, fdx, "heatmap vs offsets")
    if plans is None:
        plans = (WarpPlan(xt, cfg.window_cells), WarpPlan(xt1, cfg.window_cells))
    if hoods is None:
        hoods = (se_neighborhoods(xt.shape, points_t, se_radius),
                 se_neighborhoods(xt.shape, points_t1, se_radius))
    if workspace is None:
        workspace = WarpWorkspace()
    if targets is None:
        targets = (smoothed_target(plans[1], cfg.lambda_r, workspace),
                   smoothed_target(plans[0], cfg.lambda_r, workspace))

    l_mot = l_se = 0.0
    mot, se = [], []
    for plan, (dx, dy), target, hoods_src in zip(plans, ((fdx, fdy), (bdx, bdy)), targets, hoods):
        res = reconstruct_with_plan(plan, dx, dy, cfg.lambda_r, workspace) - target
        l_mot += float((res * res).sum())
        mot += grad_offsets_with_plan(plan, 2.0 * res, cfg.lambda_r, workspace)
        l_se_src, *g_se = loss_se_grad_hoods(dx, dy, hoods_src)
        l_se += l_se_src
        se += g_se
    l_fb, *fb = loss_fb_grad((fdx, fdy), (bdx, bdy))

    lam_fb = weights.lambda_fb
    lam_se = weights.lambda_se
    # mot + lam_fb * fb + lam_se * se, row by row; the se rows are this
    # call's own arrays, so they take their scaling in place
    grad = np.empty((4,) + xt.shape)
    for row, g_mot, g_fb, g_se in zip(grad, mot, fb, se):
        np.multiply(g_fb, lam_fb, out=row)
        row += g_mot
        row += np.multiply(g_se, lam_se, out=g_se)
    grad.setflags(write=False)
    return TotalLoss(total=l_mot + lam_fb * l_fb + lam_se * l_se, l_mot=l_mot, l_fb=l_fb,
                     l_se=l_se, grad=grad)
