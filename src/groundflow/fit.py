"""Gradient-based fitting of offset fields from detection supervision.

The offset fields of each frame pair (forward and backward) are free
variables initialized to zero and optimized directly against the
composite loss. This isolates the detection-only supervision mechanism:
no motion annotations enter anywhere, the warp consistency term alone
has to discover the motion.

Pairs are independent of one another, and the lambda_r schedule
advances once per epoch. A pair's four offset components (fdx, fdy,
bdx, bdy) are the rows of one (4, h, w) array, which the optimizer
steps and the clamp bounds as a whole. Each pair fit owns one
WarpWorkspace, sized once for its larger heatmap at the first epoch's
block radius; both warp directions and the smoothed targets reuse its
buffers every epoch, and it is dropped when the pair is done, so no
state passes from one pair to the next. The fitted fields are clamped
per-component to the window radius, which bounds the motion one pair
can express. The clamp does not make the windowed forward pass exact:
the warp operator's lambda_r-sized blocks do, since they follow the
displaced source to any offset. Only while lambda_r is so soft that
the window caps the block radius (lambda_r < 1.24 at window 21) are
weights above the warp's EPSILON cut off.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import GroundGrid, OffsetField
from .errors import Divergence
from .losses import (
    LambdaSchedule,
    LossWeights,
    loss_total,
    schedule_step,
    se_neighborhoods,
)
from .warp import ReconstructionConfig, WarpPlan, WarpWorkspace, block_radius, smoothed_target


@dataclass(frozen=True)
class FitConfig:
    epochs: int
    learning_rate: float = 0.05
    schedule: LambdaSchedule = dc_field(default_factory=LambdaSchedule)
    weights: LossWeights = dc_field(default_factory=LossWeights)
    # caps the warp's block radius; each offset component is clamped to
    # the window radius (window_cells - 1) / 2
    window_cells: int = 59
    se_radius: float = 3.0
    # epochs at which the step size halves; adaptive-moments hovers at
    # learning-rate scale around an optimum, so late halving sets the
    # final precision of the fitted offsets
    lr_halving_epochs: tuple = ()

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class FitPair:
    """One frame pair: heatmaps at t and t+1 plus their peak points."""

    x_t: np.ndarray
    x_t1: np.ndarray
    points_t: tuple
    points_t1: tuple


@dataclass(frozen=True)
class FitResult:
    fwd: OffsetField
    bwd: OffsetField
    trace: tuple  # of dict rows: epoch, lambda_r, l_mot, l_fb, l_se, total


class _AdaptiveMoments:
    """Adaptive-moments updates of one parameter array in place
    (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, lr: float, shape):
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, params: np.ndarray, grad: np.ndarray):
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        self.m *= b1
        self.m += (1.0 - b1) * grad
        self.v *= b2
        self.v += (1.0 - b2) * grad * grad
        params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + eps)


def fit_offsets(pairs, cfg: FitConfig, grid: GroundGrid | None = None,
                workers: int = 1) -> list[FitResult]:
    """Fit forward and backward offset fields for every frame pair.

    Returns one FitResult per pair with the per-epoch loss trace.
    Raises Divergence if any loss becomes non-finite. Pairs are
    independent, so `workers` > 1 fits them in a pool of that many
    processes, capped at the number of pairs; the results are
    bit-identical for any count. The CLI's `fit` and `sweep-fps` take
    the count from GROUNDFLOW_THREADS.
    """
    pairs = list(pairs)
    workers = min(workers, len(pairs))
    if workers <= 1:
        return [_fit_single_pair(p, cfg, grid, i) for i, p in enumerate(pairs)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_fit_single_pair, p, cfg, grid, i)
                   for i, p in enumerate(pairs)]
        return [f.result() for f in futures]


def _fit_single_pair(pair: FitPair, cfg: FitConfig, grid: GroundGrid | None,
                     pair_index: int) -> FitResult:
    x_t = np.asarray(pair.x_t, dtype=np.float64)
    x_t1 = np.asarray(pair.x_t1, dtype=np.float64)
    h, w = x_t.shape
    if grid is None:
        grid = GroundGrid(w, h)
    plan_t = WarpPlan(x_t, cfg.window_cells)
    plan_t1 = WarpPlan(x_t1, cfg.window_cells)
    # lambda_r only rises, so the first epoch's block radius is the largest
    k = 2 * block_radius(cfg.schedule.current, cfg.window_cells) + 1
    workspace = WarpWorkspace(max(plan_t.num_sources, plan_t1.num_sources) * k * k)
    hoods = (
        se_neighborhoods(x_t.shape, pair.points_t, cfg.se_radius),
        se_neighborhoods(x_t.shape, pair.points_t1, cfg.se_radius),
    )
    params = np.zeros((4, h, w))
    fdx, fdy, bdx, bdy = params  # views: the steps below update them in place
    opt = _AdaptiveMoments(cfg.learning_rate, params.shape)
    clamp = (cfg.window_cells - 1) / 2.0
    schedule = cfg.schedule
    trace = []
    targets, targets_lambda = None, None
    for epoch in range(cfg.epochs):
        if epoch in cfg.lr_halving_epochs:
            opt.lr *= 0.5
        rcfg = ReconstructionConfig(schedule.current, cfg.window_cells)
        # the smoothed targets depend on lambda_r only, so once the
        # schedule sits at its cap they are reused as they are
        if rcfg.lambda_r != targets_lambda:
            targets = (smoothed_target(x_t1, rcfg, plan=plan_t1, workspace=workspace),
                       smoothed_target(x_t, rcfg, plan=plan_t, workspace=workspace))
            targets_lambda = rcfg.lambda_r
        out = loss_total(
            x_t, x_t1, (fdx, fdy), (bdx, bdy), pair.points_t, pair.points_t1,
            rcfg, cfg.weights, cfg.se_radius,
            plans=(plan_t, plan_t1), hoods=hoods, targets=targets, workspace=workspace,
        )
        if not np.isfinite(out.total):
            raise Divergence(
                f"pair {pair_index}: loss became non-finite at epoch {epoch}"
            )
        opt.step(params, out.grad)
        np.clip(params, -clamp, clamp, out=params)
        trace.append({"epoch": epoch, "lambda_r": schedule.current, "l_mot": out.l_mot,
                      "l_fb": out.l_fb, "l_se": out.l_se, "total": out.total})
        schedule = schedule_step(schedule)
    return FitResult(
        fwd=OffsetField(grid, fdx, fdy),
        bwd=OffsetField(grid, bdx, bdy),
        trace=tuple(trace),
    )


def trace_csv(trace) -> str:
    """Render one pair's loss trace as CSV.

    The l_det column is the paper's detection term, which is identically
    zero here (see losses.py), so it is written as the constant 0.0.
    """
    lines = ["epoch,lambda_r,l_mot,l_det,l_fb,l_se,total"]
    for row in trace:
        lines.append(
            f"{row['epoch']},{row['lambda_r']!r},{row['l_mot']!r},0.0,"
            f"{row['l_fb']!r},{row['l_se']!r},{row['total']!r}"
        )
    return "\n".join(lines) + "\n"


def finite_diff_check(f, point: np.ndarray, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps an array to (value, gradient-array). The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    point = np.asarray(point, dtype=np.float64)
    _, grad = f(point)
    grad = np.asarray(grad, dtype=np.float64)
    worst = 0.0
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = point.copy()
        minus = point.copy()
        plus[idx] += eps
        minus[idx] -= eps
        fp, _ = f(plus)
        fm, _ = f(minus)
        numeric = (fp - fm) / (2.0 * eps)
        analytic = grad[idx]
        err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, err)
        it.iternext()
    return worst
