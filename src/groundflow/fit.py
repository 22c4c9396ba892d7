"""Gradient-based fitting of offset fields from detection supervision.

The offset fields of each frame pair (forward and backward) are free
variables initialized to zero and optimized directly against the
composite loss. This isolates the detection-only supervision mechanism:
no motion annotations enter anywhere, the warp consistency term alone
has to discover the motion.

Pairs are independent and fitted one after another; the lambda_r
schedule advances once per epoch. The fitted fields are clamped
per-component to the window radius, which bounds the motion one pair
can express. The clamp does not make the windowed forward pass exact:
the warp operator's lambda_r-sized blocks do, since they follow the
displaced source to any offset. Only while lambda_r is so soft that the
window caps the block radius (lambda_r < 1.24 at window 21) are weights
above the warp's EPSILON cut off.
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
from .warp import ReconstructionConfig, WarpPlan, smoothed_target

OPTIMIZERS = ("plain-gradient", "momentum", "adaptive-moments")


@dataclass(frozen=True)
class FitConfig:
    epochs: int
    learning_rate: float = 0.05
    schedule: LambdaSchedule = dc_field(default_factory=LambdaSchedule)
    weights: LossWeights = dc_field(default_factory=LossWeights)
    optimizer: str = "adaptive-moments"
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")


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
    trace: tuple  # of dict rows: epoch, lambda_r, l_mot, l_det, l_fb, l_se, total


class _Optimizer:
    """First-order updates over a list of parameter arrays."""

    def __init__(self, kind: str, lr: float, shapes):
        self.kind = kind
        self.lr = lr
        self.step_count = 0
        if kind == "momentum":
            self.vel = [np.zeros(s) for s in shapes]
        elif kind == "adaptive-moments":
            self.m = [np.zeros(s) for s in shapes]
            self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.step_count += 1
        if self.kind == "plain-gradient":
            for p, g in zip(params, grads):
                p -= self.lr * g
        elif self.kind == "momentum":
            for p, g, v in zip(params, grads, self.vel):
                v *= 0.9
                v += g
                p -= self.lr * v
        else:  # adaptive-moments: beta1=0.9, beta2=0.999, eps=1e-8
            b1, b2, eps = 0.9, 0.999, 1e-8
            c1 = 1.0 - b1 ** self.step_count
            c2 = 1.0 - b2 ** self.step_count
            for p, g, m, v in zip(params, grads, self.m, self.v):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


def fit_offsets(pairs, cfg: FitConfig, grid: GroundGrid | None = None,
                workers: int = 1) -> list[FitResult]:
    """Fit forward and backward offset fields for every frame pair.

    Returns one FitResult per pair with the per-epoch loss trace.
    Raises Divergence if any loss becomes non-finite. Pairs are
    independent; `workers` > 1 fits them in a process pool with
    bit-identical results (no shared state between pairs).
    """
    pairs = list(pairs)
    if workers <= 1 or len(pairs) <= 1:
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
    hoods = (
        se_neighborhoods(x_t.shape, pair.points_t, cfg.se_radius),
        se_neighborhoods(x_t.shape, pair.points_t1, cfg.se_radius),
    )
    fdx = np.zeros((h, w))
    fdy = np.zeros((h, w))
    bdx = np.zeros((h, w))
    bdy = np.zeros((h, w))
    params = [fdx, fdy, bdx, bdy]
    opt = _Optimizer(cfg.optimizer, cfg.learning_rate, [p.shape for p in params])
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
            targets = (smoothed_target(x_t1, rcfg, plan=plan_t1),
                       smoothed_target(x_t, rcfg, plan=plan_t))
            targets_lambda = rcfg.lambda_r
        out = loss_total(
            x_t, x_t1, (fdx, fdy), (bdx, bdy), pair.points_t, pair.points_t1,
            rcfg, cfg.weights, cfg.se_radius,
            plans=(plan_t, plan_t1), hoods=hoods, targets=targets,
        )
        if not np.isfinite(out.total):
            raise Divergence(
                f"pair {pair_index}: loss became non-finite at epoch {epoch}"
            )
        opt.step(params, [out.g_fdx, out.g_fdy, out.g_bdx, out.g_bdy])
        for p in params:
            np.clip(p, -clamp, clamp, out=p)
        trace.append({
            "epoch": epoch,
            "lambda_r": schedule.current,
            "l_mot": out.l_mot,
            "l_det": out.l_det,
            "l_fb": out.l_fb,
            "l_se": out.l_se,
            "total": out.total,
        })
        schedule = schedule_step(schedule)
    return FitResult(
        fwd=OffsetField(grid, fdx, fdy),
        bwd=OffsetField(grid, bdx, bdy),
        trace=tuple(trace),
    )


def trace_csv(trace) -> str:
    """Render one pair's loss trace as CSV."""
    lines = ["epoch,lambda_r,l_mot,l_det,l_fb,l_se,total"]
    for row in trace:
        lines.append(
            f"{row['epoch']},{row['lambda_r']!r},{row['l_mot']!r},{row['l_det']!r},"
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
