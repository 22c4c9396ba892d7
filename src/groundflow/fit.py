"""Gradient-based fitting of offset fields from detection supervision.

The offset fields of each frame pair (forward and backward) are free
variables initialized to zero and optimized directly against the
composite loss. This isolates the detection-only supervision mechanism:
no motion annotations enter anywhere, the warp consistency term alone
has to discover the motion.

The pairs' fits are independent of one another, and the lambda_r
schedule advances once per epoch. A pair's four offset components (fdx,
fdy, bdx, bdy) are the rows of one (4, h, w) array, which the optimizer
steps and the clamp bounds as a whole. Each pair fit owns one
WarpWorkspace, sized once for its larger heatmap at the first epoch's
block radius; both warp directions and the smoothed targets reuse its
buffers every epoch, and it is dropped when the pair is done.

The pairs are fitted in contiguous runs, one run per worker. Within a
run, consecutive pairs that share a frame (x_t1 of one is x_t of the
next) share that frame's plan and smoothed targets: the first pair
smooths the frame once per lambda_r and hands the targets on, and the
next uses each once and drops it. The targets are what the next pair
would compute itself, so only the work passes from pair to pair, and
each pair's result is bit-identical to its fit alone.

The fitted fields are clamped per-component to the window radius, which
bounds the motion one pair can express. The clamp does not make the
windowed forward pass exact: the warp operator's lambda_r-sized blocks
do, since they follow the displaced source to any offset. Only while
lambda_r is so soft that the window caps the block radius (lambda_r <
1.06045 at window 21) are weights above the warp's EPSILON cut off.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

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
    (beta1=0.9, beta2=0.999, eps=1e-8). The step's temporaries go to two
    buffers of the parameters' shape that the optimizer owns."""

    def __init__(self, lr: float, shape):
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._a = np.empty(shape)
        self._b = np.empty(shape)

    def step(self, params: np.ndarray, grad: np.ndarray):
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        a, b = self._a, self._b
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=a)
        self.v *= b2
        np.multiply(grad, 1.0 - b2, out=a)
        self.v += np.multiply(a, grad, out=a)
        # params -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(self.m, c1, out=a)
        a *= self.lr
        np.divide(self.v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        params -= a


def fit_offsets(pairs, cfg: FitConfig, grid: GroundGrid | None = None,
                workers: int = 1) -> list[FitResult]:
    """Fit forward and backward offset fields for every frame pair.

    Returns one FitResult per pair with the per-epoch loss trace.
    Raises Divergence if any loss becomes non-finite. The pairs are split
    into at most `workers` contiguous runs, each fitted serially (see
    _fit_run); more than one run goes to a pool of that many processes.
    The results are bit-identical for any count. The CLI's `fit` and
    `sweep-fps` take the count from GROUNDFLOW_THREADS.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    splits = np.array_split(np.arange(len(pairs)), max(1, min(workers, len(pairs))))
    runs = [(pairs[int(r[0]):int(r[-1]) + 1], cfg, grid, int(r[0])) for r in splits]
    if len(runs) == 1:
        return _fit_run(*runs[0])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(runs)) as pool:
        futures = [pool.submit(_fit_run, *run) for run in runs]
        return [r for f in futures for r in f.result()]


class _FrameTargets(NamedTuple):
    """A frame's plan and its smoothed targets, one per distinct lambda_r of
    the schedule in schedule order, handed from one pair to the next.

    Each target is held packed: the bits of its nonzero cells and their
    values. A target is zero (+0.0) beyond its sources' blocks, on about
    two thirds of the grid in the default scenes, so packed it takes
    about a third of the memory, and it unpacks to the same bits.
    """

    plan: WarpPlan
    targets: deque

    def push(self, target: np.ndarray):
        nonzero = target != 0.0
        self.targets.append((np.packbits(nonzero), target[nonzero]))

    def pop(self) -> np.ndarray:
        bits, values = self.targets.popleft()
        out = np.zeros(self.plan.h * self.plan.w)
        out[np.unpackbits(bits, count=out.size).view(bool)] = values
        return out.reshape(self.plan.h, self.plan.w)


def _fit_run(pairs: list, cfg: FitConfig, grid: GroundGrid | None,
             first_index: int) -> list[FitResult]:
    """Fit consecutive pairs one after another.

    A pair whose x_t equals the previous pair's x_t1 takes that frame's
    plan and smoothed targets instead of computing them again. Every
    pair runs the same lambda_r schedule, so the targets come in the
    order the next pair needs them.
    """
    results = []
    handed = None
    for i, pair in enumerate(pairs):
        keep = i + 1 < len(pairs) and np.array_equal(pairs[i + 1].x_t, pair.x_t1)
        result, handed = _fit_single_pair(pair, cfg, grid, first_index + i, handed, keep)
        results.append(result)
    return results


def _fit_single_pair(pair: FitPair, cfg: FitConfig, grid: GroundGrid | None,
                     pair_index: int, inherited: _FrameTargets | None = None,
                     keep: bool = False) -> tuple[FitResult, _FrameTargets | None]:
    """Fit one pair. `inherited` carries x_t's plan and targets; each target
    is dropped once used. With `keep`, x_t1's plan and targets are returned
    for the next pair, else None."""
    x_t = np.asarray(pair.x_t, dtype=np.float64)
    x_t1 = np.asarray(pair.x_t1, dtype=np.float64)
    h, w = x_t.shape
    if grid is None:
        grid = GroundGrid(w, h)
    if inherited is None:
        inherited = _FrameTargets(WarpPlan(x_t, cfg.window_cells), deque())
    plan_t = inherited.plan
    plan_t1 = WarpPlan(x_t1, cfg.window_cells)
    kept = _FrameTargets(plan_t1, deque()) if keep else None
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
            target_t1 = smoothed_target(x_t1, rcfg, plan=plan_t1, workspace=workspace)
            if inherited.targets:
                target_t = inherited.pop()
            else:
                target_t = smoothed_target(x_t, rcfg, plan=plan_t, workspace=workspace)
            if kept is not None:
                kept.push(target_t1)
            targets = (target_t1, target_t)
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
    ), kept


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
