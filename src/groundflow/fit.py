"""Gradient-based fitting of offset fields from detection supervision.

The offset fields of each frame pair (forward and backward) are free
variables optimized directly against the composite loss. No motion
annotations enter anywhere: the supervision is the detections alone.

A pair starts from zero offsets at the schedule's first lambda_r, whose
weight falls to one half at 10 / (4 * lambda_r) cells, unless its
detections move farther than that. Before epoch 0 the pair's points at t
are matched one-to-one to those at t+1 (least total distance, no match
longer than the clamp). If the median matched distance exceeds the
first lambda_r's half-weight distance, the pair is started: each match's
displacement d fills the forward field on the se neighbourhood of its
point at t, -d fills the backward field on that of its point at t+1,
and the schedule runs from START_LAMBDA, or from its own first lambda_r
if that is sharper, and never past its cap. Any other pair runs from
zero, where the soft start lets the warp term discover the motion. At
full frame rate no pair of the default scene starts: there a sharp
start, from matches or from zero, lost tracks of nearby agents on some
seeds, while at stride 5 every pair starts.

The pairs' fits are independent of one another, and the lambda_r
schedule advances once per epoch. A pair's four offset components (fdx,
fdy, bdx, bdy) are the rows of one (4, h, w) array, which the optimizer
steps and the clamp bounds as a whole.

The pairs are fitted in contiguous runs, one run per worker. A run
builds one _Frame per heatmap as it reaches the pair, which the pairs
on either side of it share when their heatmaps and points there agree.
A frame keeps each smoothed target it makes, keyed by lambda_r, until
the other pair asks for that lambda_r and takes it. Only work passes
from pair to pair, so each pair's result is bit-identical to its fit
alone. A run owns one WarpWorkspace, grown to its largest pass.

`FitConfig.epochs` is a ceiling. After each epoch's step a pair reads its
fields where the trackers read them: fdx/fdy bilinearly at its x_t
points and bdx/bdy at its x_t1 points. It stops once the read-out has
settled: no value moved by more than SETTLED_STEP_FRACTION of the
current step size, net, over the last SETTLE_EPOCHS epochs. A pair is
never stopped while the window still caps the block radius (so its last
epoch's forward pass is exact), nor before its last step-size halving.
The rule reads nothing but the pair's own fit, so a pair's result does
not depend on the worker count or on the pairs fitted before it; its
trace has one row per epoch run.

The fitted fields are clamped per-component to the window radius, which
bounds the motion one pair can express. The clamp does not make the
windowed forward pass exact: the warp operator's lambda_r-sized blocks
do, since they follow the displaced source to any offset. Only while
lambda_r is so soft that the window caps the block radius (lambda_r <
1.06045 at window 21) are weights above the warp's EPSILON cut off.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import GroundGrid, OffsetField
from .errors import Divergence
from .losses import (
    LambdaSchedule,
    LossWeights,
    bilinear_sampler,
    loss_total,
    se_neighborhoods,
)
from .track import associate_hungarian
from .warp import (
    ReconstructionConfig,
    WarpPlan,
    WarpWorkspace,
    _uncapped_radius,
    smoothed_target,
)

# The stop rule's bound follows the step size: an adaptive-moments step
# moves each value by up to about the learning rate, so a fixed bound in
# cells would stop a fit with a small rate at once. The net move over
# several epochs catches a slow drift that each epoch's move hides.
SETTLE_EPOCHS = 5
SETTLED_STEP_FRACTION = 0.5

# The first lambda_r of a started pair (see the module docstring). Its
# block radius is 6 cells, so no window of 13 or more caps the block.
START_LAMBDA = 2.0


@dataclass(frozen=True)
class FitConfig:
    """How each pair is fitted. Each `fit.*` key of the CLI defaults to its field here."""

    epochs: int = 80  # the ceiling; a pair stops sooner once its read-out settles
    learning_rate: float = 0.25
    schedule: LambdaSchedule = LambdaSchedule()
    weights: LossWeights = LossWeights()
    # caps the warp's block radius; each offset component is clamped to
    # the window radius (window_cells - 1) / 2
    window_cells: int = 21
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
        if self.window_cells < 3 or self.window_cells % 2 == 0:
            raise ValueError("window_cells must be odd and >= 3")
        if not (self.se_radius >= 0):
            raise ValueError("se_radius must be >= 0")


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
    trace: tuple  # of dict rows, one per epoch run: epoch, lambda_r, l_mot, l_fb, l_se, total


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
    The results are bit-identical for any count. The CLI's `fit`,
    `sweep-fps` and `ablate` take the count from GROUNDFLOW_THREADS.
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


class _Frame:
    """One heatmap of a run and its points, with what the pairs on either
    side of it need: its plan, se_neighborhoods matrix and read-out
    sampler, and the smoothed targets that one pair made and the other
    has not taken yet, keyed by lambda_r.

    Each target is held packed: the bits of its nonzero cells and their
    values. A target is zero (+0.0) beyond its sources' blocks, on about
    two thirds of the grid in the default scenes, so packed it takes
    about a third of the memory, and it unpacks to the same bits.
    """

    def __init__(self, x, points, cfg: FitConfig):
        self.x = np.asarray(x, dtype=np.float64)
        self.points = points
        self.plan = WarpPlan(self.x, cfg.window_cells)
        self.hoods = se_neighborhoods(self.x.shape, points, cfg.se_radius)
        self.read = bilinear_sampler(self.x.shape,
                                     *np.reshape(points, (-1, 2)).T.astype(np.float64))
        self.targets = {}

    def target(self, lambda_r: float, workspace: WarpWorkspace) -> np.ndarray:
        """The frame's smoothed target at lambda_r: the one kept for it,
        which the frame gives up, or else a new one, which it keeps."""
        if lambda_r not in self.targets:
            target = smoothed_target(self.plan, lambda_r, workspace)
            nonzero = target != 0.0
            self.targets[lambda_r] = (np.packbits(nonzero), target[nonzero])
            return target
        bits, values = self.targets.pop(lambda_r)
        out = np.zeros(self.x.size)
        out[np.unpackbits(bits, count=out.size).view(bool)] = values
        return out.reshape(self.x.shape)


def _fit_run(pairs: list, cfg: FitConfig, grid: GroundGrid | None,
             first_index: int) -> list[FitResult]:
    """Fit consecutive pairs one after another, over one _Frame per
    heatmap and one WarpWorkspace (see the module docstring)."""
    workspace = WarpWorkspace()
    results, frame_t1 = [], None
    for i, pair in enumerate(pairs):
        frame_t = frame_t1
        if not (frame_t and np.array_equal(pair.x_t, frame_t.x)
                and np.array_equal(pair.points_t, frame_t.points)):
            frame_t = _Frame(pair.x_t, pair.points_t, cfg)
        frame_t1 = _Frame(pair.x_t1, pair.points_t1, cfg)
        results.append(_fit_pair(frame_t, frame_t1, workspace, cfg, grid, first_index + i))
    return results


def _matches(points_t, points_t1, clamp: float):
    """The one-to-one matches of least total distance from the points at t
    to those at t+1, none longer than `clamp`: the matched indices i and j
    in the order of i, and the (k, 2) displacements points_t1[j] -
    points_t[i]."""
    a = np.reshape(points_t, (-1, 2)).astype(np.float64)
    b = np.reshape(points_t1, (-1, 2)).astype(np.float64)
    diff = b[None, :, :] - a[:, None, :]
    matched = associate_hungarian(np.hypot(diff[..., 0], diff[..., 1]), cutoff=clamp)
    i, j = np.array(matched, dtype=np.int64).reshape(-1, 2).T
    return i, j, diff[i, j]


def _start(frame_t: _Frame, frame_t1: _Frame, schedule: LambdaSchedule, clamp: float):
    """A pair's first offsets, as the rows (fdx, fdy, bdx, bdy) of one
    (4, h, w) array, and the schedule it runs: zero offsets and
    `schedule`, or, for a started pair, its matches' displacements and the
    schedule from START_LAMBDA (see the module docstring)."""
    h, w = frame_t.x.shape
    i, j, d = _matches(frame_t.points, frame_t1.points, clamp)
    if not len(d) or np.median(np.hypot(d[:, 0], d[:, 1])) <= 10.0 / (4.0 * schedule.init):
        return np.zeros((4, h, w)), schedule
    # the last column takes the writes of the neighbourhoods' padding, h * w;
    # where neighbourhoods overlap, the later match's displacement stays
    flat = np.zeros((4, h * w + 1))
    for cells_t, cells_t1, (dx, dy) in zip(frame_t.hoods[i], frame_t1.hoods[j], d):
        flat[0, cells_t], flat[1, cells_t] = dx, dy
        flat[2, cells_t1], flat[3, cells_t1] = -dx, -dy
    params = np.clip(flat[:, :-1], -clamp, clamp).reshape(4, h, w)
    lambda_0 = max(schedule.init, min(START_LAMBDA, schedule.cap))
    return params, replace(schedule, init=lambda_0)


def _fit_pair(frame_t: _Frame, frame_t1: _Frame, workspace: WarpWorkspace, cfg: FitConfig,
              grid: GroundGrid | None, pair_index: int) -> FitResult:
    """Fit the pair of two frames until its read-out settles (see the
    module docstring) or for cfg.epochs epochs."""
    h, w = frame_t.x.shape
    if grid is None:
        grid = GroundGrid(w, h)
    radius = (cfg.window_cells - 1) // 2
    clamp = float(radius)
    params, schedule = _start(frame_t, frame_t1, cfg.schedule, clamp)
    fdx, fdy, bdx, bdy = params  # views: the steps below update them in place
    opt = _AdaptiveMoments(cfg.learning_rate, params.shape)
    last_halving = max(cfg.lr_halving_epochs, default=-1)
    readouts = deque(maxlen=SETTLE_EPOCHS + 1)
    trace = []
    targets, targets_lambda = None, None
    for epoch, lambda_r in enumerate(schedule.values(cfg.epochs)):
        if epoch in cfg.lr_halving_epochs:
            opt.lr *= 0.5
        rcfg = ReconstructionConfig(lambda_r, cfg.window_cells)
        # the smoothed targets depend on lambda_r only, so once the
        # schedule sits at its cap they are reused as they are
        if lambda_r != targets_lambda:
            targets = (frame_t1.target(lambda_r, workspace), frame_t.target(lambda_r, workspace))
            targets_lambda = lambda_r
        out = loss_total(
            frame_t.x, frame_t1.x, (fdx, fdy), (bdx, bdy), frame_t.points, frame_t1.points,
            rcfg, cfg.weights, cfg.se_radius, plans=(frame_t.plan, frame_t1.plan),
            hoods=(frame_t.hoods, frame_t1.hoods), targets=targets, workspace=workspace,
        )
        if not np.isfinite(out.total):
            raise Divergence(
                f"pair {pair_index}: loss became non-finite at epoch {epoch}"
            )
        opt.step(params, out.grad)
        np.clip(params, -clamp, clamp, out=params)
        trace.append({"epoch": epoch, "lambda_r": lambda_r, "l_mot": out.l_mot,
                      "l_fb": out.l_fb, "l_se": out.l_se, "total": out.total})
        readouts.append(np.concatenate([frame_t.read(params[:2]), frame_t1.read(params[2:])],
                                       axis=1))
        if (_uncapped_radius(lambda_r) <= radius and epoch >= last_halving
                and len(readouts) == readouts.maxlen
                and np.abs(readouts[-1] - readouts[0]).max(initial=0.0)
                <= SETTLED_STEP_FRACTION * opt.lr):
            break
    return FitResult(
        fwd=OffsetField(grid, fdx, fdy),
        bwd=OffsetField(grid, bdx, bdy),
        trace=tuple(trace),
    )


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
