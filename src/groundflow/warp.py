"""Differentiable reconstruction-from-motion.

A heatmap at time t and a per-cell offset field predict the heatmap at
time t+1: every output cell j accumulates x_i * W(||j - (i + delta_i)||)
over source cells i, where W is a logistic weight that decays with
distance. The production path spreads each source over a square block
of (2R + 1)^2 output cells centred on the cell nearest its displaced
position i + delta_i, so every cell outside the block lies at least
R + 1/2 from that position (the half-cell bound).
R = block_radius(lambda_r, window_cells) is the smallest radius for
which that bound puts every cell left out below the weight EPSILON,
capped by the window radius. Below the cap the block follows the source
to any offset, so the windowed pass equals the dense sum up to weights
below EPSILON. The window caps R for soft lambda_r, at window 21
(radius 10) for lambda_r < 1.06045, and then cuts off weights above
EPSILON. The dense path is the O(N^2) oracle used for verification.

Every S x (2R + 1)^2 step (S nonzero sources) writes into the prefix
views of a WarpWorkspace, so a fit that keeps one workspace allocates
only when a pass outgrows it, not once per pass. The caller owns the
workspace; the public one-shot functions use a throwaway one. A forward
pass records its plan, lambda_r and blocks in the workspace, where the
offset gradient reads them, until the next pass through the workspace.

Bit-reproducibility: each output cell accumulates its block
contributions in row-major source order regardless of how the work is
batched, so results are identical across runs and worker counts.
Sources with x_i == 0 contribute exactly +0.0 and may be skipped
without changing any bit of the result.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Heatmap, OffsetField
from .errors import DimensionMismatch

# The exponent of the weight function is clamped to at most 60 before
# exponentiation. No lower clamp is needed: from an exponent of -37 down,
# the weight already rounds to exactly 1.0.
EXP_CLAMP = 60.0

# Weights below EPSILON are left out of the windowed pass: W(l) < EPSILON
# once 4 * lambda_r * l - 10 exceeds ln(1 / EPSILON).
EPSILON = 1e-15
_REACH_EXPONENT = 10.0 + math.log(1.0 / EPSILON)


def _uncapped_radius(lambda_r: float) -> int:
    """The smallest block radius at which every cell left out weighs less
    than EPSILON.

    W < EPSILON from the reach (10 + ln(1 / EPSILON)) / (4 * lambda_r) on.
    A block is centred on the cell nearest the displaced source, within
    1/2 of it per component, so a cell outside a radius-R block lies at
    least R + 1/2 away: R is the smallest with R + 1/2 >= reach. A reach
    that overflows (lambda_r below about 1e-308) counts as the largest
    float, a radius beyond any window.
    """
    reach = min(_REACH_EXPONENT / (4.0 * lambda_r), sys.float_info.max)
    return max(0, math.ceil(reach - 0.5))


def block_radius(lambda_r: float, window_cells: int) -> int:
    """R(lambda_r): the radius of each source's block, capped by the window."""
    return min((int(window_cells) - 1) // 2, _uncapped_radius(lambda_r))


@dataclass(frozen=True)
class ReconstructionConfig:
    """Decay speed of the reconstruction operator and the window that caps
    its block radius (see block_radius)."""

    lambda_r: float
    window_cells: int

    def __post_init__(self):
        if not (self.lambda_r > 0):
            raise ValueError("lambda_r must be positive")
        w = int(self.window_cells)
        if w < 3 or w % 2 == 0:
            raise ValueError("window_cells must be odd and >= 3")

    @property
    def window_radius(self) -> int:
        return (self.window_cells - 1) // 2


def weight(l, lambda_r: float):
    """Distance weight W(l) = 1 / (1 + exp(4 * lambda_r * l - 10)), computed
    as every reconstruction path computes it (see _weights_from_l)."""
    out = _weights_from_l(np.atleast_1d(np.asarray(l, dtype=np.float64)), lambda_r)
    if np.ndim(l) == 0:
        return float(out[0])
    return out


def _weights_from_l(l: np.ndarray, lambda_r: float, out: np.ndarray | None = None) -> np.ndarray:
    """W evaluated from distances; shared by every reconstruction path.

    Distances at or beyond the exponent clamp give the saturated weight
    1 / (1 + exp(EXP_CLAMP)). A NaN distance gives a NaN weight. The
    weights go to `out` when given.
    """
    t = np.multiply(l, 4.0 * lambda_r, out=out)
    t -= 10.0
    np.minimum(t, EXP_CLAMP, out=t)
    np.exp(t, out=t)
    t += 1.0
    np.reciprocal(t, out=t)
    return t


def _values_of(x) -> np.ndarray:
    if isinstance(x, Heatmap):
        return x.values
    return np.asarray(x, dtype=np.float64)


def _offsets_of(delta) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(delta, OffsetField):
        return delta.dx, delta.dy
    dx, dy = delta
    return np.asarray(dx, dtype=np.float64), np.asarray(dy, dtype=np.float64)


class WarpPlan:
    """The nonzero source cells of one heatmap, in row-major order, and the
    window that caps every block's radius.

    The block layout depends on the offsets and on lambda_r, so each pass
    computes its own (see _block_distances) into a WarpWorkspace that the
    caller owns. A plan holds no buffers: it saves finding the sources
    again when the same heatmap is warped repeatedly, and one workspace
    serves any number of plans.
    """

    def __init__(self, values: np.ndarray, window_cells: int):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionMismatch("heatmap must be 2-dimensional")
        self.h, self.w = values.shape
        self.window = int(window_cells)
        ys, xs = np.nonzero(values)
        self.ys = ys
        self.xs = xs
        self.vals = values[ys, xs]

    @property
    def num_sources(self) -> int:
        return self.vals.size


class _Blocks(NamedTuple):
    """(S, K, K) views of a workspace's buffers for one pass."""

    l: np.ndarray      # distances
    wb: np.ndarray     # weights
    a: np.ndarray      # scratch: contributions, then W' and 1/l
    b: np.ndarray      # scratch: the gathered upstream gradient
    idx: np.ndarray    # flat padded block indices (int64)
    mask: np.ndarray   # scratch: where 1/l is defined (bool)


# buffer dtypes of a workspace, in the field order of _Blocks
_BLOCK_DTYPES = (np.float64,) * 4 + (np.int64, np.bool_)


class WarpWorkspace:
    """Reusable buffers for the S x K x K steps of the windowed warp.

    Four float64 buffers, one int64 index buffer and one bool mask, each
    flat and empty to begin with. A pass over S sources with blocks K
    cells wide uses their (S, K, K) prefix views, first dropping and
    regrowing the buffers when they are too small, so a workspace grows
    to the largest pass of a fit. `forward` is (plan, lambda_r, blocks,
    pad, dxb, dyb) of the last pass that claimed the buffers if that was
    a forward pass (reconstruct_with_plan), and None otherwise.
    """

    def __init__(self):
        self.forward = None
        self._bufs = tuple(np.empty(0, dtype=t) for t in _BLOCK_DTYPES)

    def claim(self, s: int, k: int) -> _Blocks:
        """(s, k, k) views of the buffers for a new pass; drops `forward`
        first, whose views would keep outgrown buffers alive."""
        self.forward = None
        n = s * k * k
        if n > self._bufs[0].size:
            self._bufs = ()
            self._bufs = tuple(np.empty(n, dtype=t) for t in _BLOCK_DTYPES)
        return _Blocks(*(buf[:n].reshape(s, k, k) for buf in self._bufs))


def _flat_blocks(by: np.ndarray, bx: np.ndarray, r: int, w: int, out: np.ndarray) -> int:
    """Flat indices of the radius-r blocks centred on (by, bx), in a grid of
    width w padded by 2r + 1 cells on every side, written to the (S, K, K)
    `out`; returns the padding."""
    pad = 2 * r + 1
    wp = w + 2 * pad
    off = np.arange(-r, r + 1, dtype=np.int64)
    rel = off[:, None] * wp + off[None, :]
    np.add(((by + pad) * wp + (bx + pad))[:, None, None], rel[None, :, :], out=out)
    return pad


def _block_distances(ys: np.ndarray, xs: np.ndarray, dx: np.ndarray, dy: np.ndarray, r: int,
                     blocks: _Blocks) -> tuple[int, np.ndarray, np.ndarray]:
    """Radius-r blocks of the sources (ys, xs) displaced by the offset field.

    Each block is centred on the cell nearest the displaced source, clipped
    to within r + 1 cells of the grid: a clipped block lies wholly in the
    padding, where the source's weights are below EPSILON anyway, and the
    padding stays bounded for any offset. A non-finite offset keeps its
    block on the source and makes its distances NaN, so the output is NaN
    there. Writes the (S, K, K) distances to blocks.l and the flat padded
    indices (see _flat_blocks) to blocks.idx. Returns (pad, dxb, dyb), with
    the (S, K) coordinate differences j - c per axis.
    """
    h, w = dx.shape
    cx = xs + dx[ys, xs]
    cy = ys + dy[ys, xs]
    bx = np.clip(np.rint(cx), -(r + 1), w + r)
    by = np.clip(np.rint(cy), -(r + 1), h + r)
    bad = ~(np.isfinite(cx) & np.isfinite(cy))
    if bad.any():
        bx[bad] = xs[bad]
        by[bad] = ys[bad]
        cx[bad] = np.nan
        cy[bad] = np.nan
    bx = bx.astype(np.int64)
    by = by.astype(np.int64)
    off = np.arange(-r, r + 1, dtype=np.int64)
    dxb = (bx[:, None] + off[None, :]).astype(np.float64) - cx[:, None]  # (S, K)
    dyb = (by[:, None] + off[None, :]).astype(np.float64) - cy[:, None]
    l = np.add((dxb * dxb)[:, None, :], (dyb * dyb)[:, :, None], out=blocks.l)
    np.sqrt(l, out=l)
    pad = _flat_blocks(by, bx, r, w, blocks.idx)
    return pad, dxb, dyb


def _scatter(h: int, w: int, pad: int, idx: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = np.bincount(idx.ravel(), weights=contrib.ravel(), minlength=hp * wp)
    return np.ascontiguousarray(padded.reshape(hp, wp)[pad:pad + h, pad:pad + w])


def _padded_flat(a: np.ndarray, pad: int) -> np.ndarray:
    h, w = a.shape
    out = np.zeros((h + 2 * pad, w + 2 * pad))
    out[pad:pad + h, pad:pad + w] = a
    return out.ravel()


def reconstruct_with_plan(plan: WarpPlan, dx: np.ndarray, dy: np.ndarray,
                          lambda_r: float, workspace: WarpWorkspace) -> np.ndarray:
    """Windowed forward pass using a prebuilt plan; returns an (h, w) array.

    The S x K x K steps run in `workspace`, which then records the pass
    for the offset gradient. A plan without sources claims nothing and
    leaves the record as it was.
    """
    if plan.num_sources == 0:
        return np.zeros((plan.h, plan.w))
    r = block_radius(lambda_r, plan.window)
    blocks = workspace.claim(plan.num_sources, 2 * r + 1)
    pad, dxb, dyb = _block_distances(plan.ys, plan.xs, dx, dy, r, blocks)
    wb = _weights_from_l(blocks.l, lambda_r, out=blocks.wb)
    contrib = np.multiply(plan.vals[:, None, None], wb, out=blocks.a)
    workspace.forward = (plan, lambda_r, blocks, pad, dxb, dyb)
    return _scatter(plan.h, plan.w, pad, blocks.idx, contrib)


@lru_cache(maxsize=256)
def _zero_offset_kernel(lambda_r: float, r: int) -> np.ndarray:
    """The (2r+1, 2r+1) weight block shared by all sources when offsets are zero."""
    off = np.arange(-r, r + 1, dtype=np.int64).astype(np.float64)
    d2 = (off * off)[None, :] + (off * off)[:, None]
    l = np.sqrt(d2, out=d2)
    kernel = _weights_from_l(l, lambda_r)
    kernel.setflags(write=False)
    return kernel


def grad_offsets_with_plan(plan: WarpPlan, upstream: np.ndarray, lambda_r: float,
                           workspace: WarpWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """d(loss)/d(offset components), supported on the plan's source cells.

    Reads the forward pass that `workspace` records, which must be a pass
    of this plan at this lambda_r (ValueError otherwise). The offset
    gradient is
    x_i * sum_j upstream_j * W'(l) * (-(j - c_i) / l) with
    W'(l) = -4 * lambda_r * W * (1 - W); the direction factor is defined
    as zero where l < 1e-8. The pass uses the workspace's scratch buffers
    and leaves the record, with its distances, weights and indices, as it is.
    """
    g_dx = np.zeros((plan.h, plan.w))
    g_dy = np.zeros((plan.h, plan.w))
    if plan.num_sources == 0:
        return g_dx, g_dy
    fwd_plan, fwd_lambda, blocks, pad, dxb, dyb = workspace.forward or (None,) * 6
    if fwd_plan is not plan or fwd_lambda != lambda_r:
        raise ValueError("the workspace holds no forward pass of this plan at this lambda_r")
    l, wb = blocks.l, blocks.wb

    wprime = np.subtract(1.0, wb, out=blocks.a)
    wprime *= wb
    wprime *= -4.0 * lambda_r
    # indices lie in the padded grid by construction, so clipping changes
    # none; take with mode="raise" would buffer its output
    common = np.take(_padded_flat(upstream, pad), blocks.idx, out=blocks.b, mode="clip")
    common *= wprime
    inv_l = blocks.a
    inv_l.fill(0.0)
    np.divide(1.0, l, out=inv_l, where=np.greater_equal(l, 1e-8, out=blocks.mask))
    common *= inv_l
    sx = -np.einsum("sab,sb->s", common, dxb)
    sy = -np.einsum("sab,sa->s", common, dyb)
    g_dx[plan.ys, plan.xs] = plan.vals * sx
    g_dy[plan.ys, plan.xs] = plan.vals * sy
    return g_dx, g_dy


def _check_shapes(values, dx, dy):
    if dx.shape != values.shape or dy.shape != values.shape:
        raise DimensionMismatch(
            f"heatmap {values.shape} and offset field {dx.shape}/{dy.shape} must share one grid"
        )


def reconstruct(X, delta, cfg: ReconstructionConfig) -> np.ndarray:
    """Windowed reconstruction: warp heatmap X by the offset field.

    Output values may exceed 1 (overlapping contributions superpose); the
    loss compares against targets smoothed by the same operator, so no
    clamping is applied. When the window caps the block radius below what
    lambda_r needs, weights above EPSILON are cut off; that is reported
    as a warning.
    """
    values = _values_of(X)
    dx, dy = _offsets_of(delta)
    _check_shapes(values, dx, dy)
    needed = _uncapped_radius(cfg.lambda_r)
    if needed > cfg.window_radius:
        warnings.warn(
            f"lambda_r {cfg.lambda_r:g} needs a block radius of {needed:g} cells but the "
            f"window caps it at {cfg.window_radius}; weights above {EPSILON:g} are cut off",
            RuntimeWarning,
            stacklevel=2,
        )
    plan = WarpPlan(values, cfg.window_cells)
    return reconstruct_with_plan(plan, dx, dy, cfg.lambda_r, WarpWorkspace())


def reconstruct_dense(X, delta, lambda_r: float) -> np.ndarray:
    """O(N^2) oracle: the same sum without any windowing.

    Intended for small grids; memory is bounded by computing 8 output
    rows at a time.
    """
    values = _values_of(X)
    dx, dy = _offsets_of(delta)
    _check_shapes(values, dx, dy)
    h, w = values.shape
    yy, xx = np.mgrid[0:h, 0:w]
    cx = (xx + dx).ravel()
    cy = (yy + dy).ravel()
    vals = values.ravel()
    out = np.empty(h * w)
    jx_all = xx.ravel().astype(np.float64)
    jy_all = yy.ravel().astype(np.float64)
    step = 8 * w
    for j0 in range(0, h * w, step):
        j1 = min(j0 + step, h * w)
        dxm = jx_all[j0:j1, None] - cx[None, :]
        dym = jy_all[j0:j1, None] - cy[None, :]
        d2 = dxm * dxm + dym * dym
        l = np.sqrt(d2, out=d2)
        wb = _weights_from_l(l, lambda_r)
        out[j0:j1] = (wb * vals[None, :]).sum(axis=1)
    return out.reshape(h, w)


def smoothed_target(plan: WarpPlan, lambda_r: float, workspace: WarpWorkspace) -> np.ndarray:
    """The plan's heatmap passed through the operator with zero offsets.

    Gives targets the same lambda_r-dependent blur as predictions. Bitwise
    identical to reconstruct_with_plan with zero offset arrays: with
    delta = 0 every block is centred on its source and its weights are
    one shared radial kernel of the integer block offsets. Runs in
    `workspace` as a pass that records no forward pass.
    """
    if plan.num_sources == 0:
        return np.zeros((plan.h, plan.w))
    r = block_radius(lambda_r, plan.window)
    kernel = _zero_offset_kernel(float(lambda_r), r)
    blocks = workspace.claim(plan.num_sources, 2 * r + 1)
    pad = _flat_blocks(plan.ys, plan.xs, r, plan.w, blocks.idx)
    contrib = np.multiply(plan.vals[:, None, None], kernel[None, :, :], out=blocks.a)
    return _scatter(plan.h, plan.w, pad, blocks.idx, contrib)
