"""Differentiable reconstruction-from-motion.

A heatmap at time t and a per-cell offset field predict the heatmap at
time t+1: every output cell j accumulates x_i * W(||j - (i + delta_i)||)
over source cells i, where W is a logistic weight that decays with
distance. The production path spreads each source over a square block
of (2R + 1)^2 output cells centred on the cell nearest its displaced
position i + delta_i. R = block_radius(lambda_r, window_cells) is the
smallest radius beyond which W < EPSILON, capped by the window radius;
below the cap the block follows the source to any offset, so the
windowed pass equals the dense sum up to weights below EPSILON. The
dense path is the O(N^2) oracle used for verification.

Bit-reproducibility: each output cell accumulates its block
contributions in row-major source order regardless of how the work is
batched, so results are identical across runs and worker counts.
Sources with x_i == 0 contribute exactly +0.0 and may be skipped
without changing any bit of the result.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Heatmap, OffsetField
from .errors import DimensionMismatch

logger = logging.getLogger(__name__)

# The exponent of the weight function is clamped to [-60, 60] before
# exponentiation; for l >= 0 only the upper clamp is reachable.
EXP_CLAMP = 60.0

# Weights below EPSILON are left out of the windowed pass: W(l) < EPSILON
# once 4 * lambda_r * l - 10 exceeds ln(1 / EPSILON).
EPSILON = 1e-15
_REACH_EXPONENT = 10.0 + math.log(1.0 / EPSILON)


def _uncapped_radius(lambda_r: float) -> int:
    """Block radius at which every cell left out weighs less than EPSILON.

    A block centre is within 1/2 of the displaced source per component,
    so a cell outside a radius-R block lies at least R + 1/2 away.
    """
    return math.ceil(_REACH_EXPONENT / (4.0 * lambda_r)) + 1


def block_radius(lambda_r: float, window_cells: int) -> int:
    """R(lambda_r): the radius of each source's block, capped by the window."""
    return min((int(window_cells) - 1) // 2, _uncapped_radius(lambda_r))


@dataclass(frozen=True)
class ReconstructionConfig:
    """Decay speed of the reconstruction operator and the window that caps
    its block radius (see block_radius)."""

    lambda_r: float
    window_cells: int = 59

    def __post_init__(self):
        if not (self.lambda_r > 0):
            raise ValueError("lambda_r must be positive")
        w = int(self.window_cells)
        if w < 3 or w % 2 == 0:
            raise ValueError("window_cells must be odd and >= 3")

    @property
    def window_radius(self) -> int:
        return (self.window_cells - 1) // 2


@dataclass(frozen=True)
class WarpGradients:
    """Gradients of a scalar loss through the reconstruction operator."""

    d_heatmap: np.ndarray
    d_offset_x: np.ndarray
    d_offset_y: np.ndarray


def weight(l, lambda_r: float):
    """Distance weight W(l) = 1 / (1 + exp(4 * lambda_r * l - 10))."""
    t = np.clip(4.0 * lambda_r * np.asarray(l, dtype=np.float64) - 10.0, -EXP_CLAMP, EXP_CLAMP)
    out = 1.0 / (1.0 + np.exp(t))
    if np.ndim(l) == 0:
        return float(out)
    return out


def _weights_from_l(l: np.ndarray, lambda_r: float) -> np.ndarray:
    """W evaluated from distances; shared by every reconstruction path.

    Distances at or beyond the exponent clamp give the saturated weight
    1 / (1 + exp(EXP_CLAMP)). A NaN distance gives a NaN weight.
    """
    t = l * (4.0 * lambda_r)
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
    computes its own (see _block_distances); a plan only saves finding the
    sources again when the same heatmap is warped repeatedly.
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


def _flat_blocks(by: np.ndarray, bx: np.ndarray, r: int, w: int) -> tuple[np.ndarray, int]:
    """Flat indices of the radius-r blocks centred on (by, bx), in a grid of
    width w padded by 2r + 1 cells on every side; returns (idx, pad)."""
    pad = 2 * r + 1
    wp = w + 2 * pad
    off = np.arange(-r, r + 1, dtype=np.int64)
    rel = off[:, None] * wp + off[None, :]
    idx = ((by + pad) * wp + (bx + pad))[:, None, None] + rel[None, :, :]
    return idx.ravel(), pad


def _block_distances(ys: np.ndarray, xs: np.ndarray, dx: np.ndarray, dy: np.ndarray, r: int):
    """Radius-r blocks of the sources (ys, xs) displaced by the offset field.

    Each block is centred on the cell nearest the displaced source, clipped
    to within r + 1 cells of the grid: a clipped block lies wholly in the
    padding, where the source's weights are below EPSILON anyway, and the
    padding stays bounded for any offset. A non-finite offset keeps its
    block on the source and makes its distances NaN, so the output is NaN
    there. Returns (idx, pad, dxb, dyb, l): flat padded indices (see
    _flat_blocks), the (S, K) coordinate differences j - c per axis and
    the (S, K, K) distances.
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
    d2 = (dxb * dxb)[:, None, :] + (dyb * dyb)[:, :, None]  # (S, K, K)
    l = np.sqrt(d2, out=d2)
    idx, pad = _flat_blocks(by, bx, r, w)
    return idx, pad, dxb, dyb, l


def _scatter(h: int, w: int, pad: int, idx: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    hp, wp = h + 2 * pad, w + 2 * pad
    padded = np.bincount(idx, weights=contrib.ravel(), minlength=hp * wp)
    return np.ascontiguousarray(padded.reshape(hp, wp)[pad:pad + h, pad:pad + w])


def _padded_flat(a: np.ndarray, pad: int) -> np.ndarray:
    h, w = a.shape
    out = np.zeros((h + 2 * pad, w + 2 * pad))
    out[pad:pad + h, pad:pad + w] = a
    return out.ravel()


def reconstruct_with_plan(plan: WarpPlan, dx: np.ndarray, dy: np.ndarray,
                          lambda_r: float, cache: dict | None = None) -> np.ndarray:
    """Windowed forward pass using a prebuilt plan; returns an (h, w) array.

    If `cache` is a dict, the block layout, distances and weights are
    stored in it for reuse by the backward pass.
    """
    if plan.num_sources == 0:
        return np.zeros((plan.h, plan.w))
    idx, pad, dxb, dyb, l = _block_distances(plan.ys, plan.xs, dx, dy,
                                             block_radius(lambda_r, plan.window))
    wb = _weights_from_l(l, lambda_r)
    contrib = plan.vals[:, None, None] * wb
    if cache is not None:
        cache.update(idx=idx, pad=pad, dxb=dxb, dyb=dyb, l=l, wb=wb, lambda_r=lambda_r)
    return _scatter(plan.h, plan.w, pad, idx, contrib)


@lru_cache(maxsize=256)
def _zero_offset_kernel(lambda_r: float, r: int) -> np.ndarray:
    """The (2r+1, 2r+1) weight block shared by all sources when offsets are zero."""
    off = np.arange(-r, r + 1, dtype=np.int64).astype(np.float64)
    d2 = (off * off)[None, :] + (off * off)[:, None]
    l = np.sqrt(d2, out=d2)
    kernel = _weights_from_l(l, lambda_r)
    kernel.setflags(write=False)
    return kernel


def reconstruct_zero_offset(plan: WarpPlan, lambda_r: float) -> np.ndarray:
    """Forward pass with identically zero offsets (shared radial kernel).

    Bitwise identical to reconstruct_with_plan with zero offset arrays:
    with delta = 0 every block is centred on its source and its weights
    are the same function of the integer block offsets.
    """
    if plan.num_sources == 0:
        return np.zeros((plan.h, plan.w))
    r = block_radius(lambda_r, plan.window)
    kernel = _zero_offset_kernel(float(lambda_r), r)
    idx, pad = _flat_blocks(plan.ys, plan.xs, r, plan.w)
    contrib = plan.vals[:, None, None] * kernel[None, :, :]
    return _scatter(plan.h, plan.w, pad, idx, contrib)


def grad_offsets_with_plan(plan: WarpPlan, upstream: np.ndarray, lambda_r: float,
                           cache: dict | None = None,
                           dx: np.ndarray | None = None,
                           dy: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """d(loss)/d(offset components), supported on the plan's source cells.

    The offset gradient is x_i * sum_j upstream_j * W'(l) * (-(j - c_i) / l)
    with W'(l) = -4 * lambda_r * W * (1 - W); the direction factor is
    defined as zero where l < 1e-8.
    """
    g_dx = np.zeros((plan.h, plan.w))
    g_dy = np.zeros((plan.h, plan.w))
    if plan.num_sources == 0:
        return g_dx, g_dy
    if cache is not None and "l" in cache and cache.get("lambda_r") == lambda_r:
        idx, pad = cache["idx"], cache["pad"]
        dxb, dyb, l, wb = cache["dxb"], cache["dyb"], cache["l"], cache["wb"]
    else:
        if dx is None or dy is None:
            raise ValueError("need either a forward cache or the offset arrays")
        idx, pad, dxb, dyb, l = _block_distances(plan.ys, plan.xs, dx, dy,
                                                 block_radius(lambda_r, plan.window))
        wb = _weights_from_l(l, lambda_r)

    upb = _padded_flat(upstream, pad)[idx].reshape(wb.shape)

    inv_l = np.zeros_like(l)
    np.divide(1.0, l, out=inv_l, where=l >= 1e-8)
    wprime = 1.0 - wb
    wprime *= wb
    wprime *= -4.0 * lambda_r
    common = upb * wprime
    common *= inv_l
    sx = -np.einsum("sab,sb->s", common, dxb)
    sy = -np.einsum("sab,sa->s", common, dyb)
    g_dx[plan.ys, plan.xs] = plan.vals * sx
    g_dy[plan.ys, plan.xs] = plan.vals * sy
    return g_dx, g_dy


def _grad_heatmap_full(values: np.ndarray, dx: np.ndarray, dy: np.ndarray,
                       upstream: np.ndarray, cfg: ReconstructionConfig,
                       chunk: int = 2048) -> np.ndarray:
    """d(loss)/d(x_i) for every cell i: sum_j upstream_j * W(l_ij) over the
    block the forward pass gives cell i."""
    h, w = values.shape
    r = block_radius(cfg.lambda_r, cfg.window_cells)
    up_flat = _padded_flat(upstream, 2 * r + 1)
    out = np.empty(h * w)
    ys_all, xs_all = np.divmod(np.arange(h * w, dtype=np.int64), w)
    for s0 in range(0, h * w, chunk):
        s1 = min(s0 + chunk, h * w)
        idx, _, _, _, l = _block_distances(ys_all[s0:s1], xs_all[s0:s1], dx, dy, r)
        wb = _weights_from_l(l, cfg.lambda_r)
        upb = up_flat[idx].reshape(wb.shape)
        out[s0:s1] = np.einsum("sab,sab->s", upb, wb)
    return out.reshape(h, w)


def _check_shapes(values, dx, dy, upstream=None):
    if dx.shape != values.shape or dy.shape != values.shape:
        raise DimensionMismatch(
            f"heatmap {values.shape} and offset field {dx.shape}/{dy.shape} must share one grid"
        )
    if upstream is not None and upstream.shape != values.shape:
        raise DimensionMismatch("upstream gradient must have the grid's shape")


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
    max_dx = float(np.max(np.abs(dx))) if dx.size else 0.0
    max_dy = float(np.max(np.abs(dy))) if dy.size else 0.0
    logger.debug("reconstruct: max |dx| = %.3f, max |dy| = %.3f", max_dx, max_dy)
    needed = _uncapped_radius(cfg.lambda_r)
    if needed > cfg.window_radius:
        warnings.warn(
            f"lambda_r {cfg.lambda_r:g} needs a block radius of {needed} cells but the "
            f"window caps it at {cfg.window_radius}; weights above {EPSILON:g} are cut off",
            RuntimeWarning,
            stacklevel=2,
        )
    plan = WarpPlan(values, cfg.window_cells)
    return reconstruct_with_plan(plan, dx, dy, cfg.lambda_r)


def reconstruct_dense(X, delta, lambda_r: float, chunk_rows: int = 8) -> np.ndarray:
    """O(N^2) oracle: the same sum without any windowing.

    Intended for small grids; memory is bounded by chunking output rows.
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
    step = max(1, chunk_rows) * w
    for j0 in range(0, h * w, step):
        j1 = min(j0 + step, h * w)
        dxm = jx_all[j0:j1, None] - cx[None, :]
        dym = jy_all[j0:j1, None] - cy[None, :]
        d2 = dxm * dxm + dym * dym
        l = np.sqrt(d2, out=d2)
        wb = _weights_from_l(l, lambda_r)
        out[j0:j1] = (wb * vals[None, :]).sum(axis=1)
    return out.reshape(h, w)


def reconstruct_backward(X, delta, cfg: ReconstructionConfig, upstream) -> WarpGradients:
    """Analytic gradients of sum(upstream * reconstruct(X, delta, cfg)).

    d_heatmap covers every grid cell; the offset gradient vanishes where
    x_i is zero because the contribution is linear in x_i.
    """
    values = _values_of(X)
    dx, dy = _offsets_of(delta)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_shapes(values, dx, dy, upstream)
    plan = WarpPlan(values, cfg.window_cells)
    g_dx, g_dy = grad_offsets_with_plan(plan, upstream, cfg.lambda_r, dx=dx, dy=dy)
    d_heatmap = _grad_heatmap_full(values, dx, dy, upstream, cfg)
    return WarpGradients(d_heatmap=d_heatmap, d_offset_x=g_dx, d_offset_y=g_dy)


def smoothed_target(X_gt, cfg: ReconstructionConfig,
                    plan: WarpPlan | None = None) -> np.ndarray:
    """Ground truth passed through the operator with zero offsets.

    Gives targets the same lambda_r-dependent blur as predictions.
    """
    values = _values_of(X_gt)
    if plan is None:
        plan = WarpPlan(values, cfg.window_cells)
    return reconstruct_zero_offset(plan, cfg.lambda_r)
