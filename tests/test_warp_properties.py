"""Property-based checks of the windowed warp against its oracles."""
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groundflow.warp import (  # noqa: E402
    EPSILON,
    ReconstructionConfig,
    WarpPlan,
    WarpWorkspace,
    block_radius,
    grad_offsets_with_plan,
    reconstruct,
    reconstruct_backward,
    reconstruct_dense,
    reconstruct_with_plan,
    smoothed_target,
)

SIZE = 14

# soft lambdas and small windows cap the block radius, which reconstruct reports
cap_warning = pytest.mark.filterwarnings("ignore:lambda_r .* needs a block radius")


def _scene(seed: int, density: float, reach: float):
    """A sparse heatmap with offsets uniform in [-reach, reach] per component."""
    rng = np.random.default_rng(seed)
    x = (rng.random((SIZE, SIZE)) < density) * rng.random((SIZE, SIZE))
    dx = rng.uniform(-reach, reach, (SIZE, SIZE))
    dy = rng.uniform(-reach, reach, (SIZE, SIZE))
    return x, dx, dy


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lam=st.floats(0.05, 50.0))
def test_block_radius_is_the_smallest_exact_one(lam):
    # W < EPSILON from the reach on, and a cell outside a radius-R block
    # lies at least R + 1/2 from the displaced source
    reach = (10.0 + math.log(1.0 / EPSILON)) / (4.0 * lam)
    r = block_radius(lam, 1001)
    assert r < 500   # the window does not cap it
    assert r + 0.5 >= reach
    assert r == 0 or r - 0.5 < reach


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, window_lam=st.one_of(
    st.tuples(st.just(21), st.floats(1.07, 5.0)),
    st.tuples(st.just(59), st.floats(0.8, 5.0)),
))
def test_windowed_equals_dense_up_to_the_clamp(seed, window_lam):
    # below the cap the blocks follow the source to any offset the fit's
    # per-component clamp (the window radius) allows
    window, lam = window_lam
    cfg = ReconstructionConfig(lam, window)
    x, dx, dy = _scene(seed, 0.15, cfg.window_radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the window must not cap the radius here
        win = reconstruct(x, (dx, dy), cfg)
    assert np.abs(win - reconstruct_dense(x, (dx, dy), lam)).max() < 1e-10


@cap_warning
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, lam=st.floats(0.16, 5.0), window=st.sampled_from([3, 9, 21]),
       reach=st.floats(0.0, 12.0))
def test_heatmap_gradient_is_the_adjoint(seed, lam, window, reach):
    # holds whether or not the window caps the block radius
    x, dx, dy = _scene(seed, 0.5, reach)
    u = np.random.default_rng(seed ^ 0x5EED).normal(size=x.shape)
    cfg = ReconstructionConfig(lam, window)
    fwd = float((reconstruct(x, (dx, dy), cfg) * u).sum())
    adj = float((x * reconstruct_backward(x, (dx, dy), cfg, u).d_heatmap).sum())
    assert abs(fwd - adj) <= 1e-10 * max(1.0, abs(fwd))


@cap_warning
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, lam=st.floats(0.16, 5.0))
def test_nan_offset_at_a_source_gives_non_finite_output(seed, lam):
    x, dx, dy = _scene(seed, 0.15, 5.0)
    x[3, 4] = 0.7
    dx[3, 4] = np.nan
    out = reconstruct(x, (dx, dy), ReconstructionConfig(lam, 21))
    assert not np.all(np.isfinite(out))


@cap_warning
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, lam=st.floats(0.16, 5.0), sx=st.sampled_from([-1.0, 1.0]),
       sy=st.sampled_from([-1.0, 1.0]))
def test_huge_offsets_give_finite_near_zero_output(seed, lam, sx, sy):
    x, _, _ = _scene(seed, 0.15, 0.0)
    big = np.full(x.shape, 1e6)
    out = reconstruct(x, (sx * big, sy * big), ReconstructionConfig(lam, 21))
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() < 1e-15


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=seeds, steps=st.lists(
    st.tuples(st.sampled_from(["forward", "gradient", "target"]), st.integers(0, 1),
              st.floats(0.16, 5.0)),
    min_size=1, max_size=10))
def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one(seed, steps):
    # two plans with different source counts; the first pass is at the sharp
    # end of the schedule and a soft one follows, so the workspace grows past
    # its first size, and the drawn lambdas shrink and grow R again
    window = 21
    rng = np.random.default_rng(seed)
    plans = [WarpPlan(_scene(seed, density, 0.0)[0], window) for density in (0.1, 0.4)]
    schedule = [("forward", 1, 5.0)] + steps + [("gradient", 0, 0.16)] + steps[::-1]
    ws = WarpWorkspace()
    for kind, which, lam in schedule:
        plan = plans[which]
        dx, dy = rng.uniform(-6.0, 6.0, (2, SIZE, SIZE))
        if rng.random() < 0.5:   # whole-cell offsets put l = 0 in every block
            dx, dy = np.rint(dx), np.rint(dy)
        if kind == "target":
            cfg = ReconstructionConfig(lam, window)
            got = smoothed_target(plan.vals, cfg, plan, ws)
            assert got.tobytes() == smoothed_target(plan.vals, cfg, plan).tobytes()
            continue
        cache, fresh = {}, {}
        got = reconstruct_with_plan(plan, dx, dy, lam, cache, workspace=ws)
        assert got.tobytes() == reconstruct_with_plan(plan, dx, dy, lam, fresh).tobytes()
        if kind == "gradient":
            up = rng.normal(size=(SIZE, SIZE))
            for g, want in zip(grad_offsets_with_plan(plan, up, lam, cache),
                               grad_offsets_with_plan(plan, up, lam, fresh)):
                assert g.tobytes() == want.tobytes()
