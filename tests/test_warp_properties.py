"""Property-based checks of the windowed warp against its oracles."""
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from groundflow.warp import (  # noqa: E402
    ReconstructionConfig,
    reconstruct,
    reconstruct_backward,
    reconstruct_dense,
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, window_lam=st.one_of(
    st.tuples(st.just(21), st.floats(1.24, 5.0)),
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
