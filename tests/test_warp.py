import math
import tracemalloc
import warnings

import numpy as np
import pytest

from groundflow.core import GroundGrid, Heatmap
from groundflow.errors import DimensionMismatch
from groundflow.warp import (
    ReconstructionConfig,
    WarpPlan,
    WarpWorkspace,
    block_radius,
    grad_offsets_with_plan,
    reconstruct,
    reconstruct_dense,
    reconstruct_with_plan,
    smoothed_target,
    weight,
)
from oracles import reconstruct_backward


def _reconstruct_capped(X, delta, cfg):
    """reconstruct at a lambda_r whose block radius the window caps on
    purpose; the cut-off is reported as a warning."""
    with pytest.warns(RuntimeWarning, match="caps"):
        return reconstruct(X, delta, cfg)


def _peak(h, w, x, y, value=1.0):
    a = np.zeros((h, w))
    a[y, x] = value
    return a


class TestWeight:
    def test_exact_half_at_schedule_end(self):
        # exponent 4*5*0.5 - 10 = 0 exactly
        assert weight(0.5, 5.0) == 0.5

    def test_zero_distance_independent_of_lambda(self):
        expected = 1.0 / (1.0 + math.exp(-10.0))
        for lam in (0.8, 1.0, 5.0, 50.0):
            assert abs(weight(0.0, lam) - expected) < 1e-15

    def test_soft_lambda_keeps_two_cells(self):
        # evaluated with scalar arithmetic: 1/(1 + e^(4*0.8*2 - 10))
        expected = 1.0 / (1.0 + math.exp(4 * 0.8 * 2 - 10))
        assert abs(weight(2.0, 0.8) - expected) < 1e-15
        assert 0.97 < weight(2.0, 0.8) < 0.98

    def test_monotonically_decreasing(self):
        rng = np.random.default_rng(0)
        for lam in (0.8, 2.0, 5.0):
            ls = np.sort(rng.random(50) * 30)
            ws = [weight(float(l), lam) for l in ls]
            assert all(a >= b for a, b in zip(ws, ws[1:]))
            assert all(w > 0 for w in ws)

    def test_overflow_saturates(self):
        assert weight(1e6, 5.0) > 0.0
        assert weight(1e6, 5.0) == weight(2e6, 5.0)  # clamped region is flat


class TestReconstructDense:
    def test_zero_heatmap(self):
        out = reconstruct_dense(np.zeros((8, 8)), (np.ones((8, 8)), np.ones((8, 8))), 5.0)
        assert np.all(out == 0.0)

    def test_single_peak_displaced(self):
        X = _peak(16, 16, 5, 5)
        dx = np.full((16, 16), 2.0)
        dy = np.full((16, 16), 1.0)
        out = reconstruct_dense(X, (dx, dy), 5.0)
        yj, xj = np.unravel_index(np.argmax(out), out.shape)
        assert (xj, yj) == (7, 6)
        assert abs(out[6, 7] - weight(0.0, 5.0)) < 1e-12
        assert abs(out[6, 8] - weight(1.0, 5.0)) < 1e-12

    def test_superposition_not_max(self):
        # two unit peaks whose offsets land on one cell add up
        X = np.zeros((16, 16))
        X[4, 4] = 1.0
        X[4, 8] = 1.0
        dx = np.zeros((16, 16))
        dx[4, 4] = 2.0
        dx[4, 8] = -2.0
        out = reconstruct_dense(X, (dx, np.zeros((16, 16))), 5.0)
        assert abs(out[4, 6] - 2.0 * weight(0.0, 5.0)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reconstruct_dense(np.zeros((4, 4)), (np.zeros((4, 5)), np.zeros((4, 5))), 1.0)


class TestReconstructWindowed:
    def test_matches_dense_on_displaced_peak(self):
        X = _peak(16, 16, 5, 5)
        delta = (np.full((16, 16), 2.0), np.full((16, 16), 1.0))
        win = reconstruct(X, delta, ReconstructionConfig(5.0, 59))
        dense = reconstruct_dense(X, delta, 5.0)
        assert np.abs(win - dense).max() < 1e-10

    def test_window3_zero_offset_keeps_peak(self):
        X = _peak(8, 8, 4, 4)
        zeros = np.zeros((8, 8))
        # lambda 5 needs a radius of 2 cells; window 3 caps it at 1
        out = _reconstruct_capped(X, (zeros, zeros), ReconstructionConfig(5.0, 3))
        assert np.abs(out - X).max() < 5e-5

    def test_zero_heatmap_any_window(self):
        # lambda 0.8 needs a radius of 14 cells, which windows 3 and 9 cap
        for window in (3, 9, 59):
            warp = _reconstruct_capped if window < 29 else reconstruct
            out = warp(np.zeros((12, 12)), (np.zeros((12, 12)), np.zeros((12, 12))),
                       ReconstructionConfig(0.8, window))
            assert np.all(out == 0.0)

    @pytest.mark.parametrize("lam", [0.8, 5.0])
    def test_window_dense_equivalence_random(self, lam):
        # acceptance-grade check on 32x32, window 59, offsets up to 10 cells
        rng = np.random.default_rng(7)
        X = (rng.random((32, 32)) < 0.08) * rng.random((32, 32))
        dx = rng.uniform(-10, 10, (32, 32)) * (X > 0)
        dy = rng.uniform(-10, 10, (32, 32)) * (X > 0)
        win = reconstruct(X, (dx, dy), ReconstructionConfig(lam, 59))
        dense = reconstruct_dense(X, (dx, dy), lam)
        assert np.abs(win - dense).max() < 1e-10

    def test_translation_equivariance(self):
        X = _peak(32, 32, 12, 14, 0.8)
        dx = np.full((32, 32), 3.0)
        dy = np.full((32, 32), -2.0)
        out = reconstruct(X, (dx, dy), ReconstructionConfig(5.0, 21))
        yj, xj = np.unravel_index(np.argmax(out), out.shape)
        assert (xj, yj) == (15, 12)

    def test_linearity_in_heatmap(self):
        rng = np.random.default_rng(3)
        x1 = rng.random((12, 12)) * 0.5
        x2 = rng.random((12, 12)) * 0.5
        delta = (rng.normal(0, 1, (12, 12)), rng.normal(0, 1, (12, 12)))
        cfg = ReconstructionConfig(0.8, 15)
        a, b = 0.3, 1.7
        lhs = _reconstruct_capped(a * x1 + b * x2, delta, cfg)
        rhs = a * _reconstruct_capped(x1, delta, cfg) + b * _reconstruct_capped(x2, delta, cfg)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_warns_when_window_caps_block_radius(self):
        # lambda 0.16 needs a radius of 70 cells; window 21 caps it at 10
        X = _peak(16, 16, 8, 8)
        zeros = np.zeros((16, 16))
        with pytest.warns(RuntimeWarning, match="caps"):
            reconstruct(X, (zeros, zeros), ReconstructionConfig(0.16, 21))

    @pytest.mark.parametrize("lam", [1e-300, 1e-310])
    def test_cap_warning_stays_short_at_vanishing_lambda(self, lam):
        # the radius needed is a 300-digit integer here; the message
        # rounds it to six significant digits
        X = _peak(16, 16, 8, 8)
        zeros = np.zeros((16, 16))
        with pytest.warns(RuntimeWarning, match="caps") as caught:
            reconstruct(X, (zeros, zeros), ReconstructionConfig(lam, 21))
        assert all(len(str(w.message)) < 160 for w in caught)

    @pytest.mark.parametrize("lam", [5e-324, 1e-310])
    def test_vanishing_lambda_gets_the_window_radius(self, lam):
        # the reach 44.5 / (4 lambda) overflows below about 1e-308; every
        # weight of the window-capped block is then W(0)
        assert block_radius(lam, 21) == 10
        X = _peak(16, 16, 8, 8)
        zeros = np.zeros((16, 16))
        with pytest.warns(RuntimeWarning, match="caps"):
            out = reconstruct(X, (zeros, zeros), ReconstructionConfig(lam, 21))
        assert np.all(out == weight(0.0, lam))

    def test_offsets_beyond_window_radius_stay_exact(self):
        # lambda 5 needs a radius of 2 cells, which window 9 allows; the
        # block follows the source 9 cells out, past the window radius
        X = _peak(16, 16, 8, 8)
        big = np.full((16, 16), 9.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            win = reconstruct(X, (big, big), ReconstructionConfig(5.0, 9))
        dense = reconstruct_dense(X, (big, big), 5.0)
        assert np.abs(win - dense).max() < 1e-10

    def test_accepts_heatmap_objects(self):
        g = GroundGrid(8, 8)
        hm = Heatmap(g, _peak(8, 8, 3, 3))
        out = reconstruct(hm, (np.zeros((8, 8)), np.zeros((8, 8))),
                          ReconstructionConfig(5.0, 9))
        assert out[3, 3] > 0.999

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(0.0, 9)
        with pytest.raises(ValueError):
            ReconstructionConfig(1.0, 8)
        with pytest.raises(ValueError):
            ReconstructionConfig(1.0, 1)


class TestSmoothedTarget:
    def test_equals_zero_offset_reconstruction(self):
        rng = np.random.default_rng(11)
        X = (rng.random((20, 20)) < 0.1) * rng.random((20, 20))
        cfg = ReconstructionConfig(1.4, 15)   # needs a radius of 8 cells; 15 caps it at 7
        zeros = np.zeros((20, 20))
        got = smoothed_target(WarpPlan(X, cfg.window_cells), cfg.lambda_r, WarpWorkspace())
        assert np.array_equal(got, _reconstruct_capped(X, (zeros, zeros), cfg))


class TestReconstructBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(0)
        X = rng.random((8, 8))
        delta = (rng.normal(0, 1, (8, 8)), rng.normal(0, 1, (8, 8)))
        g_dx, g_dy = reconstruct_backward(X, delta, ReconstructionConfig(0.8, 15), np.zeros((8, 8)))
        assert np.all(g_dx == 0) and np.all(g_dy == 0)

    def _fd_check(self, axis: int, seeds=range(6), eps=1e-4):
        worst = 0.0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            X = rng.random((8, 8)) * 0.9
            dx = rng.normal(0, 0.8, (8, 8))
            dy = rng.normal(0, 0.8, (8, 8))
            up = rng.normal(0, 1.0, (8, 8))
            cfg = ReconstructionConfig(0.8, 15)
            analytic = reconstruct_backward(X, (dx, dy), cfg, up)[axis]

            def value(dxv, dyv):
                return float((up * _reconstruct_capped(X, (dxv, dyv), cfg)).sum())

            for (i, j) in [(0, 0), (3, 4), (7, 7), (2, 6)]:
                plus = [dx.copy(), dy.copy()]
                minus = [dx.copy(), dy.copy()]
                plus[axis][i, j] += eps
                minus[axis][i, j] -= eps
                num = (value(*plus) - value(*minus)) / (2 * eps)
                ana = analytic[i, j]
                err = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
                worst = max(worst, err)
        return worst

    def test_offset_gradients_match_finite_differences(self):
        assert self._fd_check(0) < 1e-4
        assert self._fd_check(1) < 1e-4

    def test_gradient_zero_at_exact_alignment(self):
        # l = 0 at j = i with zero offsets: the direction factor is defined as 0
        X = _peak(8, 8, 4, 4)
        zeros = np.zeros((8, 8))
        up = np.zeros((8, 8))
        up[4, 4] = 1.0
        g_dx, g_dy = reconstruct_backward(X, (zeros, zeros), ReconstructionConfig(5.0, 9), up)
        assert g_dx[4, 4] == 0.0
        assert g_dy[4, 4] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reconstruct_backward(np.zeros((4, 4)), (np.zeros((4, 4)), np.zeros((4, 4))),
                                 ReconstructionConfig(1.0, 9), np.zeros((5, 4)))

    def test_offset_gradient_needs_the_forward_pass_at_its_lambda(self):
        plan = WarpPlan(_peak(6, 6, 2, 3), 9)
        zeros = np.zeros((6, 6))
        workspace = WarpWorkspace()
        reconstruct_with_plan(plan, zeros, zeros, 2.0, workspace)
        for lam, forward in ((5.0, workspace), (2.0, WarpWorkspace())):
            with pytest.raises(ValueError):
                grad_offsets_with_plan(plan, np.ones((6, 6)), lam, forward)

    def test_offset_gradient_needs_the_workspace_its_forward_pass_filled(self):
        # a later pass of another plan through the workspace drops the record
        plan = WarpPlan(_peak(6, 6, 2, 3), 9)
        other = WarpPlan(_peak(6, 6, 4, 1) + _peak(6, 6, 0, 5), 9)
        zeros = np.zeros((6, 6))
        shift = np.full((6, 6), 0.4)
        up = np.arange(36.0).reshape(6, 6)
        alone = grad_offsets_with_plan(plan, up, 2.0, self._forward(plan, shift, WarpWorkspace()))
        later_passes = (
            lambda ws: reconstruct_with_plan(other, zeros, zeros, 2.0, ws),
            lambda ws: smoothed_target(other, 2.0, ws),
        )
        for later in later_passes:
            ws = self._forward(plan, shift, WarpWorkspace())
            later(ws)
            with pytest.raises(ValueError):
                grad_offsets_with_plan(plan, up, 2.0, ws)
        # a later forward pass of the same plan is the one the gradient reads
        ws = self._forward(plan, zeros, WarpWorkspace())
        assert grad_offsets_with_plan(plan, up, 2.0, ws)[0].tobytes() != alone[0].tobytes()
        self._forward(plan, shift, ws)
        # a gradient pass leaves the forward pass's blocks in place
        for _ in range(2):
            g_dx, g_dy = grad_offsets_with_plan(plan, up, 2.0, ws)
            assert g_dx.tobytes() == alone[0].tobytes() and g_dy.tobytes() == alone[1].tobytes()

    def test_a_growing_workspace_frees_its_outgrown_buffers_first(self):
        # the record of a forward pass holds views of the buffers, which must
        # not keep them alive while the grown ones are allocated
        ws = WarpWorkspace()
        zeros = np.zeros((16, 16))
        tracemalloc.start()
        try:
            reconstruct_with_plan(WarpPlan(_peak(16, 16, 8, 8), 21), zeros, zeros, 0.16, ws)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ws.claim(100, 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outgrown, grown = (21 * 21 * 41 * s for s in (1, 100))   # 41 bytes per block cell
        assert peak - before < grown - outgrown / 2

    @staticmethod
    def _forward(plan, shift, workspace):
        reconstruct_with_plan(plan, shift, shift, 2.0, workspace)
        return workspace
