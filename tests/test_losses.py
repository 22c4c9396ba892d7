import numpy as np
import pytest

from groundflow.losses import (
    LambdaSchedule,
    LossWeights,
    bilinear_sampler,
    loss_fb_grad,
    loss_se_grad_hoods,
    loss_total,
    se_neighborhoods,
)
from groundflow.sim import render_heatmap
from groundflow.core import GroundGrid
from groundflow.warp import ReconstructionConfig, reconstruct
from oracles import loss_fb, loss_mot, loss_se, smoothed


class TestLossMot:
    def test_zero_on_smoothed_target(self):
        rng = np.random.default_rng(1)
        x_gt = (rng.random((12, 12)) < 0.1) * rng.random((12, 12))
        cfg = ReconstructionConfig(5.0, 15)
        target = smoothed(x_gt, cfg)
        assert loss_mot(target, x_gt, cfg) == 0.0

    def test_unmoved_agent_leaves_two_peaks(self):
        # zero offsets on an agent that moved 3 cells: prediction and target
        # are two non-overlapping smoothed peaks (kernel footprint < 1.5 cells)
        g = GroundGrid(24, 24)
        x_t = render_heatmap([(8.0, 12.0)], g, 0.8, 1.4)
        x_t1 = render_heatmap([(11.0, 12.0)], g, 0.8, 1.4)
        cfg = ReconstructionConfig(5.0, 21)
        zeros = np.zeros((24, 24))
        xhat = reconstruct(x_t, (zeros, zeros), cfg)
        val = loss_mot(xhat, x_t1, cfg)
        target = smoothed(x_t.values, cfg)
        expected = 2.0 * float((target ** 2).sum())
        assert abs(val - expected) / expected < 0.02


class TestLossFb:
    def test_exact_opposites(self):
        shape = (10, 10)
        fwd = (np.full(shape, 2.0), np.zeros(shape))
        bwd = (np.full(shape, -2.0), np.zeros(shape))
        assert loss_fb(fwd, bwd) < 1e-20

    @pytest.mark.parametrize("cx,cy", [(-1.3, 0.7), (0.4, -2.1), (3.0, 3.0)])
    def test_any_constant_field_with_negation_is_zero(self, cx, cy):
        # sampling a constant field returns the constant even when the
        # displaced point clamps at the border
        shape = (9, 7)
        fwd = (np.full(shape, cx), np.full(shape, cy))
        bwd = (np.full(shape, -cx), np.full(shape, -cy))
        assert loss_fb(fwd, bwd) == 0.0

    def test_zero_backward_counts_forward_norm(self):
        shape = (7, 9)
        fwd = (np.full(shape, 2.0), np.zeros(shape))
        bwd = (np.zeros(shape), np.zeros(shape))
        assert loss_fb(fwd, bwd) == pytest.approx(4.0 * 7 * 9)

    def test_both_zero(self):
        shape = (5, 5)
        z = np.zeros(shape)
        assert loss_fb((z, z), (z, z)) == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        shape = (8, 8)
        fdx = rng.uniform(-1.5, 1.5, shape) + 0.3  # keep sample points off the integer lattice
        fdy = rng.uniform(-1.5, 1.5, shape) + 0.3
        bdx = rng.normal(0, 1, shape)
        bdy = rng.normal(0, 1, shape)
        _, g_fdx, g_fdy, g_bdx, g_bdy = loss_fb_grad((fdx, fdy), (bdx, bdy))
        eps = 1e-6
        for arr, grad in ((fdx, g_fdx), (fdy, g_fdy), (bdx, g_bdx), (bdy, g_bdy)):
            for idx in [(2, 3), (5, 5), (0, 7)]:
                p = arr.copy()
                m = arr.copy()
                p[idx] += eps
                m[idx] -= eps
                if arr is fdx:
                    num = (loss_fb((p, fdy), (bdx, bdy)) - loss_fb((m, fdy), (bdx, bdy))) / (2 * eps)
                elif arr is fdy:
                    num = (loss_fb((fdx, p), (bdx, bdy)) - loss_fb((fdx, m), (bdx, bdy))) / (2 * eps)
                elif arr is bdx:
                    num = (loss_fb((fdx, fdy), (p, bdy)) - loss_fb((fdx, fdy), (m, bdy))) / (2 * eps)
                else:
                    num = (loss_fb((fdx, fdy), (bdx, p)) - loss_fb((fdx, fdy), (bdx, m))) / (2 * eps)
                ana = grad[idx]
                assert abs(ana - num) / max(1e-8, abs(ana) + abs(num)) < 1e-4


class TestLossSe:
    def test_constant_field_is_zero(self):
        shape = (9, 9)
        delta = (np.full(shape, 1.3), np.full(shape, -0.7))
        assert loss_se(delta, [(4.0, 4.0), (2.0, 7.0)], 2.5) == 0.0

    def test_two_cell_neighborhood_by_hand(self):
        # neighborhood {(0,0), (1,0)} with dx values 0 and 2:
        # var(dx) = 1, var(dy) = 0 -> STD = 1
        dx = np.zeros((1, 2))
        dx[0, 1] = 2.0
        dy = np.zeros((1, 2))
        val = loss_se((dx, dy), [(0.5, 0.0)], 0.6)
        assert val == pytest.approx(1.0)

    def test_no_points_is_zero(self):
        shape = (5, 5)
        assert loss_se((np.ones(shape), np.ones(shape)), [], 2.0) == 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_all_neighborhoods_empty_gives_float_zeros(self, radius):
        # no cell lies within the radius of an off-lattice point
        shape = (6, 6)
        hoods = se_neighborhoods(shape, [(2.5, 3.5), (1.2, 4.7)], radius)
        val, g_dx, g_dy = loss_se_grad_hoods(np.ones(shape), np.ones(shape), hoods)
        assert val == 0.0
        for g in (g_dx, g_dy):
            assert g.dtype == np.float64 and g.shape == shape and not g.any()

    def test_neighborhood_radius(self):
        hoods = se_neighborhoods((5, 5), [(2.0, 2.0)], 1.0)
        cells = hoods[0][hoods[0] < 5 * 5]  # strip the padding
        assert sorted(cells) == sorted([2 * 5 + 2, 1 * 5 + 2, 3 * 5 + 2, 2 * 5 + 1, 2 * 5 + 3])


class TestBilinearSample:
    def test_a_stack_samples_each_field_alike(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(3, 7, 9))
        px = rng.uniform(-2.0, 10.0, 11)
        py = rng.uniform(-2.0, 8.0, 11)
        got = bilinear_sampler(stack.shape[-2:], px, py)(stack)
        assert got.shape == (3, 11)
        for row, field in zip(got, stack):
            assert row.tobytes() == bilinear_sampler(field.shape, px, py)(field).tobytes()


class TestSchedule:
    def test_paper_defaults_step(self):
        values = list(LambdaSchedule().values(2))
        assert values[0] == 0.8
        assert values[1] == pytest.approx(0.88)

    def test_cap_clamps(self):
        assert list(LambdaSchedule(init=4.98).values(3)) == [4.98, 5.0, 5.0]

    def test_reaches_cap_in_53_steps_and_stays(self):
        values = list(LambdaSchedule().values(55))
        assert len(values) == 55
        assert values[52] < 5.0
        assert values[53] == values[54] == 5.0

    def test_each_value_adds_the_increment_to_the_last(self):
        s = LambdaSchedule(init=0.3, increment=0.07, cap=1.0)
        values = list(s.values(20))
        assert values[0] == s.init
        assert all(b == min(a + s.increment, s.cap) for a, b in zip(values, values[1:]))
        assert list(s.values(0)) == []

    def test_validation(self):
        for bad in ({"init": 1.0, "cap": 0.5}, {"init": 0.0}, {"increment": -0.01}):
            with pytest.raises(ValueError):
                LambdaSchedule(**bad)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert w.lambda_fb == 0.05
        assert w.lambda_se == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_fb=-0.1)

    @pytest.mark.parametrize("name", ["lambda_fb", "lambda_se"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError):
            LossWeights(**{name: float("nan")})


class TestLossTotal:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        g = GroundGrid(10, 10)
        pts_t = [(float(rng.uniform(2, 7)), float(rng.uniform(2, 7))) for _ in range(2)]
        pts_t1 = [(x + rng.uniform(-1, 1), y + rng.uniform(-1, 1)) for x, y in pts_t]
        x_t = render_heatmap(pts_t, g, 1.0, 2.5).values
        x_t1 = render_heatmap(pts_t1, g, 1.0, 2.5).values
        delta_f = rng.uniform(-0.8, 0.8, (2, 10, 10)) + 0.25
        delta_b = rng.uniform(-0.8, 0.8, (2, 10, 10)) + 0.25
        return x_t, x_t1, pts_t, pts_t1, delta_f, delta_b

    def test_weight_zeroing_reduces_to_motion_terms(self):
        x_t, x_t1, pts_t, pts_t1, df, db = self._random_instance(0)
        cfg = ReconstructionConfig(0.8, 15)
        out = loss_total(x_t, x_t1, (df[0], df[1]), (db[0], db[1]), pts_t, pts_t1,
                         cfg, LossWeights(0.0, 0.0), 2.5)
        assert out.total == out.l_mot

    def test_additivity_in_fb_weight(self):
        x_t, x_t1, pts_t, pts_t1, df, db = self._random_instance(1)
        cfg = ReconstructionConfig(0.8, 15)
        base = loss_total(x_t, x_t1, (df[0], df[1]), (db[0], db[1]), pts_t, pts_t1,
                          cfg, LossWeights(0.0, 1.0), 2.5)
        bumped = loss_total(x_t, x_t1, (df[0], df[1]), (db[0], db[1]), pts_t, pts_t1,
                            cfg, LossWeights(0.25, 1.0), 2.5)
        assert bumped.total - base.total == pytest.approx(0.25 * base.l_fb, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(3):
            x_t, x_t1, pts_t, pts_t1, df, db = self._random_instance(seed + 10)
            cfg = ReconstructionConfig(0.8, 15)
            w = LossWeights()

            def f(flat):
                d = flat.reshape(4, 10, 10)
                out = loss_total(x_t, x_t1, (d[0], d[1]), (d[2], d[3]), pts_t, pts_t1,
                                 cfg, w, 2.5)
                return out.total, np.stack([out.g_fdx, out.g_fdy, out.g_bdx, out.g_bdy]).reshape(-1)

            point = np.concatenate([df, db]).reshape(-1)
            val, grad = f(point)
            eps = 1e-4
            rng = np.random.default_rng(seed)
            for _ in range(20):  # spot-check random coordinates
                k = int(rng.integers(point.size))
                p = point.copy()
                m = point.copy()
                p[k] += eps
                m[k] -= eps
                num = (f(p)[0] - f(m)[0]) / (2 * eps)
                err = abs(grad[k] - num) / max(1e-8, abs(grad[k]) + abs(num))
                worst = max(worst, err)
        assert worst < 1e-4

    def test_perfect_inputs_near_zero(self):
        # an agent translated by an integer offset with exact motion gives
        # a near-zero composite loss at sharp lambda
        g = GroundGrid(20, 20)
        x_t = render_heatmap([(6.0, 9.0)], g, 1.0, 3.0).values
        x_t1 = render_heatmap([(9.0, 9.0)], g, 1.0, 3.0).values
        df = (np.full((20, 20), 3.0), np.zeros((20, 20)))
        db = (np.full((20, 20), -3.0), np.zeros((20, 20)))
        cfg = ReconstructionConfig(5.0, 21)
        out = loss_total(x_t, x_t1, df, db, [(6.0, 9.0)], [(9.0, 9.0)],
                         cfg, LossWeights(), 3.0)
        assert out.total < 1e-4
