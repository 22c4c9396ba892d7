import math
from dataclasses import replace

import numpy as np
import pytest

import groundflow.fit
from groundflow import pipeline
from groundflow.core import GroundGrid
from groundflow.cli import load_experiment_config
from groundflow.errors import Divergence
from groundflow.fit import START_LAMBDA, FitConfig, FitPair, finite_diff_check, fit_offsets
from groundflow.losses import LambdaSchedule, LossWeights, loss_fb_grad, loss_total
from groundflow.sim import SceneConfig, corrupt_detections, generate_scene, render_heatmap
from groundflow.warp import ReconstructionConfig, _uncapped_radius


def _pairs_from_truth(truth, count=None):
    n = len(truth.gt_heatmaps) - 1 if count is None else count
    return [
        FitPair(truth.gt_heatmaps[k].values, truth.gt_heatmaps[k + 1].values,
                truth.gt_points[k], truth.gt_points[k + 1])
        for k in range(n)
    ]


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in an inline executor for the process pool; returns the pool
    sizes asked for and each submitted job's arguments."""
    import concurrent.futures

    record = {"sizes": [], "jobs": []}

    class InlineExecutor:
        """Records the pool size and runs each job at submit time."""

        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            record["jobs"].append(args)
            done = concurrent.futures.Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return record


@pytest.fixture
def smooth_calls(monkeypatch):
    """Counts the fit's smoothed_target calls; returns the list of calls."""
    calls = []
    real = groundflow.fit.smoothed_target

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groundflow.fit, "smoothed_target", counting)
    return calls


def _assert_same_bits(r1, r2):
    for f1, f2 in ((r1.fwd, r2.fwd), (r1.bwd, r2.bwd)):
        assert f1.dx.tobytes() == f2.dx.tobytes()
        assert f1.dy.tobytes() == f2.dy.tobytes()
    assert r1.trace == r2.trace


def _check_worker_invariant(speed, first_lambdas):
    """Fits a scene's pairs at workers 1 and 2, alone and in reverse, and
    checks the same bits; `first_lambdas` tells which pairs start."""
    cfg_s = SceneConfig(grid=GroundGrid(24, 24), num_agents=3, num_frames=4,
                        speed_cells=speed, turn_sigma_rad=0.1, seed=9)
    truth = generate_scene(cfg_s)
    pairs = _pairs_from_truth(truth)
    fit_cfg = FitConfig(epochs=25, learning_rate=0.05, window_cells=15)
    a = fit_offsets(pairs, fit_cfg, cfg_s.grid, workers=1)
    assert [r.trace[0]["lambda_r"] for r in a] == first_lambdas
    b = fit_offsets(pairs, fit_cfg, cfg_s.grid, workers=1)
    c = fit_offsets(pairs, fit_cfg, cfg_s.grid, workers=2)
    for ra, rb, rc in zip(a, b, c):
        _assert_same_bits(ra, rb)
        _assert_same_bits(ra, rc)
    # consecutive pairs hand their shared frame's targets on, but that
    # saves work only: a pair fitted after another, or in reverse
    # order, gives the bits it gives alone
    for k, ra in enumerate(a):
        _assert_same_bits(fit_offsets(pairs[k:k + 1], fit_cfg, cfg_s.grid)[0], ra)
    for rr, ra in zip(fit_offsets(pairs[::-1], fit_cfg, cfg_s.grid), a[::-1]):
        _assert_same_bits(rr, ra)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        def f(x):
            return float((x * x).sum()), 2.0 * x

        rng = np.random.default_rng(0)
        assert finite_diff_check(f, rng.normal(0, 2, (4, 5))) < 1e-10

    def test_motion_loss_gradient(self):
        rng = np.random.default_rng(1)
        g = GroundGrid(8, 8)
        pts = [(3.0, 3.0), (5.5, 4.5)]
        x_t = render_heatmap(pts, g, 1.0, 2.0).values
        x_t1 = render_heatmap([(x + 1, y) for x, y in pts], g, 1.0, 2.0).values
        cfg = ReconstructionConfig(0.8, 15)
        w = LossWeights(0.0, 0.0)
        base = rng.normal(0.2, 0.6, (2, 8, 8))
        zeros = np.zeros((2, 8, 8))

        def f(flat):
            d = flat.reshape(2, 8, 8)
            out = loss_total(x_t, x_t1, (d[0], d[1]), (zeros[0], zeros[1]),
                             pts, pts, cfg, w, 2.0)
            return out.total, np.stack([out.g_fdx, out.g_fdy]).reshape(-1)

        assert finite_diff_check(f, base.reshape(-1)) < 1e-4

    def test_fb_loss_gradient(self):
        rng = np.random.default_rng(2)
        fdx = rng.uniform(-1, 1, (8, 8)) + 0.3
        fdy = rng.uniform(-1, 1, (8, 8)) + 0.3
        bdx = rng.normal(0, 1, (8, 8))
        bdy = rng.normal(0, 1, (8, 8))

        def f(flat):
            d = flat.reshape(2, 8, 8)
            val, g_fdx, g_fdy, _, _ = loss_fb_grad((d[0], d[1]), (bdx, bdy))
            return val, np.stack([g_fdx, g_fdy]).reshape(-1)

        assert finite_diff_check(f, np.stack([fdx, fdy]).reshape(-1)) < 1e-4


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(epochs=0)
        with pytest.raises(ValueError):
            FitConfig(epochs=1, learning_rate=0.0)
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                FitConfig(epochs=1, se_radius=radius)


class TestFitOffsets:
    def test_single_agent_integer_motion_recovered(self):
        # the 0.05 default rate cannot cross the ~3 cells while lambda_r is
        # still soft; direct fitting of multi-cell motion wants 0.2-0.3
        g = GroundGrid(32, 32)
        x_t = render_heatmap([(10.0, 16.0)], g, 1.0, 3.0).values
        x_t1 = render_heatmap([(13.0, 16.0)], g, 1.0, 3.0).values
        pair = FitPair(x_t, x_t1, ((10.0, 16.0),), ((13.0, 16.0),))
        cfg = FitConfig(epochs=300, learning_rate=0.3, window_cells=21)
        result = fit_offsets([pair], cfg, g)[0]
        fdx = result.fwd.dx[16, 10]
        fdy = result.fwd.dy[16, 10]
        assert math.hypot(fdx - 3.0, fdy - 0.0) < 0.5
        # backward field mirrors it at the destination cell
        assert math.hypot(result.bwd.dx[16, 13] + 3.0, result.bwd.dy[16, 13]) < 0.5

    def test_static_scene_stays_near_zero(self):
        g = GroundGrid(24, 24)
        pts = [(8.0, 8.0), (15.0, 14.0)]
        x = render_heatmap(pts, g, 1.0, 3.0).values
        pair = FitPair(x, x.copy(), tuple(pts), tuple(pts))
        cfg = FitConfig(epochs=120, learning_rate=0.05, window_cells=15)
        result = fit_offsets([pair], cfg, g)[0]
        for (px, py) in pts:
            cx, cy = int(px), int(py)
            assert math.hypot(result.fwd.dx[cy, cx], result.fwd.dy[cy, cx]) < 0.3

    def test_empty_heatmaps_keep_fields_zero(self):
        g = GroundGrid(12, 12)
        z = np.zeros((12, 12))
        pair = FitPair(z, z.copy(), (), ())
        result = fit_offsets([pair], FitConfig(epochs=30, learning_rate=0.05, window_cells=9), g)[0]
        assert np.all(result.fwd.dx == 0.0) and np.all(result.fwd.dy == 0.0)
        assert np.all(result.bwd.dx == 0.0) and np.all(result.bwd.dy == 0.0)
        assert all(row["total"] == 0.0 for row in result.trace)

    def test_deterministic_and_worker_invariant(self):
        # slow agents: no pair starts
        _check_worker_invariant((1.0, 1.5), [0.8, 0.8, 0.8])

    def test_started_pairs_are_deterministic_and_worker_invariant(self):
        # at 3.5-4.5 cells a frame pairs 0 and 2 start; pair 1, where two
        # agents turn at the border, does not
        _check_worker_invariant((3.5, 4.5), [START_LAMBDA, 0.8, START_LAMBDA])

    def test_pool_is_capped_at_the_pair_count(self, inline_pool):
        z = np.zeros((8, 8))
        pairs = [FitPair(z, z.copy(), (), ())] * 2
        results = fit_offsets(pairs, FitConfig(epochs=2, learning_rate=0.05, window_cells=5),
                              GroundGrid(8, 8), workers=10_000)
        assert inline_pool["sizes"] == [2]
        assert len(results) == 2

    def test_trace_non_increasing_over_ten_epoch_windows(self):
        # lattice-aligned motion: the optimum stays at zero loss for every
        # lambda_r, so the trace must keep descending through the ramp
        g = GroundGrid(28, 28)
        maps = [render_heatmap([(float(x), 14.0)], g, 1.0, 3.0).values
                for x in (8, 10, 12)]
        pts = [((float(x), 14.0),) for x in (8, 10, 12)]
        pairs = [FitPair(maps[k], maps[k + 1], pts[k], pts[k + 1]) for k in range(2)]
        result = fit_offsets(pairs, FitConfig(epochs=120, learning_rate=0.2,
                                              window_cells=15), g)
        for r in result:
            totals = [row["total"] for row in r.trace]
            for e in range(len(totals) - 10):
                assert totals[e + 10] <= totals[e] + 1e-9

    def test_offsets_clamped_to_window_radius(self):
        g = GroundGrid(24, 24)
        x_t = render_heatmap([(4.0, 12.0)], g, 1.0, 3.0).values
        x_t1 = render_heatmap([(20.0, 12.0)], g, 1.0, 3.0).values  # 16 cells away
        pair = FitPair(x_t, x_t1, ((4.0, 12.0),), ((20.0, 12.0),))
        cfg = FitConfig(epochs=60, learning_rate=0.3, window_cells=9)
        result = fit_offsets([pair], cfg, g)[0]
        assert np.abs(result.fwd.dx).max() <= 4.0 + 1e-12
        assert np.abs(result.fwd.dy).max() <= 4.0 + 1e-12

    @pytest.mark.parametrize("init,cap,first", [(0.8, 1.5, 1.5), (3.0, 5.0, 3.0)])
    def test_started_pair_keeps_within_its_schedule(self, init, cap, first):
        # a pair 6 cells apart starts, at START_LAMBDA unless the schedule's
        # cap is softer or its own start sharper
        g = GroundGrid(24, 24)
        pts = [(6.0, 12.0), (12.0, 12.0)]
        maps = [render_heatmap([p], g, 1.0, 3.0).values for p in pts]
        pair = FitPair(maps[0], maps[1], (pts[0],), (pts[1],))
        cfg = FitConfig(epochs=3, window_cells=15,
                        schedule=LambdaSchedule(init=init, increment=0.08, cap=cap))
        assert fit_offsets([pair], cfg, g)[0].trace[0]["lambda_r"] == first

    def test_non_finite_loss_is_divergence(self):
        # one NaN in the later heatmap of the second pair makes that pair's
        # first loss NaN; the error names the pair and the epoch
        cfg_s = SceneConfig(grid=GroundGrid(24, 24), num_agents=3, num_frames=3,
                            speed_cells=(1.0, 1.5), turn_sigma_rad=0.1, seed=9)
        pairs = _pairs_from_truth(generate_scene(cfg_s))
        x_t1 = pairs[1].x_t1.copy()
        x_t1[12, 12] = np.nan
        pairs[1] = replace(pairs[1], x_t1=x_t1)
        cfg = FitConfig(epochs=5, learning_rate=0.05, window_cells=15)
        with pytest.raises(Divergence, match=r"pair 1\b.*\bepoch 0\b"):
            fit_offsets(pairs, cfg, cfg_s.grid)

    def test_motion_loss_alone_drops_below_ten_percent(self):
        # consistency signal alone (no regularizers) on a clean single agent
        g = GroundGrid(32, 32)
        x_t = render_heatmap([(12.0, 16.0)], g, 1.0, 3.0).values
        x_t1 = render_heatmap([(14.0, 17.0)], g, 1.0, 3.0).values
        pair = FitPair(x_t, x_t1, ((12.0, 16.0),), ((14.0, 17.0),))
        cfg = FitConfig(epochs=200, learning_rate=0.05, window_cells=15,
                        weights=LossWeights(0.0, 0.0))
        result = fit_offsets([pair], cfg, g)[0]
        totals = [row["l_mot"] for row in result.trace]
        assert totals[-1] < 0.1 * totals[0]


class TestTargetSharing:
    """Consecutive pairs of one run smooth their shared frame once per lambda_r."""

    # 8 epochs over 3 distinct lambda_r: 0.8, 1.6 and the cap 2.4
    CFG = FitConfig(epochs=8, learning_rate=0.05, window_cells=15,
                    schedule=LambdaSchedule(init=0.8, increment=0.8, cap=2.4))

    @pytest.fixture(scope="class")
    def scene(self):
        cfg_s = SceneConfig(grid=GroundGrid(24, 24), num_agents=3, num_frames=6,
                            speed_cells=(1.0, 1.5), turn_sigma_rad=0.1, seed=4)
        return _pairs_from_truth(generate_scene(cfg_s)), cfg_s.grid

    @staticmethod
    def _distinct_lambdas(results):
        return len({row["lambda_r"] for row in results[0].trace})

    def test_consecutive_pairs_smooth_each_frame_once_per_lambda(self, scene, smooth_calls):
        pairs, grid = scene
        results = fit_offsets(pairs, self.CFG, grid)
        assert self._distinct_lambdas(results) == 3
        assert len(smooth_calls) == (len(pairs) + 1) * 3

    @pytest.mark.parametrize("order", ["reversed", "every_other"])
    def test_pairs_without_a_shared_frame_share_nothing(self, scene, smooth_calls, order):
        pairs, grid = scene
        picked = pairs[::-1] if order == "reversed" else pairs[::2]
        results = fit_offsets(picked, self.CFG, grid)
        assert len(smooth_calls) == 2 * len(picked) * 3
        # and each result is the pair's fit alone
        for pair, result in zip(picked, results):
            _assert_same_bits(result, fit_offsets([pair], self.CFG, grid)[0])

    def test_pool_hands_each_worker_one_contiguous_run(self, scene, smooth_calls, inline_pool):
        pairs, grid = scene
        results = fit_offsets(pairs, self.CFG, grid, workers=2)
        runs = [job[0] for job in inline_pool["jobs"]]
        assert inline_pool["sizes"] == [2]
        assert [len(run) for run in runs] == [3, 2]
        assert all(a is b for a, b in zip([p for run in runs for p in run], pairs))
        assert len(smooth_calls) == (3 + 1) * 3 + (2 + 1) * 3
        for r2, r1 in zip(results, fit_offsets(pairs, self.CFG, grid)):
            _assert_same_bits(r2, r1)


class TestFrames:
    """A run builds each heatmap's frame once and one workspace."""

    CFG = TestTargetSharing.CFG

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts what the fit builds, by name; returns the counts."""
        counts = dict.fromkeys(("WarpPlan", "se_neighborhoods", "WarpWorkspace"), 0)
        for name in counts:
            def counting(*args, _name=name, _real=getattr(groundflow.fit, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(groundflow.fit, name, counting)
        return counts

    @pytest.fixture(scope="class")
    def scene(self):
        cfg_s = SceneConfig(grid=GroundGrid(24, 24), num_agents=3, num_frames=5,
                            speed_cells=(1.0, 1.5), turn_sigma_rad=0.1, seed=6)
        return _pairs_from_truth(generate_scene(cfg_s)), cfg_s.grid

    def test_consecutive_pairs_build_each_frame_once(self, scene, built):
        pairs, grid = scene
        fit_offsets(pairs, self.CFG, grid)
        assert built["WarpPlan"] == built["se_neighborhoods"] == len(pairs) + 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_workspace_per_run(self, scene, built, inline_pool, workers):
        pairs, grid = scene
        fit_offsets(pairs, self.CFG, grid, workers=workers)
        assert built["WarpWorkspace"] == workers

    def test_same_heatmap_with_other_points_shares_nothing(self, scene, built, smooth_calls):
        pairs, grid = scene
        moved = tuple((x + 0.5, y) for x, y in pairs[1].points_t)
        picked = [pairs[0], replace(pairs[1], points_t=moved)]
        results = fit_offsets(picked, self.CFG, grid)
        assert built["WarpPlan"] == built["se_neighborhoods"] == 4
        assert len(smooth_calls) == 2 * 2 * 3
        for pair, result in zip(picked, results):
            _assert_same_bits(result, fit_offsets([pair], self.CFG, grid)[0])


class TestStopRule:
    """A pair stops once its read-out settles, never while the window caps
    the block radius or before its last step-size halving."""

    # seed 1 at this config: the pairs stop at 40 (the ceiling), 25, 38
    # and 33 epochs, so a pair inherits both more and fewer targets than
    # it uses
    CFG = FitConfig(epochs=40, learning_rate=0.25, window_cells=15)

    @pytest.fixture(scope="class")
    def scene(self):
        cfg_s = SceneConfig(grid=GroundGrid(24, 24), num_agents=3, num_frames=5,
                            speed_cells=(1.0, 1.5), turn_sigma_rad=0.1, seed=1)
        return _pairs_from_truth(generate_scene(cfg_s)), cfg_s.grid

    @staticmethod
    def _empty_pair():
        z = np.zeros((12, 12))
        return FitPair(z, z.copy(), (), ())

    def test_empty_pair_stops_first_when_the_window_stops_capping(self):
        # an empty pair's read-out is settled from the start, so the window
        # alone holds it: it stops at the first uncapped lambda_r that has
        # five epochs before it
        cfg = FitConfig(epochs=60, learning_rate=0.05, window_cells=9,
                        schedule=LambdaSchedule(init=0.5, increment=0.1, cap=5.0))
        trace = fit_offsets([self._empty_pair()], cfg)[0].trace
        radius = (cfg.window_cells - 1) // 2
        assert len(trace) > 6
        assert _uncapped_radius(trace[-1]["lambda_r"]) <= radius
        assert _uncapped_radius(trace[-2]["lambda_r"]) > radius

    @pytest.mark.parametrize("halvings,expected", [((), 6), ((3, 17), 18)])
    def test_empty_pair_stops_after_the_last_halving(self, halvings, expected):
        cfg = FitConfig(epochs=60, learning_rate=0.05, window_cells=9,
                        lr_halving_epochs=halvings,
                        schedule=LambdaSchedule(init=5.0, increment=0.0, cap=5.0))
        assert len(fit_offsets([self._empty_pair()], cfg)[0].trace) == expected

    def test_no_pair_stops_while_the_window_caps_the_radius(self, scene):
        # these pairs' read-outs settle by epoch 33, while the window of
        # radius 4 caps the block radius up to epoch 41
        pairs, grid = scene
        cfg = replace(self.CFG, epochs=80, window_cells=9,
                      schedule=LambdaSchedule(init=0.8, increment=0.04, cap=5.0))
        for r in fit_offsets(pairs, cfg, grid):
            assert _uncapped_radius(r.trace[-1]["lambda_r"]) <= 4

    def test_no_pair_stops_before_the_last_halving(self, scene):
        # without the halving, pair 1 stops after 25 epochs
        pairs, grid = scene
        cfg = replace(self.CFG, epochs=80, lr_halving_epochs=(28,))
        for r in fit_offsets(pairs, cfg, grid):
            assert r.trace[-1]["epoch"] >= 28

    def test_trace_has_one_row_per_epoch_run(self, scene, monkeypatch):
        pairs, grid = scene
        calls = []
        real = groundflow.fit.loss_total

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(groundflow.fit, "loss_total", counting)
        results = fit_offsets(pairs, self.CFG, grid)
        lengths = [len(r.trace) for r in results]
        assert sum(lengths) == len(calls)
        assert max(lengths) <= self.CFG.epochs
        for r in results:
            assert [row["epoch"] for row in r.trace] == list(range(len(r.trace)))

    def test_pairs_stopping_apart_are_worker_and_order_invariant(self, scene, smooth_calls):
        pairs, grid = scene
        a = fit_offsets(pairs, self.CFG, grid)
        lengths = [len(r.trace) for r in a]
        assert len(set(lengths)) == len(lengths) and min(lengths) < self.CFG.epochs
        # every epoch has its own lambda_r below the cap: the first pair
        # smooths both frames each epoch; a later one uses the targets
        # handed on and smooths the rest of its x_t targets itself
        assert len(smooth_calls) == sum(lengths) + lengths[0] + sum(
            max(0, n - m) for m, n in zip(lengths, lengths[1:]))
        for rb, ra in zip(fit_offsets(pairs, self.CFG, grid, workers=2), a):
            _assert_same_bits(rb, ra)
        for rr, ra in zip(fit_offsets(pairs[::-1], self.CFG, grid), a[::-1]):
            _assert_same_bits(rr, ra)
        for pair, ra in zip(pairs, a):
            _assert_same_bits(fit_offsets([pair], self.CFG, grid)[0], ra)

    def test_default_config_stops_some_pair_before_the_ceiling(self):
        d = load_experiment_config(None)
        scene = replace(d.scene, grid=GroundGrid(32, 32), num_agents=3, num_frames=5)
        results = pipeline.fit_scene_offsets(
            corrupt_detections(generate_scene(scene)), scene.grid, d.fit,
            scene.gaussian_sigma_cells, scene.gaussian_radius_cells)
        assert min(len(r.trace) for r in results) < d.fit.epochs


class TestOptimizer:
    def test_adaptive_moments_reduces_loss(self):
        g = GroundGrid(24, 24)
        x_t = render_heatmap([(8.0, 12.0)], g, 1.0, 3.0).values
        x_t1 = render_heatmap([(10.0, 12.0)], g, 1.0, 3.0).values
        pair = FitPair(x_t, x_t1, ((8.0, 12.0),), ((10.0, 12.0),))
        cfg = FitConfig(epochs=80, learning_rate=0.05, window_cells=15)
        result = fit_offsets([pair], cfg, g)[0]
        totals = [row["total"] for row in result.trace]
        assert totals[-1] < 0.5 * totals[0]
