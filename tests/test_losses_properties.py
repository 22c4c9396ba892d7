"""Property-based checks of the spatial-extent (se) term against a per-point oracle."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from groundflow.losses import loss_se_grad_hoods, se_neighborhoods  # noqa: E402


def oracle_hoods(shape, gt_points, radius):
    """Each point's cells within `radius`, in row-major order, one point at a time."""
    h, w = shape
    hoods = []
    for (px, py) in gt_points:
        x0 = max(0, int(np.floor(px - radius)))
        x1 = min(w - 1, int(np.ceil(px + radius)))
        y0 = max(0, int(np.floor(py - radius)))
        y1 = min(h - 1, int(np.ceil(py + radius)))
        if x1 < x0 or y1 < y0:
            hoods.append(np.empty(0, dtype=np.int64))
            continue
        ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
        keep = (xs - px) ** 2 + (ys - py) ** 2 <= radius * radius
        hoods.append((ys[keep] * w + xs[keep]).astype(np.int64))
    return hoods


def oracle_se(dx, dy, hoods):
    """The se value and gradients, one neighborhood at a time."""
    h, w = dx.shape
    g_dx = np.zeros(h * w)
    g_dy = np.zeros(h * w)
    if not hoods:
        return 0.0, g_dx.reshape(h, w), g_dy.reshape(h, w)
    total = 0.0
    for idx in hoods:
        n = idx.size
        if n == 0:
            continue
        vx = dx.ravel()[idx]
        vy = dy.ravel()[idx]
        if vx.max() == vx.min() and vy.max() == vy.min():
            continue
        ex = vx - vx.mean()
        ey = vy - vy.mean()
        std = np.sqrt((ex * ex).sum() / n + (ey * ey).sum() / n)
        total += std
        if std > 1e-12:
            scale = 1.0 / (len(hoods) * n * std)
            np.add.at(g_dx, idx, ex * scale)
            np.add.at(g_dy, idx, ey * scale)
    return total / len(hoods), g_dx.reshape(h, w), g_dy.reshape(h, w)


FIELDS = ("random", "constant", "constant_dx", "tiny")


def _field(rng, kind, shape):
    if kind == "random":
        return rng.normal(0.0, 1.5, shape), rng.normal(0.0, 1.5, shape)
    if kind == "constant":
        return np.full(shape, rng.normal()), np.full(shape, rng.normal())
    if kind == "constant_dx":
        return np.full(shape, rng.normal()), rng.normal(0.0, 1.5, shape)
    # spread far below the 1e-12 gradient gate
    return (1e-14 * rng.integers(-3, 4, shape).astype(np.float64),
            1e-14 * rng.integers(-3, 4, shape).astype(np.float64))


def _points(rng, shape, n_points, radius, integer):
    """Points on and off the grid, some farther off than the radius reaches."""
    h, w = shape
    pts = np.column_stack([rng.uniform(-radius - 3.0, w + radius + 2.0, n_points),
                           rng.uniform(-radius - 3.0, h + radius + 2.0, n_points)])
    if integer:
        pts = np.round(pts)
    return [(float(x), float(y)) for x, y in pts]


def _assert_close(got, want):
    """Within 1e-12 of the largest magnitude; exactly equal where the oracle is all zero."""
    got = np.asarray(got)
    want = np.asarray(want)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 12)
radii = st.sampled_from([0.0, 0.3, 0.49, 0.5, 1.0, 1.5, 2.5, 3.0, 4.2])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, h=sizes, w=sizes, n_points=st.integers(0, 6), radius=radii,
       integer=st.booleans(), kind=st.sampled_from(FIELDS))
@example(seed=0, h=1, w=1, n_points=3, radius=1.0, integer=False, kind="random")
@example(seed=1, h=1, w=1, n_points=2, radius=0.3, integer=True, kind="random")
@example(seed=2, h=8, w=8, n_points=0, radius=3.0, integer=False, kind="random")
def test_matrix_and_se_term_match_the_oracle(seed, h, w, n_points, radius, integer, kind):
    rng = np.random.default_rng(seed)
    pts = _points(rng, (h, w), n_points, radius, integer)
    dx, dy = _field(rng, kind, (h, w))
    want_hoods = oracle_hoods((h, w), pts, radius)

    hoods = se_neighborhoods((h, w), pts, radius)
    assert hoods.dtype == np.int64
    assert hoods.shape == (n_points, max((c.size for c in want_hoods), default=0))
    for row, cells in zip(hoods, want_hoods):
        assert np.array_equal(row[:cells.size], cells)
        assert (row[cells.size:] == h * w).all()

    value, g_dx, g_dy = loss_se_grad_hoods(dx, dy, hoods)
    want_value, want_gdx, want_gdy = oracle_se(dx, dy, want_hoods)
    _assert_close(value, want_value)
    _assert_close(g_dx, want_gdx)
    _assert_close(g_dy, want_gdy)
    if kind == "constant":
        assert value == 0.0
        assert not g_dx.any() and not g_dy.any()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, h=sizes, w=sizes, n_points=st.integers(1, 6),
       radius=st.sampled_from([0.0, 0.2, 0.49]))
def test_sub_half_radius_on_integer_points_is_one_cell_or_none(seed, h, w, n_points, radius):
    rng = np.random.default_rng(seed)
    pts = _points(rng, (h, w), n_points, radius, integer=True)
    hoods = se_neighborhoods((h, w), pts, radius)
    for row, (x, y) in zip(hoods, pts):
        on_grid = 0 <= x < w and 0 <= y < h
        assert list(row[row < h * w]) == ([int(y) * w + int(x)] if on_grid else [])


def test_off_grid_points_give_empty_rows_and_no_loss():
    pts = [(-5.0, 2.0), (2.0, 20.0), (10.5, 10.5)]
    hoods = se_neighborhoods((6, 6), pts, 1.5)
    assert hoods.shape == (3, 0)
    rng = np.random.default_rng(0)
    value, g_dx, g_dy = loss_se_grad_hoods(rng.normal(size=(6, 6)), rng.normal(size=(6, 6)), hoods)
    assert value == 0.0
    assert not g_dx.any() and not g_dy.any()
