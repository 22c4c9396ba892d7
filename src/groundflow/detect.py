"""Detection filtering: the 2-means confidence split that separates true
detections from noise. Detections arrive as ground-plane points, so no
peak finding on heatmaps is needed.
"""
from __future__ import annotations

import numpy as np

from .core import Detection


def split_kmeans2(confidences) -> float:
    """1-D 2-means split threshold (midpoint of the two final centroids).

    Centroids are initialized at the min and max, which makes Lloyd's
    iterations deterministic. They stop at a local optimum, which need
    not be the global one: [0, 0.5, 0.6, 1] splits into {0, 0.5} and
    {0.6, 1} (squared error 0.205), where {0} and {0.5, 0.6, 1} give
    0.14. Values strictly above the threshold belong to the high cluster.
    """
    vals = np.asarray(list(confidences), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("split_kmeans2 needs at least one confidence value")
    lo = float(vals.min())
    hi = float(vals.max())
    if hi - lo == 0.0:
        return lo
    c_lo, c_hi = lo, hi
    for _ in range(1000):
        mid = 0.5 * (c_lo + c_hi)
        low = vals[vals <= mid]
        high = vals[vals > mid]
        n_lo = low.mean() if low.size else c_lo
        n_hi = high.mean() if high.size else c_hi
        if abs(n_lo - c_lo) <= 1e-9 and abs(n_hi - c_hi) <= 1e-9:
            c_lo, c_hi = n_lo, n_hi
            break
        c_lo, c_hi = n_lo, n_hi
    return 0.5 * (c_lo + c_hi)


# the least gap between the two confidence centroids that counts as a
# noise cluster
MIN_SEPARATION = 0.25


def select_true_detections(dets: list[Detection]) -> tuple[list[Detection], float]:
    """Apply the 2-means split; keep everything when no noise cluster exists.

    The split only activates when the two centroids are separated by at
    least `MIN_SEPARATION` — a unimodal confidence distribution (e.g. a
    clean scene with no false positives) is left intact.
    """
    if not dets:
        return [], 0.0
    confs = np.array([d.confidence for d in dets])
    threshold = split_kmeans2(confs)
    low = confs[confs <= threshold]
    high = confs[confs > threshold]
    if low.size == 0 or high.size == 0:
        return list(dets), threshold
    if float(high.mean() - low.mean()) < MIN_SEPARATION:
        return list(dets), threshold
    return [d for d in dets if d.confidence > threshold], threshold
