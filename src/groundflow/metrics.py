"""CLEAR MOT tracking metrics, identity metrics, and offset-error metrics.

Matching protocol (documented so numbers are reproducible): per frame,
matches from the previous frame persist while both members are present
and within the distance threshold; the remaining detections are then
assigned by minimum total distance. An identity switch is counted when
a ground-truth track's matched prediction id differs from its last
known match. MOTP is the raw mean matched distance in cells (lower is
better). Identity metrics (IDF1/IDP/IDR) come from a single global
trajectory-level assignment that maximizes correctly identified frames,
counted per pair in the same per-frame pass and distance matrix as the
CLEAR MOT matching. Both assignments are `track.associate_hungarian`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import OffsetField
from .errors import UndefinedMetric
from .track import associate_hungarian

# the distance in cells up to which a tracked point may match a true one
DIST_THRESHOLD = 2.5


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    idf1: float
    idp: float
    idr: float
    gt: int
    fp: int
    fn: int
    idsw: int
    matches: int

    def to_json(self) -> str:
        return json.dumps({
            "mota": self.mota,
            "motp": self.motp,
            "idf1": self.idf1,
            "idp": self.idp,
            "idr": self.idr,
            "counts": {"gt": self.gt, "fp": self.fp, "fn": self.fn,
                       "idsw": self.idsw, "matches": self.matches},
        }, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class OffsetReport:
    l1: float
    angle_deg: float
    norm_err: float

    def to_json(self) -> str:
        return json.dumps({
            "l1": self.l1,
            "angle_deg": self.angle_deg,
            "norm_err": self.norm_err,
        }, indent=2, sort_keys=True) + "\n"


def _by_frame(trajectories) -> dict[int, list[tuple[int, float, float, int]]]:
    """Each frame's (id, x, y, list index) rows, sorted."""
    frames: dict[int, list[tuple[int, float, float, int]]] = {}
    for k, tr in enumerate(trajectories):
        for (t, x, y) in tr.points:
            frames.setdefault(t, []).append((tr.id, x, y, k))
    return {t: sorted(rows) for t, rows in frames.items()}


def clear_mot(pred, gt, dist_threshold: float = DIST_THRESHOLD) -> MotReport:
    """CLEAR MOT + identity metrics for predicted vs ground-truth tracks."""
    gt_total = sum(len(tr.points) for tr in gt)
    if gt_total == 0:
        raise UndefinedMetric("MOTA is undefined without ground truth")
    pred_total = sum(len(tr.points) for tr in pred)
    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    # overlap[a, b]: frames where pred[b] lies within the threshold of gt[a]
    overlap = np.zeros((len(gt), len(pred)), dtype=np.int64)

    mapping: dict[int, int] = {}  # gt id -> last matched pred id
    fp = fn = idsw = matches = 0
    dist_sum = 0.0
    for t in sorted(set(gt_frames) | set(pred_frames)):
        gts = gt_frames.get(t, [])
        preds = pred_frames.get(t, [])
        if not (gts and preds):
            fn += len(gts)
            fp += len(preds)
            continue
        gids, gx, gy, g_rows = zip(*gts)
        pids, px, py, p_rows = zip(*preds)
        dist = np.hypot(np.subtract.outer(gx, px), np.subtract.outer(gy, py))
        overlap[np.ix_(g_rows, p_rows)] += dist <= dist_threshold
        pred_col = {pid: c for c, pid in enumerate(pids)}
        used_pred = set()
        unmatched = []
        # keep persistent matches that are still close enough
        for r, gid in enumerate(gids):
            pid = mapping.get(gid)
            c = pred_col.get(pid)
            if c is not None and pid not in used_pred and dist[r, c] <= dist_threshold:
                matches += 1
                dist_sum += float(dist[r, c])
                used_pred.add(pid)
            else:
                unmatched.append(r)
        free = [c for c, pid in enumerate(pids) if pid not in used_pred]
        pairs = associate_hungarian(dist[np.ix_(unmatched, free)], dist_threshold)
        for i, j in pairs:
            r, c = unmatched[i], free[j]
            gid, pid = gids[r], pids[c]
            matches += 1
            dist_sum += float(dist[r, c])
            used_pred.add(pid)
            if mapping.get(gid, pid) != pid:
                idsw += 1
            mapping[gid] = pid
        fn += len(unmatched) - len(pairs)
        fp += len(preds) - len(used_pred)

    # identity metrics: one global assignment maximizing the overlap
    idtp = sum(int(overlap[r, c]) for r, c in associate_hungarian(-overlap))
    return MotReport(
        mota=1.0 - (fn + fp + idsw) / gt_total,
        motp=dist_sum / matches if matches else 0.0,
        idf1=2 * idtp / (gt_total + pred_total),
        idp=idtp / pred_total if pred_total else 0.0,
        idr=idtp / gt_total,
        gt=gt_total, fp=fp, fn=fn, idsw=idsw, matches=matches)


def offset_error(delta_pred: OffsetField, truth, pair_index: int) -> OffsetReport:
    """Offset metrics at the ground-truth cells of one frame pair.

    L1 is the mean per-component absolute error over all GT cells;
    angle (degrees) and norm error are averaged over cells whose GT
    offset is nonzero. A zero predicted vector against a nonzero GT
    contributes the worst-case 180 degrees.
    """
    rows = truth.gt_cells[pair_index]
    if not rows:
        raise UndefinedMetric(f"pair {pair_index} has no ground-truth cells")
    if delta_pred.dx.shape != truth.config.grid.shape:
        raise UndefinedMetric("offset field grid does not match the scene grid")
    l1_sum = 0.0
    angles = []
    norm_errs = []
    for (cx, cy, ox, oy) in rows:
        pdx = float(delta_pred.dx[cy, cx])
        pdy = float(delta_pred.dy[cy, cx])
        l1_sum += 0.5 * (abs(pdx - ox) + abs(pdy - oy))
        n_gt = math.hypot(ox, oy)
        if n_gt > 1e-6:
            n_pred = math.hypot(pdx, pdy)
            norm_errs.append(abs(n_pred - n_gt))
            if n_pred <= 1e-12:
                angles.append(180.0)
            else:
                cross = pdx * oy - pdy * ox
                dot = pdx * ox + pdy * oy
                angles.append(math.degrees(math.atan2(abs(cross), dot)))
    l1 = l1_sum / len(rows)
    angle = float(np.mean(angles)) if angles else 0.0
    norm_err = float(np.mean(norm_errs)) if norm_errs else 0.0
    return OffsetReport(l1=l1, angle_deg=angle, norm_err=norm_err)


def mean_offset_report(reports) -> OffsetReport:
    """Average componentwise over per-pair reports."""
    reports = list(reports)
    if not reports:
        raise UndefinedMetric("no offset reports to average")
    return OffsetReport(
        l1=float(np.mean([r.l1 for r in reports])),
        angle_deg=float(np.mean([r.angle_deg for r in reports])),
        norm_err=float(np.mean([r.norm_err for r in reports])),
    )
