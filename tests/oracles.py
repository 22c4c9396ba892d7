"""Reference implementations that only tests use: the Kalman steps of one
filter state, which the batched steps of `groundflow.track` are checked
against, and the IoU of one pair of squares."""
import numpy as np

from groundflow.track import MEAS_NOISE, PROCESS_NOISE


def kalman_predict(mean, cov, process_noise=PROCESS_NOISE):
    """Constant-velocity predict of a (4,) mean (x, y, vx, vy) and its
    (4, 4) covariance by one frame; the covariance is re-symmetrized."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = 1.0
    cov = F @ cov @ F.T + process_noise * np.eye(4)
    return F @ mean, 0.5 * (cov + cov.T)


def kalman_update(mean, cov, z, meas_noise=MEAS_NOISE):
    """Update of a mean and covariance by the measured position z."""
    H = np.eye(2, 4)
    S = H @ cov @ H.T + meas_noise * np.eye(2)
    K = np.linalg.solve(S.T, (cov @ H.T).T).T
    mean = mean + K @ (np.asarray(z, dtype=np.float64) - H @ mean)
    cov = (np.eye(4) - K @ H) @ cov
    return mean, 0.5 * (cov + cov.T)


def square_iou(c1, c2, side: float) -> float:
    """IoU of the side-length squares centred at c1 and c2."""
    ix = max(0.0, side - abs(c1[0] - c2[0]))
    iy = max(0.0, side - abs(c1[1] - c2[1]))
    inter = ix * iy
    union = 2.0 * side * side - inter
    return inter / union if union > 0 else 0.0
