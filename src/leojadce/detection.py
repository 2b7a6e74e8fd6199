"""Activity decision and figures of merit."""

from __future__ import annotations

import numpy as np

# The ratio r of the activity rule in :func:`detect`, in (0, 1): a device is
# active when its column energy reaches M (r max|M_X|)^2.
THRESHOLD_RATIO = 0.3


def detect(M_X: np.ndarray) -> np.ndarray:
    """Threshold rule: theta = M (THRESHOLD_RATIO * max|M_X|)^2, device k
    active iff its column energy reaches theta. Returns the int8 activity
    bit per device.

    An all-zero M_X yields no detections (theta = 0 degenerate case).
    """
    M_X = np.asarray(M_X)
    M, K = M_X.shape
    peak = float(np.max(np.abs(M_X))) if M_X.size else 0.0
    if peak == 0.0:
        return np.zeros(K, dtype=np.int8)
    col_energy = np.sum(np.abs(M_X) ** 2, axis=0)
    return (col_energy >= M * (THRESHOLD_RATIO * peak) ** 2).astype(np.int8)


def error_probability(alpha_hat: np.ndarray, alpha_true: np.ndarray) -> float:
    """Fraction of devices with a wrong activity decision (misses plus
    false alarms over K)."""
    alpha_hat = np.asarray(alpha_hat).astype(bool)
    alpha_true = np.asarray(alpha_true).astype(bool)
    if alpha_hat.shape != alpha_true.shape:
        raise ValueError("activity vectors must have equal length")
    return float(np.mean(alpha_hat != alpha_true))


def nmse(X_hat: np.ndarray, X_true: np.ndarray) -> float:
    """||X_hat - X_true||_F^2 / ||X_true||_F^2 over the full matrix."""
    denom = float(np.linalg.norm(X_true)) ** 2
    if denom == 0.0:
        raise ValueError("NMSE undefined for zero ground truth")
    return float(np.linalg.norm(X_hat - X_true)) ** 2 / denom


def nmse_active(X_hat: np.ndarray, X_true: np.ndarray, alpha_true: np.ndarray) -> float:
    """NMSE restricted to the truly-active columns (secondary metric)."""
    active = np.asarray(alpha_true).astype(bool)
    if not np.any(active):
        raise ValueError("no active devices")
    return nmse(np.asarray(X_hat)[:, active], np.asarray(X_true)[:, active])
