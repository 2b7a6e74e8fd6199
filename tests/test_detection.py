"""Threshold detection and figures of merit."""

import numpy as np
import pytest

from leojadce.detection import (THRESHOLD_RATIO, detect, error_probability, nmse,
                                 nmse_active)


def test_detect_all_zero_means_no_detections():
    alpha_hat = detect(np.zeros((4, 6), dtype=complex))
    np.testing.assert_array_equal(alpha_hat, np.zeros(6, dtype=np.int8))
    assert alpha_hat.dtype == np.int8


def test_detect_hand_evaluated_threshold():
    # column of 10s: max element 10, so theta = M (r * 10)^2 = 36 at M = 4,
    # r = THRESHOLD_RATIO = 0.3; a column of 3s has energy exactly theta, one
    # of 2.99s less
    assert THRESHOLD_RATIO == 0.3
    M_X = np.zeros((4, 5), dtype=complex)
    M_X[:, 1] = 10.0
    M_X[:, 2] = 3.0
    M_X[:, 3] = 2.99
    np.testing.assert_array_equal(detect(M_X), [0, 1, 1, 0, 0])


def test_detect_duplicate_columns_tie_symmetry():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    M_X = np.stack([col, col, 0.01 * col], axis=1)
    alpha_hat = detect(M_X)
    assert alpha_hat[0] == alpha_hat[1] == 1


def test_detect_scale_invariance():
    rng = np.random.default_rng(1)
    M_X = rng.standard_normal((4, 20)) + 1j * rng.standard_normal((4, 20))
    M_X[:, 5:] *= 0.05
    base = detect(M_X)
    for c in (1e-6, 3.7, 1e8):
        np.testing.assert_array_equal(detect(c * M_X), base)


def test_error_probability_trivials():
    a = np.array([1, 0, 1, 0])
    assert error_probability(a, a) == 0.0
    b = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    c = b.copy()
    c[0] = 0
    assert error_probability(c, b) == pytest.approx(0.1)


def test_error_probability_counting_oracle():
    rng = np.random.default_rng(2)
    a_true = rng.integers(0, 2, 37)
    a_hat = rng.integers(0, 2, 37)
    misses = sum(1 for t, h in zip(a_true, a_hat) if t == 1 and h == 0)
    false_alarms = sum(1 for t, h in zip(a_true, a_hat) if t == 0 and h == 1)
    assert error_probability(a_hat, a_true) == pytest.approx((misses + false_alarms) / 37)


def test_error_probability_length_mismatch():
    with pytest.raises(ValueError):
        error_probability(np.ones(3), np.ones(4))


def test_nmse_trivials():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert nmse(X, X) == 0.0
    assert nmse(np.zeros_like(X), X) == pytest.approx(1.0)
    assert nmse(2 * X, X) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nmse(X, np.zeros_like(X))


def test_nmse_active_restricts_columns():
    rng = np.random.default_rng(4)
    X = np.zeros((3, 5), dtype=complex)
    alpha = np.array([1, 0, 1, 0, 0])
    X[:, 0] = rng.standard_normal(3)
    X[:, 2] = rng.standard_normal(3)
    X_hat = X.copy()
    X_hat[:, 4] = 100.0  # false-alarm energy ignored by the active-only metric
    assert nmse_active(X_hat, X, alpha) == 0.0
    assert nmse(X_hat, X) > 1.0


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    X_hat = X + 0.1 * rng.standard_normal((3, 8))
    alpha = rng.integers(0, 2, 8)
    alpha_hat = rng.integers(0, 2, 8)
    perm = rng.permutation(8)
    assert error_probability(alpha_hat[perm], alpha[perm]) == \
        error_probability(alpha_hat, alpha)
    assert nmse(X_hat[:, perm], X[:, perm]) == pytest.approx(nmse(X_hat, X), rel=1e-12)
