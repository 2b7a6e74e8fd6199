"""Reference sparse-recovery baselines operating on the matrix-form signal.

The baselines see a plain L x M observation and an L x K dictionary; they
do not exploit the tensor structure. Both take their input in the form

    Y = A X^H (+ noise),

with X the M x K device-state matrix, and both return their estimate of X
itself: recovered coefficient rows conjugate-transpose back into
device-state columns.

The received tensor's matrix form is Y_mat = unfold_last(Y).T = A X^T, with
A the assembled preamble matrix. Its conjugate Y_mat* = A* X^H is in the
form above, so the harness passes the pair (Y_mat.conj(), A.conj()).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SompConfig:
    max_support: int
    residual_tol: float = 0.0   # stop when ||R||_F / ||Y||_F falls below


@dataclass(frozen=True)
class SompResult:
    support: list[int]
    X_hat: np.ndarray           # M x K, zero off-support
    residual_norms: list[float]
    rank_deficient: bool = False


def somp(Y: np.ndarray, A: np.ndarray, cfg: SompConfig) -> SompResult:
    """Simultaneous OMP: greedily add the column with the largest summed
    correlation magnitude against the residual, least-squares refit on the
    support, repeat until the residual tolerance or the support cap.

    ``Y`` (L x M) is read as ``A X^H`` plus noise; ``X_hat`` estimates the
    M x K matrix X, so it holds the conjugate transpose of the fitted
    coefficient rows."""
    Y = np.asarray(Y, dtype=complex)
    A = np.asarray(A, dtype=complex)
    L, M = Y.shape
    K = A.shape[1]
    if cfg.max_support > K:
        raise ValueError("max_support cannot exceed the dictionary size")
    y_norm = float(np.linalg.norm(Y))
    support: list[int] = []
    coef = np.zeros((0, M), dtype=complex)
    R = Y.copy()
    norms = [float(np.linalg.norm(R))]
    rank_deficient = False
    if y_norm == 0.0:
        return SompResult(support=[], X_hat=np.zeros((M, K), dtype=complex),
                          residual_norms=norms)
    while len(support) < cfg.max_support:
        if norms[-1] / y_norm <= cfg.residual_tol:
            break
        score = np.sum(np.abs(A.conj().T @ R), axis=1)
        score[support] = -1.0
        k_star = int(np.argmax(score))
        trial_support = support + [k_star]
        A_s = A[:, trial_support]
        sol, _, rank, _ = np.linalg.lstsq(A_s, Y, rcond=None)
        if rank < len(trial_support):
            rank_deficient = True
            break
        support = trial_support
        coef = sol
        R = Y - A_s @ coef
        norms.append(float(np.linalg.norm(R)))
    X_hat = np.zeros((M, K), dtype=complex)
    if support:
        X_hat[:, support] = coef.conj().T
    return SompResult(support=support, X_hat=X_hat, residual_norms=norms,
                      rank_deficient=rank_deficient)


def default_max_support(p_a: float, K: int) -> int:
    """Support cap ceil(1.5 p_a K) used by the experiment harness (the tiny
    slack keeps float dust from bumping exact products up a notch)."""
    return min(K, max(1, math.ceil(1.5 * p_a * K - 1e-9)))


@dataclass(frozen=True)
class AmpConfig:
    max_iters: int = 50
    damping: float = 0.5
    tol: float = 1e-4


@dataclass(frozen=True)
class AmpResult:
    X_hat: np.ndarray
    n_iters: int
    diverged: bool


def amp_mmv(Y: np.ndarray, A: np.ndarray, sigma_n2: float, p_a: float,
            cfg: AmpConfig = AmpConfig()) -> AmpResult:
    """Soft-threshold AMP with a row-wise (MMV) group threshold.

    Standard iteration with an Onsager term; rows of the pseudo-data are
    shrunk jointly via block soft thresholding. Kept simple: it is a
    comparison baseline, not a tuned state-evolution implementation.

    ``Y`` (L x M) is read as ``A X^H`` plus noise, like :func:`somp`; the
    returned ``X_hat`` estimates the M x K matrix X (zeros if it diverged).
    """
    Y = np.asarray(Y, dtype=complex)
    A = np.asarray(A, dtype=complex)
    L, M = Y.shape
    K = A.shape[1]
    delta = L / K
    X = np.zeros((K, M), dtype=complex)   # row-per-device layout internally
    Z = Y.copy()
    y_norm = float(np.linalg.norm(Y))
    A_H = A.conj().T
    diverged = False
    n_done = 0
    for it in range(1, cfg.max_iters + 1):
        n_done = it
        pseudo = X + A_H @ Z
        tau = np.linalg.norm(Z) / math.sqrt(L * M)
        lam = tau * math.sqrt(2.0 * math.log(max(K / max(p_a * K, 1.0), math.e)))
        row_norms = np.linalg.norm(pseudo, axis=1)
        shrink = np.maximum(1.0 - lam / np.maximum(row_norms, 1e-300), 0.0)
        X_new = pseudo * shrink[:, None]
        active_frac = float(np.mean(shrink > 0))
        onsager = Z * (active_frac / delta)
        Z_new = Y - A @ X_new + onsager
        X = cfg.damping * X_new + (1.0 - cfg.damping) * X
        Z = cfg.damping * Z_new + (1.0 - cfg.damping) * Z
        if not np.all(np.isfinite(Z)) or np.linalg.norm(Z) > 1e6 * (y_norm + 1.0):
            diverged = True
            break
        if np.linalg.norm(Y - A @ X) <= cfg.tol * y_norm:
            break
    return AmpResult(X_hat=X.conj().T if not diverged else np.zeros((M, K), dtype=complex),
                     n_iters=n_done, diverged=diverged)
