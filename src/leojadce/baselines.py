"""Reference sparse-recovery baselines operating on the matrix-form signal.

The baselines see a plain L x M observation and an L x K dictionary; they
do not exploit the tensor structure. They read the received samples in the
one convention every algorithm here shares,

    Y = A X^T (+ noise),

with A the L x K preamble matrix and X the M x K device-state matrix, and
they return their estimate of X itself: device k's coefficient row is
column k of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SompConfig:
    max_support: int
    residual_tol: float = 0.0   # stop when ||R||_F / ||Y||_F falls below


@dataclass(frozen=True)
class SompResult:
    support: list[int]
    X_hat: np.ndarray           # M x K, zero off-support


def somp(Y: np.ndarray, A: np.ndarray, cfg: SompConfig) -> SompResult:
    """Simultaneous OMP: greedily add the column with the largest summed
    correlation magnitude against the residual, least-squares refit on the
    support, repeat until the residual tolerance or the support cap.

    ``Y`` (L x M) is read as ``A X^T`` plus noise; ``X_hat`` estimates the
    M x K matrix X, so it holds the transpose of the fitted coefficient
    rows.

    The refit keeps a growing QR factor A_S = Q R of the chosen atoms. A new
    atom a_k is orthogonalised twice against Q (classical Gram-Schmidt with
    one reorthogonalisation pass). The residual then loses its component
    along the new unit column q: the row q^H R_res, which equals q^H Y
    because R_res is Y less its projection on the earlier columns, joins
    the stored Q^H Y rows, and R_res -= q (q^H R_res). One solve of
    R C = Q^H Y gives the coefficients at the end. It runs through
    ``np.linalg.solve``: the LU factorization of an upper-triangular R
    makes no row swaps, so this is a back-substitution with numpy alone.
    Its coefficients agree with a triangular solve to roundoff; the
    support, chosen before the solve, does not depend on it. The K x M correlation A^T R_res^* (whose magnitudes are
    those of A^H R_res) is formed once, on a transposed view of A (L K M
    multiply-adds; no L x K adjoint of A is formed). As R_res loses
    q (q^H R_res), the correlation loses the rank-1 term
    (A^T q^*) (q^H R_res)^*, so each atom costs L K multiply-adds for it,
    plus O(L s + L M) for the column and the residual on a support of
    size s.

    The search stops before the atom joins when the new column's
    orthogonal remainder is at most ``max(L, s + 1) * eps * ||a_k||``: the
    relative cutoff that ``np.linalg.lstsq`` applies to the singular values
    of an L x (s + 1) support, applied here to the distance of a_k from the
    span of Q."""
    Y = np.asarray(Y, dtype=complex)
    A = np.asarray(A, dtype=complex)
    L, M = Y.shape
    K = A.shape[1]
    if cfg.max_support > K:
        raise ValueError("max_support cannot exceed the dictionary size")
    y_norm = float(np.linalg.norm(Y))
    support: list[int] = []
    R_res = Y.copy()
    res_norm = y_norm
    X_hat = np.zeros((M, K), dtype=complex)
    if y_norm == 0.0:
        return SompResult(support=[], X_hat=X_hat)
    cap = cfg.max_support
    Q_H = np.zeros((cap, L), dtype=complex)     # row j holds q_j^H
    R = np.zeros((cap, cap), dtype=complex)     # A_S = Q R, upper triangular
    QhY = np.zeros((cap, M), dtype=complex)     # row j holds q_j^H Y
    eps = np.finfo(float).eps
    corr = A.T @ R_res.conj()                   # (A^H R_res)^*
    while len(support) < cap:
        if res_norm / y_norm <= cfg.residual_tol:
            break
        score = np.sum(np.abs(corr), axis=1)
        score[support] = -1.0
        k_star = int(np.argmax(score))
        s = len(support)
        w = A[:, k_star].copy()
        for _ in range(2):
            c = Q_H[:s] @ w                     # Q^H w
            w -= (c.conj() @ Q_H[:s]).conj()    # w - Q c
            R[:s, s] += c
        r_ss = float(np.linalg.norm(w))
        if r_ss <= max(L, s + 1) * eps * float(np.linalg.norm(A[:, k_star])):
            break
        R[s, s] = r_ss
        q = w / r_ss
        Q_H[s] = q.conj()
        QhY[s] = Q_H[s] @ R_res
        R_res -= np.outer(q, QhY[s])
        corr -= np.outer(A.T @ Q_H[s], QhY[s].conj())
        support.append(k_star)
        res_norm = float(np.linalg.norm(R_res))
    if support:
        n = len(support)
        coef = np.linalg.solve(R[:n, :n], QhY[:n])
        X_hat[:, support] = coef.T
    return SompResult(support=support, X_hat=X_hat)


def default_max_support(p_a: float, K: int) -> int:
    """Support cap ceil(1.5 p_a K) used by the experiment harness (the tiny
    slack keeps float dust from bumping exact products up a notch)."""
    return min(K, max(1, math.ceil(1.5 * p_a * K - 1e-9)))


def somp_residual_tol(Y: np.ndarray, sigma_n2: float) -> float:
    """Discrepancy-principle stop: quit once the residual reaches the
    expected noise floor."""
    y_norm = float(np.linalg.norm(Y))
    if y_norm == 0.0:
        return 0.0
    floor = math.sqrt(sigma_n2 * Y.size)
    return floor / y_norm


# AMP's fixed settings: the iteration cap of :func:`amp_mmv`, the weight of
# each new iterate in the damped update, and the stop on the relative
# residual ||Y - A X|| / ||Y||.
AMP_MAX_ITERS = 50
AMP_DAMPING = 0.5
AMP_TOL = 1e-4


@dataclass(frozen=True)
class AmpResult:
    X_hat: np.ndarray
    n_iters: int
    diverged: bool


def amp_mmv(Y: np.ndarray, A: np.ndarray, p_a: float) -> AmpResult:
    """Soft-threshold AMP with a row-wise (MMV) group threshold.

    Standard iteration with an Onsager term; rows of the pseudo-data are
    shrunk jointly via block soft thresholding. Kept simple: it is a
    comparison baseline, not a tuned state-evolution implementation. The
    threshold follows the residual's own scale, so it reads no noise variance.

    ``Y`` (L x M) is read as ``A X^T`` plus noise, like :func:`somp`; the
    returned ``X_hat`` estimates the M x K matrix X (zeros if it diverged).

    An iteration does two L x K products: the adjoint A^H Z, taken as
    (A^T Z^*)^* on a transposed view of A so no conjugate copy of A is held
    (bit-equal to ``A.conj().T @ Z``), and A X_new. The product A X that
    the stop test ||Y - A X|| <= AMP_TOL ||Y|| reads is carried through
    the same damping as X, so it matches A applied to the damped X up to
    roundoff; the iterates X and Z do not depend on it.
    """
    Y = np.asarray(Y, dtype=complex)
    A = np.asarray(A, dtype=complex)
    L, M = Y.shape
    K = A.shape[1]
    delta = L / K
    X = np.zeros((K, M), dtype=complex)   # row-per-device layout internally
    AX = np.zeros((L, M), dtype=complex)
    Z = Y.copy()
    y_norm = float(np.linalg.norm(Y))
    diverged = False
    n_done = 0
    for it in range(1, AMP_MAX_ITERS + 1):
        n_done = it
        pseudo = X + (A.T @ Z.conj()).conj()
        tau = np.linalg.norm(Z) / math.sqrt(L * M)
        lam = tau * math.sqrt(2.0 * math.log(max(K / max(p_a * K, 1.0), math.e)))
        row_norms = np.linalg.norm(pseudo, axis=1)
        shrink = np.maximum(1.0 - lam / np.maximum(row_norms, 1e-300), 0.0)
        X_new = pseudo * shrink[:, None]
        active_frac = float(np.mean(shrink > 0))
        onsager = Z * (active_frac / delta)
        AX_new = A @ X_new
        Z_new = Y - AX_new + onsager
        X = AMP_DAMPING * X_new + (1.0 - AMP_DAMPING) * X
        AX = AMP_DAMPING * AX_new + (1.0 - AMP_DAMPING) * AX
        Z = AMP_DAMPING * Z_new + (1.0 - AMP_DAMPING) * Z
        if not np.all(np.isfinite(Z)) or np.linalg.norm(Z) > 1e6 * (y_norm + 1.0):
            diverged = True
            break
        if np.linalg.norm(Y - AX) <= AMP_TOL * y_norm:
            break
    return AmpResult(X_hat=X.T if not diverged else np.zeros((M, K), dtype=complex),
                     n_iters=n_done, diverged=diverged)
