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
class SompResult:
    support: list[int]
    X_hat: np.ndarray           # M x K, zero off-support


def somp(Y: np.ndarray, A: np.ndarray, max_support: int, residual_tol: float
         ) -> SompResult:
    """Simultaneous OMP: greedily add the column with the largest summed
    correlation magnitude against the residual, least-squares refit on the
    support, repeat until ||R_res||_F / ||Y||_F <= ``residual_tol`` or the
    support holds ``max_support`` atoms.

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
    support, chosen before the solve, does not depend on it.

    The K x M correlation A^T R_res^* (whose magnitudes are those of
    A^H R_res) is formed once, on a transposed view of A (L K M
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
    if max_support > K:
        raise ValueError("max_support cannot exceed the dictionary size")
    y_norm = float(np.linalg.norm(Y))
    support: list[int] = []
    R_res = Y.copy()
    res_norm = y_norm
    X_hat = np.zeros((M, K), dtype=complex)
    if y_norm == 0.0:
        return SompResult(support=[], X_hat=X_hat)
    Q_H = np.zeros((max_support, L), dtype=complex)           # row j holds q_j^H
    R = np.zeros((max_support, max_support), dtype=complex)   # A_S = Q R, upper triangular
    QhY = np.zeros((max_support, M), dtype=complex)           # row j holds q_j^H Y
    eps = np.finfo(float).eps
    corr = A.T @ R_res.conj()                   # (A^H R_res)^*
    while len(support) < max_support:
        if res_norm / y_norm <= residual_tol:
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
# each new iterate in the damped update, and the stop on the relative change
# of the damped estimate, ||X - X_prev|| <= AMP_TOL ||X_prev|| (the rule of
# ``vbi.REL_TOL``).
AMP_MAX_ITERS = 50
AMP_DAMPING = 0.8
AMP_TOL = 1e-3


@dataclass(frozen=True)
class AmpResult:
    X_hat: np.ndarray
    n_iters: int
    diverged: bool


def amp_mmv(Y: np.ndarray, A: np.ndarray, p_a: float) -> AmpResult:
    """MMV AMP with a Bernoulli-Gaussian MMSE row denoiser (Liu & Yu 2018;
    Chen, Sohrabi & Yu 2018).

    ``Y`` (L x M) is read as ``A X^T`` plus noise, like :func:`somp`; the
    returned ``X_hat`` estimates the M x K matrix X (zeros if it diverged).
    Inside, device k's channel is row x_k of a K x M matrix X.

    Prior: each row x_k is 0 with probability 1 - ``p_a`` and CN(0, gamma I)
    otherwise. The pseudo-data R = X + A^H Z is taken as X plus white noise
    of variance tau^2 = ||Z||_F^2 / (L M), estimated from the residual Z at
    every iteration, so AMP reads no noise variance. gamma starts at
    ||Y||_F^2 / (M p_a K), the energy of an active row when the columns of A
    have unit norm, and each iteration re-estimates it by EM from the
    posterior of the rows. With g = gamma / (gamma + tau^2) and
    c = 1 / tau^2 - 1 / (gamma + tau^2), row r_k of R is active with
    posterior probability

        pi_k = sigmoid(log(p_a / (1 - p_a)) + M log(tau^2 / (gamma + tau^2))
                       + c ||r_k||^2),

    and the denoiser returns its posterior mean pi_k g r_k. The Onsager
    term multiplies Z by (1 / (L M)) sum_k [M pi_k g + g pi_k (1 - pi_k) c
    ||r_k||^2], the mean divergence of the denoiser times K / L. X and Z
    move by ``AMP_DAMPING`` of each step. The run stops when the damped X
    moves by at most ``AMP_TOL`` of its norm; when ||Z|| falls to the
    roundoff of ||Y||, as it does on noise-free samples, since R = X + A^H Z
    can then move X by roundoff alone and tau^2 would head for 0; or after
    ``AMP_MAX_ITERS`` iterations. It reports divergence when ||Z|| grows
    non-finite or beyond 1e6 (||Y|| + 1), or when ||X|| grows beyond
    1e3 (||Y|| + 1). The second bound catches an estimate that blows up
    while the residual stays in bounds: the columns of A have unit norm, so
    an X that explains Y has a norm near ||Y||, and read at most 1.01 ||Y||
    at K=500, L=100, 30 dB, while runs there without damping blew up to
    2.6e4-6.8e4 ||Y|| with ||Z|| under its bound. ``p_a`` = 0 gives the zero
    estimate without iterating, and ``p_a`` = 1 the Gaussian (linear MMSE)
    denoiser.

    One iteration costs two L x K x M products, L K M complex
    multiply-adds each, plus O(K M) for the denoiser and the stop test:
    the adjoint A^H Z, taken as (A^T Z^*)^* on a transposed view of A so no
    conjugate copy of A is held (bit-equal to ``A.conj().T @ Z``), and
    A X_new.
    """
    Y = np.asarray(Y, dtype=complex)
    A = np.asarray(A, dtype=complex)
    L, M = Y.shape
    K = A.shape[1]
    X = np.zeros((K, M), dtype=complex)
    if p_a == 0.0:
        return AmpResult(X_hat=X.T, n_iters=0, diverged=False)
    log_odds = math.inf if p_a == 1.0 else math.log(p_a / (1.0 - p_a))
    Z = Y.copy()
    y_norm = z_norm = float(np.linalg.norm(Y))
    x_norm = 0.0
    gamma = y_norm ** 2 / (M * p_a * K)
    eps = np.finfo(float).eps
    diverged = False
    n_done = 0
    for it in range(1, AMP_MAX_ITERS + 1):
        n_done = it
        if z_norm <= eps * y_norm:
            break
        tau2 = z_norm ** 2 / (L * M)
        R = X + (A.T @ Z.conj()).conj()
        r2 = np.sum(np.abs(R) ** 2, axis=1)
        g = gamma / (gamma + tau2)
        c = 1.0 / tau2 - 1.0 / (gamma + tau2)
        logit = log_odds + M * math.log(tau2 / (gamma + tau2)) + c * r2
        pi = np.exp(-np.logaddexp(0.0, -logit))       # sigmoid, overflow-free
        X_new = (pi * g)[:, None] * R
        pi_sum = float(np.sum(pi))
        onsager = (M * g * pi_sum + g * c * float(np.dot(pi * (1.0 - pi), r2))) / (L * M)
        Z_new = Y - A @ X_new + onsager * Z
        if pi_sum > 0.0:
            # EM: the posterior mean of ||x_k||^2 / M over the active rows
            gamma = (g * g * float(np.dot(pi, r2)) + M * g * tau2 * pi_sum) / (M * pi_sum)
        X_prev, x_norm_prev = X, x_norm
        X = AMP_DAMPING * X_new + (1.0 - AMP_DAMPING) * X
        Z = AMP_DAMPING * Z_new + (1.0 - AMP_DAMPING) * Z
        z_norm, x_norm = float(np.linalg.norm(Z)), float(np.linalg.norm(X))
        # a NaN fails both comparisons
        if not (z_norm <= 1e6 * (y_norm + 1.0) and x_norm <= 1e3 * (y_norm + 1.0)):
            diverged = True
            break
        if np.linalg.norm(X - X_prev) <= AMP_TOL * x_norm_prev:
            break
    return AmpResult(X_hat=X.T if not diverged else np.zeros((M, K), dtype=complex),
                     n_iters=n_done, diverged=diverged)
