"""Block q(X) written from its definition, the oracle of the engine's block
path: the K x K Gram, the block layout of np.array_split, and one
Gauss-Seidel sweep that inverts each block's system with np.linalg.inv and
forms each block's residual afresh."""

from functools import reduce

import numpy as np

from leojadce import vbi


def dense_gram(p):
    """The K x K Gram hadamard_i (A_i^H A_i)^* = KR^T KR^*."""
    return reduce(np.multiply, [(a.conj().T @ a).conj() for a in p])


def blocks(n):
    """Consecutive index blocks of about vbi.BLOCK_SIZE devices."""
    return np.array_split(np.arange(n), -(-n // vbi.BLOCK_SIZE))


def reference_sweep(G, kr, Y_mat, e_beta, e_v, M_X):
    """One sweep over the blocks, in order, from the M x n mean ``M_X``:
    each block's mean becomes E[beta] (Y_mat - M_X_-B KR_-B^T) KR_B^* C_B,
    with C_B = (E[beta] G_BB + diag E[v_B])^-1. G, kr, e_v and M_X hold the
    n devices of the solve. Returns (M_X, diag C_X, sum_B Tr(G_BB C_B),
    sum_B log det C_B)."""
    M_X = M_X.copy()
    c_diag = np.empty(len(e_v))
    tr_GC = log_det_C = 0.0
    for B in blocks(len(e_v)):
        G_BB = G[np.ix_(B, B)]
        C_B = np.linalg.inv(e_beta * G_BB + np.diag(e_v[B]))
        others = Y_mat - M_X @ kr.T + M_X[:, B] @ kr[:, B].T
        M_X[:, B] = e_beta * (others @ kr[:, B].conj()) @ C_B
        c_diag[B] = np.diag(C_B).real
        tr_GC += np.trace(G_BB @ C_B).real
        sign, log_det = np.linalg.slogdet(C_B)
        assert sign.real > 0
        log_det_C += log_det
    return M_X, c_diag, tr_GC, log_det_C
