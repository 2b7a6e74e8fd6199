"""Preamble construction and received-signal synthesis.

Each device's preamble is the vectorization of a rank-1 tensor built from
per-mode unit-norm Gaussian vectors, so the length-L sequence equals the
Kronecker product of its factors. The preambles of all K devices are
carried as the tuple of their d factor arrays A_1..A_d, each l_i x K; their
Khatri-Rao product (see :mod:`leojadce.tensors`) is the L x K matrix A of
preambles. The receiver sees all devices' noisy superposition as the L x M
samples Y = A X^T + N, and VBI, SOMP and AMP all read this Y and this A.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensors import khatri_rao


def gen_preambles(dims: Sequence[int], K: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The read-only factor arrays A_1..A_d, one l_i x K array per entry of
    ``dims``: i.i.d. circular complex Gaussian, normalized column-wise.
    Needs d >= 1 modes, each of length >= 2; d = 1 is the unstructured
    preamble."""
    if K < 1:
        raise ValueError("K must be >= 1")
    dims = [int(l) for l in dims]
    if not dims or min(dims) < 2:
        raise ValueError(f"need d >= 1 modes, each of length >= 2: {dims}")
    mats = []
    for l in dims:
        a = rng.standard_normal((l, K)) + 1j * rng.standard_normal((l, K))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        a.flags.writeable = False
        mats.append(a)
    return tuple(mats)


def assemble_preamble_matrix(p: tuple[np.ndarray, ...]) -> np.ndarray:
    """The read-only L x K preamble matrix, the Khatri-Rao product of the
    factors; synthesis and every algorithm of a trial share it."""
    A = khatri_rao(p)
    A.flags.writeable = False
    return A


def synthesize_received(A: np.ndarray, X: np.ndarray, sigma_n2: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Received samples Y = A X^T + N, with A from assemble_preamble_matrix
    and N i.i.d. CN(0, sigma_n2): a read-only, C-contiguous L x M array
    whose row l is preamble sample l and column m is antenna m.
    Y^T = X A^T + N^T is the mode-(d+1) unfolding of the received tensor."""
    if sigma_n2 < 0:
        raise ValueError("noise variance must be >= 0")
    Y = np.ascontiguousarray((X @ A.T).T)
    if sigma_n2 != 0.0:
        noise = math.sqrt(sigma_n2 / 2.0) * (
            rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape))
        Y += noise
    Y.flags.writeable = False
    return Y


def snr_to_noise_variance(snr_db: float) -> float:
    """SNR is defined as 10 log10(1 / sigma_n^2), at unit transmit power."""
    return 10.0 ** (-snr_db / 10.0)
