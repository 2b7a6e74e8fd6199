"""Preamble construction and received-signal synthesis.

Each device's preamble is the vectorization of a rank-1 tensor built from
per-mode unit-norm Gaussian vectors, so the length-L sequence equals the
Kronecker product of its factors and the noisy superposition of all active
devices is a CP-structured tensor.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensors import ComplexTensor, FactorMatrices, khatri_rao, kruskal


def gen_preambles(dims: Sequence[int], K: int, rng: np.random.Generator) -> FactorMatrices:
    """Draw i.i.d. circular complex Gaussian factors, normalized column-wise;
    :class:`FactorMatrices` rejects fewer than two dims or a dim below 2."""
    if K < 1:
        raise ValueError("K must be >= 1")
    mats = []
    for l in map(int, dims):
        a = rng.standard_normal((l, K)) + 1j * rng.standard_normal((l, K))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        mats.append(a)
    return FactorMatrices(tuple(mats))


def assemble_preamble_matrix(p: FactorMatrices) -> np.ndarray:
    """L x K matrix whose column k is the Kronecker fold of device k's
    factor columns (equals the Khatri-Rao product of the factors)."""
    return khatri_rao(list(p))


def synthesize_received(p: FactorMatrices, X: np.ndarray, sigma_n2: float,
                        rng: np.random.Generator) -> ComplexTensor:
    """Noisy received tensor: kruskal(factors, X) + CN(0, sigma_n2) noise."""
    if sigma_n2 < 0:
        raise ValueError("noise variance must be >= 0")
    signal = kruskal(p, X)
    if sigma_n2 == 0.0:
        return signal
    shape = signal.dims
    noise = math.sqrt(sigma_n2 / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ComplexTensor(signal.array + noise)


def snr_to_noise_variance(snr_db: float, xi: float) -> float:
    """SNR is defined as 10 log10(xi / sigma_n^2)."""
    return xi * 10.0 ** (-snr_db / 10.0)


# Factorizations used by the experiments for common preamble lengths.
DEFAULT_FACTORIZATIONS: dict[int, tuple[int, ...]] = {
    400: (20, 20),
    225: (15, 15),
    200: (20, 10),
    100: (10, 10),
    50: (10, 5),
}

# Tensor-order study: same L = 225 split into d = 2, 3, 4 modes.
ORDER_FACTORIZATIONS_225: dict[int, tuple[int, ...]] = {
    2: (15, 15),
    3: (9, 5, 5),
    4: (5, 5, 3, 3),
}
