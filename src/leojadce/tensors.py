"""Dense complex multilinear algebra for rank-structured received signals.

Everything in this module is pinned to one index convention: a (d+1)-way
tensor with dims (l_1, ..., l_d, M) is stored C-contiguous, so the linear
index of entry (i_1, ..., i_d, m) is

    ((...((i_1*l_2 + i_2)*l_3 + ...)*l_d + i_d)*M + m.

The first factor therefore varies slowest, which makes the flattening of a
rank-1 tensor equal the left-to-right Kronecker product of its factor
columns, and makes ``unfold_last(kruskal(A, X)) == X @ khatri_rao(A).T``
hold bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ComplexTensor:
    """Dense (d+1)-way complex tensor in the canonical C order.

    ``array`` has shape (l_1, ..., l_d, M); ``flat`` is its canonical
    linear-order view.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.array, dtype=complex)
        if arr.ndim < 2:
            raise ValueError(f"tensor must have at least 2 modes, got {arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def flat(self) -> np.ndarray:
        """Canonical linear-order view (length = prod(dims))."""
        return self.array.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.array))


@dataclass(frozen=True)
class FactorMatrices:
    """Known per-mode factor matrices A_1..A_d, each l_i x K with l_i >= 2:
    the preamble factors of all K devices.

    Unit column norms are enforced where the factors are generated, not
    here; this type only guarantees a consistent shape family.
    """

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.ascontiguousarray(a, dtype=complex) for a in self.matrices)
        if len(mats) < 2:
            raise ValueError("need at least two factor matrices (d >= 2)")
        cols = {a.shape[1] for a in mats}
        if len(cols) != 1:
            raise ValueError(f"factor matrices disagree on column count: {sorted(cols)}")
        if any(a.shape[0] < 2 for a in mats):
            raise ValueError("every mode dimension must be >= 2")
        for a in mats:
            a.flags.writeable = False
        object.__setattr__(self, "matrices", mats)

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def K(self) -> int:
        return self.matrices[0].shape[1]

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.matrices)

    @property
    def L(self) -> int:
        return int(np.prod(self.mode_dims))

    def __iter__(self):
        return iter(self.matrices)


# M x K matrix whose k-th column is activity * sqrt(power) * conjugated channel.
DeviceStateMatrix = np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: out[i*len(b) + j] = a[i] * b[j]."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("kron requires nonempty inputs")
    return np.kron(a, b)


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker product, first matrix varying slowest.

    Column k of the result is kron(mats[0][:, k], ..., mats[-1][:, k]),
    which matches the canonical tensor order above.
    """
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("khatri_rao requires at least one matrix")
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError(f"column counts differ: {sorted(cols)}")

    def pairwise(x, y):
        k = x.shape[1]
        return (x[:, None, :] * y[None, :, :]).reshape(-1, k)

    return reduce(pairwise, mats)


def hadamard(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Entrywise product of equal-shape matrices, in list order."""
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("hadamard requires at least one matrix")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {m.shape} vs {shape}")
    return reduce(np.multiply, mats)


def kruskal(factors: FactorMatrices, X: DeviceStateMatrix) -> ComplexTensor:
    """Sum of rank-1 outer products a_{1,k} o ... o a_{d,k} o x_k.

    Returns the (l_1, ..., l_d, M) tensor. Computes the mode-(d+1)
    unfolding X @ KR^T (KR = khatri_rao(factors)) and folds it with
    :func:`fold_last`. The fold only copies values, so
    ``unfold_last(kruskal(A, X))`` equals ``X @ khatri_rao(A).T`` bit-for-bit.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ValueError("X must be an M x K matrix")
    if X.shape[1] != factors.K:
        raise ValueError(f"X has {X.shape[1]} columns, factors have {factors.K}")
    kr = khatri_rao(list(factors))
    return fold_last(X @ kr.T, factors.mode_dims + (X.shape[0],))


def unfold_last(t: ComplexTensor) -> np.ndarray:
    """Mode-(d+1) unfolding: M x (prod l_i), columns in canonical row-major
    order over (i_1, ..., i_d)."""
    if t.array.ndim < 3:
        raise ValueError("unfold_last expects an order >= 3 tensor")
    m = t.dims[-1]
    return t.array.reshape(-1, m).T


def fold_last(mat: np.ndarray, dims: Sequence[int]) -> ComplexTensor:
    """Inverse of :func:`unfold_last` for a tensor with the given dims."""
    dims = tuple(int(n) for n in dims)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (dims[-1], int(np.prod(dims[:-1]))):
        raise ValueError(f"matrix shape {mat.shape} does not fold into {dims}")
    return ComplexTensor(mat.T.reshape(dims))
