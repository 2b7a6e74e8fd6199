"""The preamble factors and their Khatri-Rao product.

Device k's length-L preamble is the Kronecker product of its factor
columns a_{1,k}, ..., a_{d,k}, with L = l_1 ... l_d. The Khatri-Rao
product KR stacks these preambles as its K columns, in one row order: the
first factor varies slowest, so row

    (...((i_1*l_2 + i_2)*l_3 + ...)*l_d + i_d

of column k is a_{1,k}[i_1] ... a_{d,k}[i_d]. Row l of the L x M received
samples (KR X^T + N, see :func:`leojadce.signals.synthesize_received`) is
preamble sample l in this same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np


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


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker product, first matrix varying slowest.

    Column k of the result is kron(mats[0][:, k], ..., mats[-1][:, k]),
    in the row order above.
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
