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

from functools import reduce
from typing import Sequence

import numpy as np


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
