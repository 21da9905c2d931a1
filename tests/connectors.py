"""The identity connector that a threaded bond stands for, built explicitly:
the reference engines in the tests thread by materializing it, so the
engine, which contracts it as it threads, is checked against that design.

The reference fuses the bond index as the minor part of each axis, the
engine as the major part: the two are compared on the states they
represent, never on their tensors' layouts."""

import numpy as np


def expand_pair(t: np.ndarray, ax1: int, ax2: int, k: int, scale: float = 1.0) -> np.ndarray:
    """Tensor `t` with an identity connector attached across axes ax1 < ax2.

    Both axes grow by a factor k; the new sub-indices are tied together by a
    scaled delta. Fusion keeps the existing index major and the new one minor.
    """
    nd = t.ndim
    out = np.multiply.outer(t, scale * np.eye(k, dtype=np.complex128))
    perm = []
    for i in range(nd):
        perm.append(i)
        if i == ax1:
            perm.append(nd)
        if i == ax2:
            perm.append(nd + 1)
    out = out.transpose(perm)
    shape = list(t.shape)
    shape[ax1] *= k
    shape[ax2] *= k
    return np.ascontiguousarray(out).reshape(shape)
