"""Hot numeric kernels, one vectorized numpy implementation each.

The forward pass spends nearly all of its time in row-sliced attention,
layer normalization, and per-row log-softmax / KL reductions. Their cost is
BLAS products and vectorized element-wise work. Each kernel is
deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """The kernel implementation in use; always ``"numpy"``."""
    return "numpy"


def layernorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise layer normalization with learned gain/bias.

    Two (rows, d) arrays are allocated: the centred rows, and the squares
    buffer that is then reused for the scaled, gained and biased output, so
    the array returned is the later allocation, as in the textbook chain
    (returning the earlier one raised the benchmark's peak RSS). The row
    means are ``np.add.reduce(..) / d``, which is what ``ndarray.mean``
    computes, so the result equals the textbook ``(x - mean) / sqrt(var +
    eps) * gain + bias`` bit for bit (the tests pin this).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d = x.shape[1]
    centred = x - np.add.reduce(x, axis=1, keepdims=True) / d
    out = centred * centred
    var = np.add.reduce(out, axis=1, keepdims=True) / d
    np.divide(centred, np.sqrt(var + eps), out=out)
    out *= gain
    out += bias
    return out


def attention_rows(
    q: np.ndarray,
    k_all: np.ndarray,
    v_all: np.ndarray,
    scale: float,
    group_size: int,
) -> np.ndarray:
    """Softmax attention for C query rows (C, H, dh) over all N key/value
    rows (N, H // group_size, dh); query head h reads group h // group_size.

    Each K/V group takes part once: its query heads are stacked as
    (group_size, C, dh) and broadcast against one key and one value table,
    with no per-head expansion. Keys are read as (dh, N) and values as
    (N, dh) per group; views of a ``model.KVStore`` already have that
    layout, so they are used without a copy.
    """
    c, h, dh = q.shape
    hkv = h // group_size
    q_g = q.transpose(1, 0, 2).reshape(hkv, group_size, c, dh)
    k_t = np.ascontiguousarray(k_all.transpose(1, 2, 0))[:, None]  # (Hkv, 1, dh, N)
    v_g = np.ascontiguousarray(v_all.transpose(1, 0, 2))[:, None]  # (Hkv, 1, N, dh)
    scores = np.matmul(q_g, k_t)  # (Hkv, G, C, N)
    scores *= scale
    scores -= scores.max(axis=3, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=3, keepdims=True)
    return np.matmul(scores, v_g).reshape(h, c, dh).transpose(1, 0, 2)


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis of a 2-D array."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def kl_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Row-wise KL(p||q) from two aligned log-probability arrays (unclamped)."""
    lp = np.ascontiguousarray(lp, dtype=np.float64)
    lq = np.ascontiguousarray(lq, dtype=np.float64)
    return (np.exp(lp) * (lp - lq)).sum(axis=1)
