"""The package's numeric primitives, one vectorized numpy implementation each.

The forward pass spends nearly all of its time in row-sliced attention,
layer normalization, and per-row log-softmax / KL reductions. Their cost is
BLAS products and vectorized element-wise work. Each kernel is
deterministic for fixed inputs.

KL divergences are always evaluated in log space from stored logits or
log-probabilities, never from exponentiated probabilities, so no flooring
is needed anywhere. Tiny negative KL values caused by round-off (magnitude
below 1e-12) are clamped to zero; anything more negative is treated as an
internal bug and raised. Spectral norms are exact: one LAPACK SVD each.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidStateError

KL_ROUNDOFF_TOL = 1e-12

#: Lipschitz constant of log-softmax from logit space (2-norm) to the sup
#: norm: each Jacobian row is e_i - p, whose 2-norm is at most its 1-norm <= 2.
LOG_SOFTMAX_LIPSCHITZ = 2.0

#: Sup over distributions p of the spectral norm of the softmax Jacobian
#: diag(p) - pp^T, which is symmetric. By Gershgorin, row i (diagonal and
#: off-diagonal absolute sum both p_i(1 - p_i)) puts every eigenvalue in
#: [0, max_i 2 p_i(1 - p_i)], and 2 p_i(1 - p_i) <= 1/2; p = (1/2, 1/2) attains it.
SOFTMAX_JACOBIAN_SUP = 0.5

#: Byte budget of one attention tile's (groups, group_size, C, N) score
#: block. On the benchmark's shapes (N = 192, C = 12 to 192, 8 or 2 K/V
#: groups, BLAS on one thread) 512 KiB and 1 MiB ran within 3 % of each
#: other; 256 KiB and 128 KiB were up to 10 % and 23 % slower at C <= 96,
#: and 2 MiB and the untiled kernel up to 9 % slower at C = 192. The smaller
#: of the two fast budgets bounds the score block best.
ATTENTION_TILE_BYTES = 512 * 1024


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

    A row of finite values whose variance overflows would normalize to
    zero and return the bias alone, so it raises ``InvalidStateError``. A
    row holding a non-finite value has a NaN variance and yields NaN.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d = x.shape[1]
    with np.errstate(over="ignore"):
        centred = x - np.add.reduce(x, axis=1, keepdims=True) / d
        out = centred * centred
        var = np.add.reduce(out, axis=1, keepdims=True) / d
    if np.isposinf(var).any():
        raise InvalidStateError("a layer norm's variance overflows")
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
    Returns a C-contiguous (C, H, dh) array.

    Each K/V group takes part once: its query heads are stacked as
    (group_size, C, dh) and broadcast against one key and one value table,
    with no per-head expansion. Keys are read as (dh, N) and values as
    (N, dh) per group; views of a ``model.KVStore`` already have that
    layout, so they are used without a copy.

    The groups run in tiles of as many groups as fit one score block of
    ``ATTENTION_TILE_BYTES`` (at least one group), so the scores take at most
    max(budget, 8 * group_size * C * N) bytes. Every tile reuses one score
    buffer and writes its weighted values straight into the result. Groups
    are independent, so each meets the same BLAS products and ufuncs on the
    same operands as untiled, and the result does not depend on the tile
    size (the tests pin this against the untiled kernel). Query rows are
    never split: BLAS may round a product over some of the rows differently
    from the same rows of the whole product.
    """
    c, h, dh = q.shape
    n = k_all.shape[0]
    hkv = h // group_size
    q_g = q.transpose(1, 0, 2).reshape(hkv, group_size, c, dh)
    k_t = np.ascontiguousarray(k_all.transpose(1, 2, 0))[:, None]  # (Hkv, 1, dh, N)
    v_g = np.ascontiguousarray(v_all.transpose(1, 0, 2))[:, None]  # (Hkv, 1, N, dh)
    out = np.empty((c, h, dh))
    out_g = out.reshape(c, hkv, group_size, dh).transpose(1, 2, 0, 3)  # (Hkv, G, C, dh) view
    tile = max(1, min(hkv, ATTENTION_TILE_BYTES // (8 * group_size * c * n)))  # float64 scores
    buf = np.empty((tile, group_size, c, n))
    for lo in range(0, hkv, tile):
        hi = min(lo + tile, hkv)
        scores = np.matmul(q_g[lo:hi], k_t[lo:hi], out=buf[: hi - lo])  # (tile, G, C, N)
        scores *= scale
        scores -= scores.max(axis=3, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=3, keepdims=True)
        np.matmul(scores, v_g[lo:hi], out=out_g[lo:hi])
    return out


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis of a 2-D array."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def kl_from_log_probs_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Row-wise KL(p||q) between aligned log-probability arrays, with clamping."""
    if lp.shape != lq.shape:
        raise InvalidInputError(f"log-prob shape mismatch: {lp.shape} vs {lq.shape}")
    lp = np.ascontiguousarray(lp, dtype=np.float64)
    lq = np.ascontiguousarray(lq, dtype=np.float64)
    terms = np.exp(lp)
    terms *= lp - lq
    kl = terms.sum(axis=1)
    neg = kl < 0.0
    if np.any(neg):
        worst = kl[neg].min()
        if worst < -KL_ROUNDOFF_TOL:
            raise InvalidStateError(f"KL evaluated to {worst}, below round-off tolerance")
        kl = np.where(neg, 0.0, kl)
    return kl


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, as a batched row dot.

    Bit-identical to ``np.linalg.norm`` of each 1-D row (the tests pin
    this); ``np.einsum('ij,ij->i')`` and ``(x * x).sum(1)`` sum in another
    order and are not. A norm whose squares overflow is +inf, the IEEE answer.
    """
    with np.errstate(over="ignore"):
        return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def percentile_nearest_rank(values: Sequence[float] | np.ndarray, m: float) -> float:
    """Nearest-rank percentile: the element at rank ceil(m/100 * n), min 1.

    The result is always a member of the input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidInputError("percentile of an empty sequence")
    if not 0.0 <= m <= 100.0:
        raise InvalidInputError(f"percentile {m} outside [0, 100]")
    rank = max(1, math.ceil(m * values.size / 100.0))
    return float(np.sort(values)[rank - 1])


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value of a non-empty, finite 2-D matrix.

    LAPACK's SVD (``np.linalg.norm(mat, 2)``) rescales its input, so the
    norm of a tiny or huge matrix does not underflow or overflow in
    squared terms. A non-finite entry is refused: the SVD would return NaN.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidInputError("spectral norm requires a non-empty 2-D matrix")
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix contains non-finite entries")
    return float(np.linalg.norm(mat, 2))
