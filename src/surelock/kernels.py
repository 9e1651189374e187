"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The forward pass spends nearly all of its time in row-sliced attention,
layer normalization, and per-row log-softmax / KL reductions. Layer norm,
log-softmax and KL carry @njit implementations next to vectorized numpy
ones; attention is numpy only, since its cost is BLAS products and
vectorized exp. Backend selection via the environment:

  SURELOCK_BACKEND=numba   force the jitted path for every jitted kernel
  SURELOCK_BACKEND=numpy   force the pure-numpy path for every kernel
  unset / auto             route each kernel to its measured winner on this
                           package's workload sizes: the jitted layer norm
                           (loop fusion, ~15x), numpy where the cost is
                           vectorized exp (log-softmax, KL), since SIMD exp
                           beats scalar libm loops on a single core

All paths are deterministic for fixed inputs; the two implementations of a
kernel agree to float64 round-off (summation orders differ).
``benchmarks/bench_kernels.py`` prints the comparison table.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


_ENV_FLAG = "SURELOCK_BACKEND"

# reassociation + FMA is enough to let LLVM vectorize the reduction loops;
# NaN/Inf semantics stay intact (no nnan/ninf assumptions)
_FASTMATH = {"reassoc", "contract", "nsz", "arcp"}


def _resolve_backend(name: str) -> str:
    name = name.strip().lower() or "auto"
    if name == "auto":
        return "auto" if HAS_NUMBA else "numpy"
    if name == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("SURELOCK_BACKEND=numba but numba is not importable")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise ValueError(f"unknown backend {name!r}; expected auto, numba, or numpy")


_MODE = _resolve_backend(os.environ.get(_ENV_FLAG, "auto"))


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime ('auto', 'numba', or 'numpy')."""
    global _MODE
    _MODE = _resolve_backend(name)


def backend_name() -> str:
    return _MODE


def _use_numba(jit_wins: bool) -> bool:
    """Per-call routing: 'auto' takes the benchmarked winner per kernel."""
    if _MODE == "numba":
        return True
    if _MODE == "numpy":
        return False
    return jit_wins


# ---------------------------------------------------------------------------
# layer normalization over rows


def _layernorm_rows_np(x, gain, bias, eps):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


@njit(cache=True, fastmath=_FASTMATH)
def _layernorm_rows_nb(x, gain, bias, eps):  # pragma: no cover - jitted
    m, d = x.shape
    out = np.empty((m, d), dtype=np.float64)
    for i in range(m):
        mean = 0.0
        for j in range(d):
            mean += x[i, j]
        mean /= d
        var = 0.0
        for j in range(d):
            diff = x[i, j] - mean
            var += diff * diff
        var /= d
        inv = 1.0 / math.sqrt(var + eps)
        for j in range(d):
            out[i, j] = (x[i, j] - mean) * inv * gain[j] + bias[j]
    return out


def layernorm_rows(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Row-wise layer normalization with learned gain/bias."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if _use_numba(jit_wins=True):
        return _layernorm_rows_nb(x, np.ascontiguousarray(gain), np.ascontiguousarray(bias), eps)
    return _layernorm_rows_np(x, gain, bias, eps)


# ---------------------------------------------------------------------------
# attention for a subset of query rows against the full key/value tables


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
    layout, so they are used without a copy. Numpy only: the cost is BLAS
    products and vectorized exp, which a jitted loop does not beat.
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


def attention_row_weights(q: np.ndarray, k_all: np.ndarray, scale: float, group_size: int) -> np.ndarray:
    """Attention weight matrix (C, H, N); diagnostic path, numpy only."""
    h = q.shape[1]
    head_group = np.arange(h) // group_size
    k_h = k_all[:, head_group, :]
    scores = np.einsum("chd,nhd->chn", q, k_h) * scale
    scores -= scores.max(axis=2, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=2, keepdims=True)
    return w


# ---------------------------------------------------------------------------
# row-wise log-softmax and KL between log-probability rows


def _log_softmax_rows_np(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@njit(cache=True, fastmath=_FASTMATH)
def _log_softmax_rows_nb(z):  # pragma: no cover - jitted
    m, v = z.shape
    out = np.empty((m, v), dtype=np.float64)
    for i in range(m):
        zmax = z[i, 0]
        for j in range(1, v):
            if z[i, j] > zmax:
                zmax = z[i, j]
        total = 0.0
        for j in range(v):
            total += math.exp(z[i, j] - zmax)
        lse = math.log(total)
        for j in range(v):
            out[i, j] = z[i, j] - zmax - lse
    return out


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis of a 2-D array."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    if _use_numba(jit_wins=False):
        return _log_softmax_rows_nb(z)
    return _log_softmax_rows_np(z)


def _kl_rows_np(lp, lq):
    return (np.exp(lp) * (lp - lq)).sum(axis=1)


@njit(cache=True, fastmath=_FASTMATH)
def _kl_rows_nb(lp, lq):  # pragma: no cover - jitted
    m, v = lp.shape
    out = np.empty(m, dtype=np.float64)
    for i in range(m):
        acc = 0.0
        for j in range(v):
            acc += math.exp(lp[i, j]) * (lp[i, j] - lq[i, j])
        out[i] = acc
    return out


def kl_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Row-wise KL(p||q) from two aligned log-probability arrays (unclamped)."""
    lp = np.ascontiguousarray(lp, dtype=np.float64)
    lq = np.ascontiguousarray(lq, dtype=np.float64)
    if _use_numba(jit_wins=False):
        return _kl_rows_nb(lp, lq)
    return _kl_rows_np(lp, lq)
