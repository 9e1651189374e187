"""Probability and linear-algebra primitives used throughout the package.

KL divergences are always evaluated in log space from stored logits or
log-probabilities, never from exponentiated probabilities, so no flooring
is needed anywhere. Tiny negative KL values caused by round-off (magnitude
below 1e-12) are clamped to zero; anything more negative is treated as an
internal bug and raised.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import InternalConsistencyError, InvalidInputError
from .prng import normals

KL_ROUNDOFF_TOL = 1e-12

#: Lipschitz constant of log-softmax from logit space (2-norm) to the sup
#: norm: each Jacobian row is e_i - p, whose 2-norm is at most its 1-norm <= 2.
LOG_SOFTMAX_LIPSCHITZ = 2.0


def log_softmax(z: Sequence[float] | np.ndarray) -> np.ndarray:
    """Log-probabilities of a logit vector, stable under large shifts."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 2:
        raise InvalidInputError("logit vector must be 1-D with at least 2 entries")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logit vector contains non-finite entries")
    return kernels.log_softmax_rows(z[None, :])[0]


def _clamp_kl(kl: np.ndarray) -> np.ndarray:
    kl = np.atleast_1d(kl)
    neg = kl < 0.0
    if np.any(neg):
        worst = kl[neg].min()
        if worst < -KL_ROUNDOFF_TOL:
            raise InternalConsistencyError(f"KL evaluated to {worst}, below round-off tolerance")
        kl = np.where(neg, 0.0, kl)
    return kl


def kl_from_logits(z_p: Sequence[float] | np.ndarray, z_q: Sequence[float] | np.ndarray) -> float:
    """KL(p||q) with p, q the softmax distributions of two logit vectors."""
    z_p = np.asarray(z_p, dtype=np.float64)
    z_q = np.asarray(z_q, dtype=np.float64)
    if z_p.shape != z_q.shape:
        raise InvalidInputError(f"logit length mismatch: {z_p.shape} vs {z_q.shape}")
    lp = log_softmax(z_p)
    lq = log_softmax(z_q)
    return float(_clamp_kl(kernels.kl_rows(lp[None, :], lq[None, :]))[0])


def kl_from_log_probs_rows(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Row-wise KL between aligned log-probability arrays, with clamping."""
    if lp.shape != lq.shape:
        raise InvalidInputError(f"log-prob shape mismatch: {lp.shape} vs {lq.shape}")
    return _clamp_kl(kernels.kl_rows(lp, lq))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, as a batched row dot.

    Bit-identical to ``np.linalg.norm`` of each 1-D row (the tests pin
    this); ``np.einsum('ij,ij->i')`` and ``(x * x).sum(1)`` sum in another
    order and are not.
    """
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


class SpectralNorm(NamedTuple):
    value: float
    converged: bool
    iterations: int


def spectral_norm(mat: np.ndarray, max_iters: int = 500, tol: float = 1e-12) -> SpectralNorm:
    """Largest singular value by power iteration on M^T M.

    Uses a fixed seeded start vector so estimates are reproducible; if the
    iterate collapses into the null space it restarts from the next seeded
    direction. A result that moved by >= tol on the final sweep is returned
    flagged unconverged rather than raised.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidInputError("spectral norm requires a non-empty 2-D matrix")
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix contains non-finite entries")
    if not mat.any():
        return SpectralNorm(0.0, True, 0)

    n = mat.shape[1]
    v = normals(0x5EED05EED, n)
    v /= np.linalg.norm(v)

    sigma = 0.0
    sigma_prev = np.inf
    for it in range(1, max_iters + 1):
        mv = mat @ v
        sigma = float(np.linalg.norm(mv))
        if sigma == 0.0:
            # start vector fell in the null space; take a fresh direction
            v = normals(0x5EED05EED + it, n)
            v /= np.linalg.norm(v)
            sigma_prev = np.inf
            continue
        # w = M^T M v is never zero here: (w . v) = |Mv|^2 > 0
        w = mat.T @ mv
        v = w / np.linalg.norm(w)
        if abs(sigma - sigma_prev) < tol:
            return SpectralNorm(sigma, True, it)
        sigma_prev = sigma
    return SpectralNorm(sigma, False, max_iters)
