"""Deterministic random streams built on splitmix64.

Every random quantity in the package (weight init, categorical draws,
synthetic trajectories, property-test batches) comes from these streams so
that runs are bit-reproducible from a single 64-bit seed, independent of
numpy's global RNG state. ``SplitMix64`` is a draw counter into the same stream.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _seed_words(seed) -> np.ndarray:
    """One seed, or a 1-D sequence of them, as 64-bit words: each is taken
    modulo 2**64, so a negative seed keeps the stream of its two's complement."""
    if np.ndim(seed) == 0:
        return np.asarray(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    return np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seed], dtype=np.uint64)


def u64_stream(seed, n: int, offset: int = 0) -> np.ndarray:
    """First ``n`` outputs (after ``offset``) of splitmix64 seeded with ``seed``.

    Output ``i`` equals mix(seed + (i+1)*golden), which is exactly the i-th
    value of the sequential generator, so chunked and streaming use agree.
    A 1-D sequence of B seeds gives a (B, n) array, one stream per row.
    """
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(_seed_words(seed)[..., None] + idx * _GOLDEN)


def uniforms(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) with 53-bit resolution."""
    return (u64_stream(seed, n, offset) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def normals(seed, n: int, offset_pairs: int = 0) -> np.ndarray:
    """Standard normals via Box-Muller over consecutive uniform pairs.

    Pair k consumes raw outputs 2k and 2k+1; both normals of a pair are
    emitted in order, and a trailing odd request drops the sine member.
    The log argument is shifted into (0, 1] so it never hits zero. A 1-D
    sequence of B seeds gives a (B, n) array whose row b is bit for bit
    ``normals(seed[b], n, offset_pairs)``: every step is element-wise.
    """
    pairs = (n + 1) // 2
    raw = u64_stream(seed, 2 * pairs, offset=2 * offset_pairs)
    u1 = ((raw[..., 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (raw[..., 1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(raw.shape, dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out[..., :n]


class SplitMix64:
    """Sequential view of ``uniforms(seed, ...)``, for sampler-side draws:
    the k-th draw is the stream's k-th uniform, bit for bit."""

    def __init__(self, seed: int):
        self.seed = seed
        self.draws = 0

    def next_uniform(self) -> float:
        """Uniform in [0, 1)."""
        self.draws += 1
        return float(uniforms(self.seed, 1, offset=self.draws - 1)[0])

    def categorical(self, probs: np.ndarray) -> int:
        """Inverse-CDF draw from a probability vector (sums to 1)."""
        u = self.next_uniform()
        cdf = np.cumsum(probs)
        return int(min(np.searchsorted(cdf, u, side="right"), len(probs) - 1))
