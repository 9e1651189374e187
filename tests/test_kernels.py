"""The attention kernel must match a naive reference, equal the untiled
kernel bit for bit and read store views without a copy; layer norm must
equal its textbook formula bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surelock import kernels
from surelock.model import KVStore, ModelConfig


def naive_attention(q, k_all, v_all, scale, group_size):
    """softmax(q k^T * scale) v, one query head and one row at a time."""
    c, h, dh = q.shape
    out = np.empty((c, h, dh))
    for hi in range(h):
        k, v = k_all[:, hi // group_size, :], v_all[:, hi // group_size, :]
        for ci in range(c):
            scores = k @ q[ci, hi] * scale
            weights = np.exp(scores - scores.max())
            out[ci, hi] = weights / weights.sum() @ v
    return out


@pytest.mark.parametrize("group_size", [1, 2, 4])
@pytest.mark.parametrize("c", [1, 9])
def test_attention_matches_naive_reference(rng, group_size, c):
    n_kv, dh, n = 2, 8, 21
    q = rng.normal(size=(c, n_kv * group_size, dh))
    k = rng.normal(size=(n, n_kv, dh))
    v = rng.normal(size=(n, n_kv, dh))
    got = kernels.attention_rows(q, k, v, 0.3536, group_size)
    np.testing.assert_allclose(got, naive_attention(q, k, v, 0.3536, group_size), rtol=0, atol=1e-12)


def reference_attention_rows(q, k_all, v_all, scale, group_size):
    """The untiled kernel: every K/V group's scores in one block."""
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


@settings(max_examples=120, deadline=None)
@given(
    c=st.integers(1, 300), n=st.integers(1, 300), n_kv=st.integers(1, 8), group_size=st.integers(1, 4),
    dh=st.integers(1, 32), store_layout=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
# at a 512 KiB budget: one group's 2.9 MB of scores per tile; 180 KB groups
# two to a tile, the last tile holding one; all eight 2.4 KB groups in one tile
@example(c=300, n=300, n_kv=8, group_size=4, dh=32, store_layout=True, seed=0)
@example(c=150, n=150, n_kv=7, group_size=1, dh=16, store_layout=True, seed=1)
@example(c=1, n=300, n_kv=8, group_size=1, dh=1, store_layout=False, seed=2)
def test_attention_equals_untiled_kernel_bit_for_bit(c, n, n_kv, group_size, dh, store_layout, seed):
    """Tiling only splits independent K/V groups, so every output byte equals
    the untiled kernel's, whether the groups fit one tile, several tiles
    with a partial last one, or a tile of one group above the budget."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(c, n_kv * group_size, dh))
    k, v = rng.normal(size=(n, n_kv, dh)), rng.normal(size=(n, n_kv, dh))
    if store_layout:  # per-group (dh, N) keys and (N, dh) values, as a KVStore holds them
        k = np.ascontiguousarray(k.transpose(1, 2, 0)).transpose(2, 0, 1)
        v = np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2)
    scale = 1.0 / np.sqrt(dh)
    got = kernels.attention_rows(q, k, v, scale, group_size)
    assert got.flags.c_contiguous
    assert got.tobytes() == reference_attention_rows(q, k, v, scale, group_size).tobytes()


def test_attention_reads_store_views_without_copy(rng):
    """Store views enter the products as they are: same result as rows."""
    cfg = ModelConfig(vocab_size=8, d_model=16, n_layers=1, n_heads=4, n_kv_heads=2, d_ff=8, max_seq=16)
    kv = KVStore.empty(cfg, 13)
    k, v = rng.normal(size=(13, 2, 4)), rng.normal(size=(13, 2, 4))
    kv.keys(0)[:] = k
    kv.values(0)[:] = v
    assert kv.keys(0).transpose(1, 2, 0).flags.c_contiguous
    assert kv.values(0).transpose(1, 0, 2).flags.c_contiguous
    q = rng.normal(size=(5, 4, 4))
    np.testing.assert_array_equal(
        kernels.attention_rows(q, kv.keys(0), kv.values(0), 0.5, 2), kernels.attention_rows(q, k, v, 0.5, 2)
    )


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


def reference_layernorm(x, gain, bias, eps=1e-6):
    """The textbook formula ``layernorm_rows`` must reproduce exactly."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 256), width=st.integers(1, 256), seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0), offset=st.floats(-1e3, 1e3),
)
def test_layernorm_matches_reference_bit_for_bit(rows, width, seed, log_scale, offset):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, width)) * 10.0**log_scale + offset
    gain, bias = rng.normal(size=width), rng.normal(size=width)
    got = kernels.layernorm_rows(x, gain, bias)
    want = reference_layernorm(x, gain, bias)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(lambda w: sum(w) > 0.0))
@example([1.0, 1.0])
@example([1.0, 1.0, 1e-9])
@example([1.0])
def test_softmax_jacobian_sup_bounds_every_distribution(weights):
    """The largest eigenvalue of diag(p) - pp^T is at most the constant (up
    to eigvalsh round-off), for any distribution p."""
    p = np.asarray(weights) / sum(weights)
    top = np.linalg.eigvalsh(np.diag(p) - np.outer(p, p))[-1]
    assert top <= kernels.SOFTMAX_JACOBIAN_SUP + 1e-15


def test_softmax_jacobian_sup_is_attained_at_two_halves():
    p = np.array([0.5, 0.5])
    assert np.linalg.eigvalsh(np.diag(p) - np.outer(p, p))[-1] == kernels.SOFTMAX_JACOBIAN_SUP == 0.5
