"""The attention kernel must match a naive reference, and read store views
without a copy."""

import numpy as np
import pytest

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
