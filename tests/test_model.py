import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surelock import kernels
from surelock.errors import ConfigError, InvalidInputError, InvalidStateError
from surelock.flops import GemmCounter, active_step_flops
from surelock.model import (
    INIT_STD,
    MAX_PARAMS,
    KVStore,
    ModelConfig,
    _layer_shapes,
    _tensor_shapes,
    forward_partial,
    init_weights,
    load_weights,
    save_weights,
)
from surelock.prng import normals
from test_kernels import reference_attention_rows

MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix_normals_oracle(seed, n):
    """Independent re-implementation of the init stream (scalar arithmetic)."""
    state = seed & MASK64
    out = []

    def next_u64():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    while len(out) < n:
        u1 = ((next_u64() >> 11) + 1) * 2.0**-53
        u2 = (next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out.append(r * math.cos(2 * math.pi * u2))
        out.append(r * math.sin(2 * math.pi * u2))
    return np.array(out[:n])


class TestModelConfig:
    def test_head_dim_and_groups(self):
        cfg = ModelConfig(vocab_size=16, d_model=24, n_layers=1, n_heads=4, n_kv_heads=2, d_ff=32, max_seq=8)
        assert cfg.head_dim == 6
        assert cfg.kv_dim == 12
        assert cfg.group_size == 2
        assert cfg.mask_id == 15

    @pytest.mark.parametrize("bad", [
        dict(vocab_size=2),
        dict(d_model=30),  # not divisible by heads
        dict(n_kv_heads=3),  # does not divide heads
        dict(mask_id=99),
        dict(n_layers=0),
        dict(n_kv_heads=0),  # a zero divisor, not a ZeroDivisionError
        dict(vocab_size=2**70),  # above the parameter cap, rejected before any allocation
        dict(n_layers=10**8),
        dict(d_ff=2**80),
    ])
    def test_invalid_configs(self, bad):
        base = dict(vocab_size=16, d_model=32, n_layers=1, n_heads=4, d_ff=8, max_seq=8)
        base.update(bad)
        with pytest.raises(ConfigError):
            ModelConfig(**base)

    @pytest.mark.parametrize("name", ["vocab_size", "n_heads"])
    def test_mistyped_field_with_derived_default_is_named(self, name):
        """mask_id and n_kv_heads derive from these; the type check comes first."""
        base = dict(vocab_size=16, d_model=32, n_layers=1, n_heads=4, d_ff=8, max_seq=8)
        base[name] = "x"
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ModelConfig(**base)

    @settings(max_examples=40, deadline=None)
    @given(heads=st.sampled_from([(1, 1), (2, 1), (4, 2), (4, 4)]), head_dim=st.integers(1, 6),
           vocab=st.integers(3, 50), layers=st.integers(1, 5), d_ff=st.integers(1, 40), max_seq=st.integers(1, 50))
    def test_param_count_is_the_sum_of_tensor_sizes(self, heads, head_dim, vocab, layers, d_ff, max_seq):
        n_heads, n_kv = heads
        cfg = ModelConfig(vocab_size=vocab, d_model=n_heads * head_dim, n_layers=layers, n_heads=n_heads,
                          n_kv_heads=n_kv, d_ff=d_ff, max_seq=max_seq)
        assert cfg.n_params == sum(math.prod(shape) for shape in _tensor_shapes(cfg).values())

    def test_param_cap_is_inclusive(self):
        """One parameter per unit of max_seq here: 2*3 + max_seq + 11 in all."""
        tiny = dict(vocab_size=3, d_model=1, n_layers=1, n_heads=1, d_ff=1)
        assert ModelConfig(**tiny, max_seq=MAX_PARAMS - 17).n_params == MAX_PARAMS
        with pytest.raises(ConfigError, match=f"{MAX_PARAMS + 1} parameters, above the cap of {MAX_PARAMS}"):
            ModelConfig(**tiny, max_seq=MAX_PARAMS - 16)


class TestInitWeights:
    def test_deterministic(self, toy_config):
        w1 = init_weights(toy_config, 42)
        w2 = init_weights(toy_config, 42)
        assert np.array_equal(w1.embedding, w2.embedding)
        assert np.array_equal(w1.layers[1].w_down, w2.layers[1].w_down)
        assert np.array_equal(w1.head, w2.head)

    def test_seeds_differ(self, toy_config):
        w1 = init_weights(toy_config, 1)
        w2 = init_weights(toy_config, 2)
        assert not np.array_equal(w1.embedding, w2.embedding)

    def test_embedding_against_prng_oracle(self):
        cfg = ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, d_ff=4, max_seq=4)
        w = init_weights(cfg, 77)
        assert w.embedding.shape == (16, 8)
        want = splitmix_normals_oracle(77, 16 * 8) * 0.02
        np.testing.assert_array_equal(w.embedding.ravel(), want)
        # N(0, 0.02^2) draws essentially never reach 10 sigma
        assert np.all(np.abs(w.embedding) < 0.2)

    def test_fill_order_is_stream_order(self):
        cfg = ModelConfig(vocab_size=4, d_model=4, n_layers=1, n_heads=1, d_ff=4, max_seq=2)
        w = init_weights(cfg, 5)
        stream = splitmix_normals_oracle(5, 200) * 0.02
        offset = 16 + 8  # embedding then positional
        np.testing.assert_array_equal(w.layers[0].wq.ravel(), stream[offset : offset + 16])


def one_stream_init(cfg, seed):
    """The init formula as one stream: every parameter's normal drawn at
    once, then cut into tensors in fill order."""
    w = init_weights(cfg, seed)  # only for the tensor names, order and shapes
    named = [("embedding", w.embedding), ("positional", w.positional)]
    named += [(f"layers.{i}.{fld}", getattr(layer, fld))
              for i, layer in enumerate(w.layers) for fld in _layer_shapes(cfg)]
    named.append(("head", w.head))
    stream = normals(seed, sum(arr.size for _, arr in named)) * INIT_STD
    out, cursor = {}, 0
    for name, arr in named:
        out[name] = stream[cursor : cursor + arr.size].reshape(arr.shape)
        cursor += arr.size
    return w, out


@settings(max_examples=40, deadline=None)
@given(vocab=st.integers(3, 19), heads=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2)]), width=st.integers(1, 5),
       layers=st.integers(1, 3), d_ff=st.integers(1, 13), max_seq=st.integers(1, 9), seed=st.integers(0, 2**64 - 1))
def test_init_weights_matches_one_stream(vocab, heads, width, layers, d_ff, max_seq, seed):
    """Each tensor drawn from its own stretch of the stream equals the same
    cut of one whole-stream draw, bit for bit; odd sizes put tensors at odd
    cursors, inside a Box-Muller pair."""
    n_heads, n_kv_heads = heads
    cfg = ModelConfig(vocab_size=vocab, d_model=n_heads * width, n_layers=layers, n_heads=n_heads,
                      n_kv_heads=n_kv_heads, d_ff=d_ff, max_seq=max_seq)
    w, want = one_stream_init(cfg, seed)
    for name, arr in w._named_tensors():
        np.testing.assert_array_equal(arr, want[name], err_msg=name)


def full_forward(w, tokens, mask_flags, counter=None, kv=None):
    n = len(tokens)
    kv = KVStore.empty(w.config, n) if kv is None else kv
    return forward_partial(w, tokens, mask_flags, np.arange(n), kv, counter=counter)


def store_with_rows(w, tokens, mask_flags, rows):
    """The full forward, and a fresh store holding its K/V for ``rows`` only."""
    full = KVStore.empty(w.config, len(tokens))
    ref = full_forward(w, tokens, mask_flags, kv=full)
    kv = KVStore.empty(w.config, len(tokens))
    for li in range(w.config.n_layers):
        kv.keys(li)[rows] = full.keys(li)[rows]
        kv.values(li)[rows] = full.values(li)[rows]
    kv.valid[rows] = True
    return ref, kv


def make_tokens(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.vocab_size - 1, size=n)
    mask_flags = rng.random(n) < 0.4
    tokens[mask_flags] = cfg.mask_id
    return tokens, mask_flags


class TestForwardPartial:
    def test_identity_partition_matches_full(self, toy_weights):
        tokens, mask_flags = make_tokens(toy_weights.config, 20)
        a = full_forward(toy_weights, tokens, mask_flags)
        b = full_forward(toy_weights, tokens, mask_flags)
        assert np.array_equal(a, b)  # pure function

    def test_locked_rows_reproduce_full_forward(self, toy_weights):
        """Populate the store from a full pass, then recompute only a subset."""
        cfg = toy_weights.config
        n = 24
        rng = np.random.default_rng(7)
        for case in range(10):
            tokens, mask_flags = make_tokens(cfg, n, seed=case)
            lock_set = rng.choice(n, size=rng.integers(1, n - 1), replace=False)
            lock_set = np.sort(lock_set)
            active = np.setdiff1d(np.arange(n), lock_set)

            ref, kv = store_with_rows(toy_weights, tokens, mask_flags, lock_set)
            part = forward_partial(toy_weights, tokens, mask_flags, active, kv)
            np.testing.assert_allclose(part, ref[active], atol=1e-9, rtol=0)

    def test_locked_token_id_is_irrelevant(self, toy_weights):
        """Only the store speaks for a locked row, not its current token."""
        cfg = toy_weights.config
        n = 12
        tokens, mask_flags = make_tokens(cfg, n, seed=3)
        mask_flags[4] = False
        tokens[4] = 1
        _, kv = store_with_rows(toy_weights, tokens, mask_flags, [4])
        active = np.setdiff1d(np.arange(n), [4])

        out1 = forward_partial(toy_weights, tokens, mask_flags, active, kv.copy())
        tokens2 = tokens.copy()
        tokens2[4] = 2  # change the locked row's token
        out2 = forward_partial(toy_weights, tokens2, mask_flags, active, kv.copy())
        np.testing.assert_array_equal(out1, out2)

    def test_store_written_in_place_for_computed_rows_only(self, toy_weights):
        """A forward refreshes the computed rows' K/V and leaves the rest."""
        cfg = toy_weights.config
        n = 12
        tokens, mask_flags = make_tokens(cfg, n, seed=9)
        lock_set = np.array([1, 6, 7])
        active = np.setdiff1d(np.arange(n), lock_set)
        full = KVStore.empty(cfg, n)
        full_forward(toy_weights, tokens, mask_flags, kv=full)
        _, kv = store_with_rows(toy_weights, tokens, mask_flags, lock_set)
        locked_before = kv.copy()
        forward_partial(toy_weights, tokens, mask_flags, active, kv)
        assert kv.valid.all()
        for li in range(cfg.n_layers):
            np.testing.assert_allclose(kv.keys(li)[active], full.keys(li)[active], atol=1e-12, rtol=0)
            np.testing.assert_allclose(kv.values(li)[active], full.values(li)[active], atol=1e-12, rtol=0)
            np.testing.assert_array_equal(kv.keys(li)[lock_set], locked_before.keys(li)[lock_set])
            np.testing.assert_array_equal(kv.values(li)[lock_set], locked_before.values(li)[lock_set])

    def test_zero_scale_gives_constant_logits(self, toy_weights):
        tokens, mask_flags = make_tokens(toy_weights.config, 10, seed=1)
        out = full_forward(toy_weights.scaled(0.0), tokens, mask_flags)
        assert np.all(out == 0.0)

    def test_locked_rows_get_zero_gemm_work(self, toy_weights):
        """Counted FLOPs scale with computed rows only."""
        cfg = toy_weights.config
        n = 16
        tokens, mask_flags = make_tokens(cfg, n, seed=8)
        lock_set = np.array([0, 5, 9])
        active = np.setdiff1d(np.arange(n), lock_set)
        _, kv = store_with_rows(toy_weights, tokens, mask_flags, lock_set)

        counter = GemmCounter()
        forward_partial(toy_weights, tokens, mask_flags, active, kv, counter=counter)
        assert counter.flops == active_step_flops(cfg, n, len(active))

    def test_missing_cache_raises(self, toy_weights):
        cfg = toy_weights.config
        n = 6
        tokens, mask_flags = make_tokens(cfg, n, seed=4)
        kv = KVStore.empty(cfg, n)
        with pytest.raises(InvalidStateError, match=r"no stored K/V for skipped rows \[0\]"):
            forward_partial(toy_weights, tokens, mask_flags, np.arange(1, n), kv)

    def test_empty_active_raises(self, toy_weights):
        tokens, mask_flags = make_tokens(toy_weights.config, 6, seed=4)
        kv = KVStore.empty(toy_weights.config, 6)
        with pytest.raises(InvalidStateError, match="forward requested with no computed rows"):
            forward_partial(toy_weights, tokens, mask_flags, np.array([], dtype=int), kv)

    def test_mask_id_must_back_masked_positions(self, toy_weights):
        tokens, mask_flags = make_tokens(toy_weights.config, 6, seed=4)
        mask_flags[0] = True
        tokens[0] = 3  # inconsistent with the flag
        kv = KVStore.empty(toy_weights.config, 6)
        with pytest.raises(InvalidInputError):
            forward_partial(toy_weights, tokens, mask_flags, np.arange(6), kv)


@st.composite
def partial_forward_cases(draw):
    """A small model with random (grouped) heads, tokens, and lock set."""
    n_kv_heads = draw(st.sampled_from([1, 2, 4]))
    n_heads = n_kv_heads * draw(st.sampled_from([1, 2, 4]))
    cfg = ModelConfig(
        vocab_size=draw(st.integers(4, 20)), d_model=n_heads * draw(st.integers(1, 6)),
        n_layers=draw(st.integers(1, 3)), n_heads=n_heads, n_kv_heads=n_kv_heads,
        d_ff=draw(st.integers(2, 24)), max_seq=40,
    )
    n = draw(st.integers(2, 40))
    lock_set = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))
    return cfg, n, lock_set, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(partial_forward_cases())
def test_partial_forward_equals_full_forward_on_computed_rows(case):
    """Acceptance criterion 2 as a property: with the locked rows' K/V taken
    from a full forward, the partial forward's logits match the full
    forward's on every computed row, at any head grouping, length, and lock set."""
    cfg, n, lock_set, seed = case
    w = init_weights(cfg, seed)
    tokens, mask_flags = make_tokens(cfg, n, seed=seed)
    active = np.setdiff1d(np.arange(n), lock_set)
    ref, kv = store_with_rows(w, tokens, mask_flags, lock_set)
    part = forward_partial(w, tokens, mask_flags, active, kv)
    np.testing.assert_allclose(part, ref[active], atol=1e-9, rtol=0)


class RecordingCounter(GemmCounter):
    """A ``GemmCounter`` that also keeps its calls in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def gemm(self, m, n, k):
        self.calls.append(("gemm", m, n, k))
        super().gemm(m, n, k)

    def gemm_head(self, m, n, k):
        self.calls.append(("head", m, n, k))
        super().gemm_head(m, n, k)


def reference_forward_partial(w, tokens, mask_flags, active, kv, counter):
    """The untiled forward without input checks: new arrays for every
    residual and activation, the untiled attention kernel."""
    cfg = w.config
    n = len(tokens)
    c = active.size
    d, h, dh, kv_dim = cfg.d_model, cfg.n_heads, cfg.head_dim, cfg.kv_dim
    inv_sqrt_dh = 1.0 / np.sqrt(dh)
    x = w.embedding[tokens[active]] + w.positional[active]
    for li, layer in enumerate(w.layers):
        hid = kernels.layernorm_rows(x, layer.ln1_gain, layer.ln1_bias)
        q = hid @ layer.wq
        counter.gemm(c, d, d)
        k = hid @ layer.wk
        v = hid @ layer.wv
        counter.gemm(c, kv_dim, d)
        counter.gemm(c, kv_dim, d)
        k3, v3 = kv.keys(li), kv.values(li)
        k3[active] = k.reshape(c, cfg.n_kv_heads, dh)
        v3[active] = v.reshape(c, cfg.n_kv_heads, dh)
        attn = reference_attention_rows(q.reshape(c, h, dh), k3, v3, inv_sqrt_dh, cfg.group_size)
        for _ in range(h):
            counter.gemm(c, n, dh)
            counter.gemm(c, dh, n)
        out = attn.reshape(c, d) @ layer.wo
        counter.gemm(c, d, d)
        x = x + out
        hid2 = kernels.layernorm_rows(x, layer.ln2_gain, layer.ln2_bias)
        up = hid2 @ layer.w_up
        gate = hid2 @ layer.w_gate
        counter.gemm(c, cfg.d_ff, d)
        counter.gemm(c, cfg.d_ff, d)
        act = gate / (1.0 + np.exp(-gate)) * up
        down = act @ layer.w_down
        counter.gemm(c, d, cfg.d_ff)
        x = x + down
    kv.valid[active] = True
    logits = x @ w.head
    counter.gemm_head(c, cfg.vocab_size, d)
    return logits


@st.composite
def forward_identity_cases(draw):
    """A model with grouped heads, lengths up to where one group's scores
    pass the tile budget, and C = 1, C = N or a subset with skipped rows
    whose stored K/V come from other tokens."""
    n_kv_heads = draw(st.integers(1, 4))
    n_heads = n_kv_heads * draw(st.integers(1, 4))
    cfg = ModelConfig(
        vocab_size=draw(st.integers(3, 24)), d_model=n_heads * draw(st.integers(1, 8)),
        n_layers=draw(st.integers(1, 3)), n_heads=n_heads, n_kv_heads=n_kv_heads,
        d_ff=draw(st.integers(1, 32)), max_seq=200,
    )
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["one", "all", "subset"]))
    if kind == "all":
        active = np.arange(n)
    elif kind == "one":
        active = np.array([draw(st.integers(0, n - 1))])
    else:
        active = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    scale = draw(st.sampled_from([1.0, 300.0]))  # at 300 the SiLU's exp overflows in many draws
    return cfg, n, active, scale, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(forward_identity_cases())
def test_forward_equals_untiled_reference_bit_for_bit(case):
    """Tiled attention and in-place layer temporaries move no byte: logits,
    the whole store and the GEMM call sequence equal the untiled forward's."""
    cfg, n, active, scale, seed = case
    w = init_weights(cfg, seed).scaled(scale)
    stale_tokens, stale_mask = make_tokens(cfg, n, seed=seed + 1)
    store = KVStore.empty(cfg, n)
    forward_partial(w, stale_tokens, stale_mask, np.arange(n), store)
    tokens, mask_flags = make_tokens(cfg, n, seed=seed)
    got_kv, want_kv = store.copy(), store.copy()
    got_counter, want_counter = RecordingCounter(), RecordingCounter()
    got = forward_partial(w, tokens, mask_flags, active, got_kv, counter=got_counter)
    with np.errstate(over="ignore"):
        want = reference_forward_partial(w, tokens, mask_flags, active, want_kv, want_counter)
    assert got.tobytes() == want.tobytes()
    for name in ("k_t", "v", "valid"):
        assert getattr(got_kv, name).tobytes() == getattr(want_kv, name).tobytes(), name
    assert got_counter.calls == want_counter.calls


def transient_bound(cfg, c, n):
    """Bytes a forward over C of N rows may hold at once, by design.

    Attention holds one score tile (the groups that fit the budget, at least
    one) with x, q and its result; the FFN holds x, up, gate and the SiLU
    buffer. Their sum, plus the logits, caps both phases."""
    group = 8 * cfg.group_size * c * n
    score_tile = group * max(1, min(cfg.n_kv_heads, kernels.ATTENTION_TILE_BYTES // group))
    rows = 8 * c * (3 * cfg.d_model + 3 * cfg.d_ff)
    return score_tile + rows + 8 * c * cfg.vocab_size


@pytest.mark.parametrize("shape", [
    # a 2-layer model at N = 1024: one group's scores are 8 MiB, all eight 64 MiB
    dict(vocab_size=32, d_model=128, n_layers=2, n_heads=8, d_ff=256, max_seq=1024),
    # the benchmark's mid-modes model at N = 192: about 2.5 MB
    dict(vocab_size=256, d_model=128, n_layers=4, n_heads=8, d_ff=256, max_seq=192),
], ids=["n1024", "mid-modes"])
def test_forward_transient_memory_is_bounded(shape):
    """A C = N forward's traced peak stays under one score tile plus one
    layer's row temporaries: the K/V groups are tiled and no layer's
    temporaries outlive it."""
    cfg = ModelConfig(**shape)
    n = cfg.max_seq
    w = init_weights(cfg, 5)
    tokens, mask_flags = make_tokens(cfg, n, seed=5)
    kv = KVStore.empty(cfg, n)
    tracemalloc.start()
    try:
        forward_partial(w, tokens, mask_flags, np.arange(n), kv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < transient_bound(cfg, n, n)


class TestGroupedKV:
    def test_grouped_heads_run_and_count(self):
        cfg = ModelConfig(vocab_size=16, d_model=24, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=40, max_seq=16)
        w = init_weights(cfg, 9)
        tokens, mask_flags = make_tokens(cfg, 10, seed=6)
        counter = GemmCounter()
        out = full_forward(w, tokens, mask_flags, counter=counter)
        assert out.shape == (10, 16)
        assert counter.flops == active_step_flops(cfg, 10, 10)


class TestWeightFile:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=4)
        w = init_weights(cfg, 13)
        path = tmp_path / "weights.json"
        save_weights(w, path)
        back = load_weights(path)
        assert back.seed == 13
        assert back.config == cfg
        np.testing.assert_array_equal(back.embedding, w.embedding)
        np.testing.assert_array_equal(back.layers[0].w_gate, w.layers[0].w_gate)

    def test_shape_validation(self, tmp_path):
        import json

        cfg = ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq=4)
        w = init_weights(cfg, 13)
        path = tmp_path / "weights.json"
        save_weights(w, path)
        doc = json.loads(path.read_text())
        doc["tensors"]["head"] = [[0.0] * 3] * 8  # wrong width
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_weights(path)
