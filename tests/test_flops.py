import pytest

from surelock import LockPolicy, ModelConfig, RunConfig, init_weights, run_sampler
from surelock.cli import random_prompt
from surelock.errors import InvalidInputError
from surelock.flops import baseline_step_flops, per_row_step_flops

HAND_CFG = ModelConfig(vocab_size=8, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=8)


class TestClosedForms:
    def test_hand_summed_config(self):
        # attention 512 + Q 512 + out 512 + K/V 1024 + FFN 3072, times 2 layers
        assert baseline_step_flops(HAND_CFG, 4) == 11264

    def test_ffn_linearity(self):
        double_ff = ModelConfig(vocab_size=8, d_model=8, n_layers=2, n_heads=2, d_ff=32, max_seq=8)
        got = baseline_step_flops(double_ff, 4) - baseline_step_flops(HAND_CFG, 4)
        assert got == 2 * 6 * 4 * 8 * 16  # L * 6 * N * d * d_ff

    def test_sequence_length_degrees(self):
        n = 4
        f1 = baseline_step_flops(HAND_CFG, n)
        f2 = baseline_step_flops(HAND_CFG, 2 * n)
        attn = 2 * 4 * 2 * n * n * 4  # L * 4 H N^2 d_h
        linear = f1 - attn
        assert f2 == 4 * attn + 2 * linear

    def test_active_fraction(self):
        row = per_row_step_flops(HAND_CFG, 4)
        assert 4 * row == baseline_step_flops(HAND_CFG, 4) == 11264
        assert 2 * row == 5632

    def test_active_fraction_bounds(self):
        with pytest.raises(InvalidInputError):
            baseline_step_flops(HAND_CFG, 0)


@pytest.fixture(scope="module")
def counted_runs():
    """All four modes on three configurations, with instrumented counters."""
    configs = [
        (HAND_CFG, dict(n_prompt=2, n_gen=2, steps=2)),
        (ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, d_ff=64, max_seq=64),
         dict(n_prompt=16, n_gen=16, steps=16)),
        (ModelConfig(vocab_size=16, d_model=24, n_layers=3, n_heads=4, n_kv_heads=2, d_ff=40, max_seq=32),
         dict(n_prompt=4, n_gen=8, steps=8)),
    ]
    out = []
    for cfg, shape in configs:
        w = init_weights(cfg, 21)
        prompt = random_prompt(cfg, shape["n_prompt"], 5)
        for mode in ("baseline", "surelock", "selection", "hybrid"):
            policy = LockPolicy(epsilon=5e-2, hybrid_fraction=0.8)
            run = RunConfig(policy=policy, mode=mode, seed=17, **shape)
            out.append((cfg, mode, run_sampler(run, w, prompt)))
    return out


class TestCounterAgreement:
    def test_counter_equals_formula_exactly(self, counted_runs):
        for cfg, mode, result in counted_runs:
            row_flops = per_row_step_flops(cfg, len(result.tokens))
            for rec in result.trace:
                assert rec.flops_counted == rec.computed_rows * row_flops, (cfg, mode, rec.t)

    def test_actual_never_exceeds_base(self, counted_runs):
        for _, _, result in counted_runs:
            for rec in result.trace:
                assert rec.computed_rows <= rec.active_rows <= len(result.tokens)

    def test_surelock_flops_non_increasing(self, counted_runs):
        for _, mode, result in counted_runs:
            if mode != "surelock":
                continue
            actual = [rec.computed_rows for rec in result.trace]
            assert all(b <= a for a, b in zip(actual, actual[1:]))

    def test_aggregate_ratio_equals_micro_average(self, counted_runs):
        # exact rational identity: C_t = M_t in lock mode, N constant
        for _, mode, result in counted_runs:
            if mode not in ("baseline", "surelock"):
                continue
            assert result.total_flops_actual / result.total_flops_base == result.active_ratio

    def test_head_flops_reported_separately(self, counted_runs):
        cfg, _, result = counted_runs[0]
        rec = result.trace[0]
        # 2 * rows * d * V for the vocabulary head, never inside flops_counted
        assert rec.head_flops == 2 * rec.computed_rows * cfg.d_model * cfg.vocab_size
