"""Deterministic sweep over random configurations: every run must satisfy
the accounting identities and structural invariants regardless of shape."""

import numpy as np
import pytest

from surelock import LockPolicy, ModelConfig, RunConfig, init_weights, run_sampler
from surelock.cli import random_prompt

CASES = list(range(18))


def build_case(case):
    rng = np.random.default_rng(9000 + case)
    n_heads = int(rng.choice([1, 2, 4]))
    kv_choices = [h for h in (1, 2, 4) if n_heads % h == 0 and h <= n_heads]
    cfg = ModelConfig(
        vocab_size=int(rng.integers(8, 40)),
        d_model=int(n_heads * rng.integers(2, 9)),
        n_layers=int(rng.integers(1, 4)),
        n_heads=n_heads,
        n_kv_heads=int(rng.choice(kv_choices)),
        d_ff=int(rng.integers(4, 48)),
        max_seq=96,
    )
    n_gen = int(rng.integers(2, 20))
    steps = int(rng.integers(1, n_gen + 1))
    mode = ("baseline", "surelock", "selection", "hybrid")[case % 4]
    policy = LockPolicy(
        epsilon=float(rng.choice([1e-6, 1e-3, 1e-1])),
        percentile=float(rng.choice([0.0, 20.0, 50.0, 100.0])),
        gate_enabled=bool(rng.integers(0, 2)),
        hybrid_fraction=float(rng.uniform(0.5, 1.0)),
        unlock_enabled=bool(case % 5 == 0),
        probe_period=int(rng.integers(1, 4)),
        epsilon_unlock=float(rng.choice([1e-12, 1e-2])),
        min_locked_duration=int(rng.integers(1, 4)),
        relock_cooldown=int(rng.integers(1, 4)),
    )
    run = RunConfig(
        n_prompt=int(rng.integers(0, 8)),
        n_gen=n_gen,
        steps=steps,
        mode=mode,
        seed=case,
        temperature=float(rng.choice([0.0, 0.0, 0.8])),
        policy=policy,
    )
    return cfg, run


@pytest.mark.parametrize("case", CASES)
def test_random_configuration_invariants(case):
    cfg, run = build_case(case)
    w = init_weights(cfg, 100 + case)
    prompt = random_prompt(cfg, run.n_prompt, case)
    res = run_sampler(run, w, prompt)

    assert res.counter_matches
    assert sum(len(r.newly_unmasked) for r in res.trace) == run.n_gen
    assert cfg.mask_id not in res.tokens.tolist()
    assert res.total_flops_actual <= res.total_flops_base

    unmasked = set(range(run.n_prompt))
    locked = set()
    for rec in res.trace:
        assert 0 <= rec.computed_rows <= rec.active_rows <= run.n_positions
        assert rec.flops_actual <= rec.flops_base
        unmasked |= set(rec.newly_unmasked)
        for p in rec.newly_locked:
            assert p in unmasked and p not in locked
            locked.add(p)
        for p in rec.newly_unlocked:
            assert p in locked
            locked.discard(p)
    if run.mode in ("surelock", "hybrid") and not run.policy.unlock_enabled:
        m = [rec.active_rows for rec in res.trace]
        assert all(b <= a for a, b in zip(m, m[1:]))

    # identical rerun, bit for bit
    res2 = run_sampler(run, w, random_prompt(cfg, run.n_prompt, case))
    assert np.array_equal(res.tokens, res2.tokens)
    assert [r.flops_actual for r in res.trace] == [r.flops_actual for r in res2.trace]
