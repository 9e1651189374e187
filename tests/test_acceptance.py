"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import copy
import math
import time

import numpy as np
import pytest

from surelock import (
    LockPolicy,
    ModelConfig,
    RunConfig,
    forward_partial,
    init_weights,
    run_sampler,
)
from surelock.analysis import (
    battery_steps,
    check_lock_bound,
    embedding_gain,
    lipschitz_constants,
    simulate_trajectory,
    trajectories_from_history,
)
from surelock.cli import random_prompt
from surelock.errors import InvalidStateError
from surelock.kernels import SOFTMAX_JACOBIAN_SUP
from surelock.lockctl import evaluate_locks, probe_unlock
from surelock.model import KVStore
from surelock.sampler import SamplerState, step, unmask_schedule

TOY_RUN = dict(n_prompt=16, n_gen=16, steps=16)


def report(n, message):
    print(f"\nPASS criterion {n}: {message}")


def test_criterion_01_baseline_equivalence(toy_config, toy_weights):
    """Unsatisfiable lock threshold reproduces baseline exactly, 20 seeds."""
    t0 = time.perf_counter()
    for seed in range(20):
        prompt = random_prompt(toy_config, 16, seed)
        base = run_sampler(
            RunConfig(mode="baseline", seed=seed, **TOY_RUN), toy_weights, prompt,
            record_trajectories=True,
        )
        locked = run_sampler(
            RunConfig(mode="surelock", seed=seed, policy=LockPolicy(epsilon=-1.0), **TOY_RUN),
            toy_weights, prompt, record_trajectories=True,
        )
        assert np.array_equal(base.tokens, locked.tokens), f"seed {seed}: tokens differ"
        diff = np.abs(np.asarray(base.history) - np.asarray(locked.history)).max()
        assert diff <= 1e-10, f"seed {seed}: log-posteriors differ by {diff}"
        assert not any(e.kind == "lock" for e in locked.events)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report(1, f"20 seeds bit-equal tokens, log-posterior gap <= 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_02_locked_row_oracle(toy_config, toy_weights):
    """Stored rows reproduce the full forward on the computed rows, 50 cases."""
    cfg = toy_config
    rng = np.random.default_rng(4242)
    n = 32
    worst = 0.0
    for case in range(50):
        tokens = rng.integers(0, cfg.vocab_size - 1, size=n)
        mask_flags = rng.random(n) < rng.uniform(0.1, 0.6)
        tokens[mask_flags] = cfg.mask_id
        full_kv = KVStore.empty(cfg, n)
        full = forward_partial(toy_weights, tokens, mask_flags, np.arange(n), full_kv)
        lock_count = int(rng.integers(1, n - 1))
        lock_set = np.sort(rng.choice(n, size=lock_count, replace=False))
        active = np.setdiff1d(np.arange(n), lock_set)
        kv = KVStore.empty(cfg, n)  # only the locked rows' K/V, from the full pass
        for li in range(cfg.n_layers):
            kv.keys(li)[lock_set] = full_kv.keys(li)[lock_set]
            kv.values(li)[lock_set] = full_kv.values(li)[lock_set]
        kv.valid[lock_set] = True
        part = forward_partial(toy_weights, tokens, mask_flags, active, kv)
        gap = np.abs(part - full[active]).max()
        worst = max(worst, gap)
        assert gap <= 1e-9, f"case {case}: logits differ by {gap}"
    report(2, f"50 random lock sets, worst active-row logit gap {worst:.2e} <= 1e-9")


FLOPS_CONFIGS = [
    (ModelConfig(vocab_size=8, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq=8),
     dict(n_prompt=2, n_gen=2, steps=2), 11264),
    (ModelConfig(vocab_size=16, d_model=24, n_layers=3, n_heads=4, n_kv_heads=2, d_ff=40, max_seq=32),
     dict(n_prompt=4, n_gen=8, steps=8), None),
]


def test_criterion_03_flops_exactness(toy_config):
    """Instrumented GEMM counter equals the closed form, as integers."""
    from surelock.flops import baseline_step_flops, per_row_step_flops

    checked = 0
    for cfg, shape, expect_base in [*FLOPS_CONFIGS, (toy_config, TOY_RUN, None)]:
        n = shape["n_prompt"] + shape["n_gen"]
        if expect_base is not None:
            assert baseline_step_flops(cfg, n) == expect_base
        w = init_weights(cfg, 7)
        prompt = random_prompt(cfg, shape["n_prompt"], 3)
        for mode in ("baseline", "surelock", "selection", "hybrid"):
            run = RunConfig(mode=mode, seed=5, policy=LockPolicy(epsilon=5e-2, hybrid_fraction=0.8), **shape)
            res = run_sampler(run, w, prompt)
            for rec in res.trace:
                assert rec.flops_counted == rec.computed_rows * per_row_step_flops(cfg, n), (mode, rec.t)
                checked += 1
    report(3, f"counter == formula on {checked} steps across 3 configs x 4 modes "
              f"(hand config per-step base = 11264)")


def test_criterion_04_monotonicity(toy_config, toy_weights):
    """Active rows, lock bitmap, and step FLOPs ratio are all monotone."""
    for seed in range(6):
        run = RunConfig(mode="surelock", seed=seed, policy=LockPolicy(epsilon=5e-2), **TOY_RUN)
        res = run_sampler(run, toy_weights, random_prompt(toy_config, 16, seed))
        m = [rec.active_rows for rec in res.trace]
        assert all(b <= a for a, b in zip(m, m[1:])), "M_t increased"
        ratios = [rec.computed_rows / len(res.tokens) for rec in res.trace]
        assert all(b <= a + 1e-15 for a, b in zip(ratios, ratios[1:])), "ratio increased"
        positions = [e.position for e in res.events]
        assert len(set(positions)) == len(positions), "lock bit flipped twice"
        assert all(e.kind != "unlock" for e in res.events)
        assert res.total_flops_actual / res.total_flops_base == res.active_ratio
    report(4, "6 surelock runs: M_t and ratio non-increasing, locks permanent, "
              "aggregate ratio == micro-average exactly")


def test_criterion_05_bound_battery(toy_config, toy_weights):
    """200 synthetic trajectories plus real no-lock traces all satisfy the bound."""
    t0 = time.perf_counter()
    cells = [(r, v) for r in (0.3, 0.6, 0.9) for v in (8, 64)]
    held = applicable = 0
    for i in range(200):
        rho, vocab = cells[i % len(cells)]
        traj = simulate_trajectory(1000 + i, vocab, battery_steps(rho), rho, 0.25)
        rep = check_lock_bound(traj, float("inf"))
        if rep.status == "ok" and rep.contraction < 1.0:
            applicable += 1
            held += bool(rep.holds)
    elapsed = time.perf_counter() - t0
    assert applicable == 200, f"only {applicable}/200 trajectories applicable"
    assert held == 200, f"bound held on {held}/200"
    assert elapsed < 10.0, f"battery took {elapsed:.1f}s, budget 10s"

    # 20 no-lock sampler traces across weight scales; unit scale has noisy,
    # non-contracting tails (honestly reported inapplicable), saturated and
    # frozen models produce genuinely contracting ones
    sampled_applicable = 0
    trace_count = 0
    for scale, seeds in ((1.0, range(8)), (10.0, range(8)), (0.0, range(4))):
        w = toy_weights.scaled(scale) if scale != 1.0 else toy_weights
        for seed in seeds:
            run = RunConfig(mode="baseline", seed=seed, **TOY_RUN)
            res = run_sampler(run, w, random_prompt(toy_config, 16, seed), record_trajectories=True)
            trace_count += 1
            for traj in trajectories_from_history(res.history, res.history_valid):
                finite = sorted(set(traj.step_kl[np.isfinite(traj.step_kl)]))
                for eps in finite[:3] + finite[-1:]:
                    rep = check_lock_bound(traj, eps)
                    if rep.status == "ok" and rep.contraction < 1.0:
                        sampled_applicable += 1
                        assert rep.holds, rep
    assert trace_count >= 20
    assert sampled_applicable > 0
    report(5, f"synthetic 200/200 hold in {elapsed:.1f}s < 10s; "
              f"{sampled_applicable} applicable positions over {trace_count} sampler traces all hold")


def test_criterion_06_degenerate_lock_everything(toy_config, toy_weights):
    """Zero weights: posteriors constant, so everything locks immediately."""
    run = RunConfig(mode="surelock", seed=3, policy=LockPolicy(epsilon=1e-6), **TOY_RUN)
    res = run_sampler(run, toy_weights.scaled(0.0), random_prompt(toy_config, 16, 3))
    lock_step = {e.position: e.step for e in res.events if e.kind == "lock"}
    assert len(lock_step) == 32
    for pos in range(32):
        assert lock_step[pos] == max(2, res.unmask_step[pos]), pos
    # structural floor: from step 3 on, only still-masked rows remain active
    n = 32
    for rec in res.trace:
        if rec.t >= 3:
            masked_remaining = 16 - (rec.t - 1)
            assert rec.active_rows == masked_remaining
            assert rec.computed_rows == rec.active_rows
    report(6, "all 32 positions lock at their first eligible step; "
              "ratio sits on the structural floor from step 3 on")


def test_criterion_07_epsilon_ordering(toy_config, toy_weights):
    """Larger thresholds lock no later and never cost more FLOPs."""
    # unit-scale posteriors are so flat that every threshold locks instantly;
    # a 6x weight scale spreads the step KLs across the grid
    totals = {}
    for scale in (1.0, 6.0):
        w = toy_weights if scale == 1.0 else toy_weights.scaled(scale)
        totals[scale] = []
        for eps in (5e-4, 5e-3, 5e-2):
            run = RunConfig(mode="surelock", seed=11, policy=LockPolicy(epsilon=eps), **TOY_RUN)
            res = run_sampler(run, w, random_prompt(toy_config, 16, 11))
            totals[scale].append(res.total_flops_actual)
        assert all(b <= a for a, b in zip(totals[scale], totals[scale][1:])), totals[scale]
    assert len(set(totals[6.0])) == 3  # the grid genuinely separates

    moved = 0
    for i in range(12):
        rho = (0.4, 0.7)[i % 2]
        traj = simulate_trajectory(300 + i, 16, 14, rho, 0.4)
        steps = []
        for eps in (1e-8, 1e-6, 1e-4, 1e-2, float("inf")):
            rep = check_lock_bound(traj, eps)
            steps.append(rep.lock_step if rep.status != "no_lock" else traj.n_steps + 1)
        assert all(b <= a for a, b in zip(steps, steps[1:])), steps
        moved += len(set(steps)) > 1
    assert moved > 0  # the grid actually exercises different lock steps
    report(7, f"total FLOPs non-increasing and separating over eps grid {totals[6.0]}; "
              "offline lock steps pointwise non-increasing on 12 frozen trajectories")


def test_criterion_08_hybrid_trend(toy_config, toy_weights):
    """Combining selection with locking beats either alone on matched seeds."""
    for seed in (0, 1, 2):
        prompt = random_prompt(toy_config, 16, seed)
        policy = LockPolicy(epsilon=5e-2, hybrid_fraction=0.8)
        totals = {}
        for mode in ("surelock", "selection", "hybrid"):
            run = RunConfig(mode=mode, seed=seed, policy=policy, **TOY_RUN)
            totals[mode] = run_sampler(run, toy_weights, prompt).total_flops_actual
        assert totals["hybrid"] < min(totals["selection"], totals["surelock"]), (seed, totals)
    report(8, "hybrid (k=0.8 + locking) total FLOPs < min(selection-only, lock-only) "
              "on 3 matched seeds")


def test_criterion_09_unlock_protocol():
    """Strict conjunction, interval strictness, cooldown, tightening, and
    standard-subgraph recomputation after release."""
    cfg = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32)
    w = init_weights(cfg, 5)
    prompt = random_prompt(cfg, 4, 11)

    def drive(policy, n_steps):
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="surelock", seed=2, policy=policy)
        state = SamplerState.fresh(run, w, prompt)
        for k_t in unmask_schedule(8, 8)[:n_steps]:
            step(state, run, w, k_t, (4, 12))
        return state, run

    state, run = drive(LockPolicy(epsilon=1e9, gate_enabled=False), 6)
    first_lock = min(e.step for e in state.events if e.kind == "lock")
    rows = [e.position for e in state.events if e.kind == "lock" and e.step == first_lock]
    age = state.t - first_lock

    mk = lambda **kw: LockPolicy(epsilon=1e9, gate_enabled=False, unlock_enabled=True, **kw)
    # each clause of the conjunction blocks the unlock on its own
    assert probe_unlock(state, w, mk(epsilon_unlock=1e9, min_locked_duration=1), -1.0, rows=rows) == []
    assert probe_unlock(state, w, mk(epsilon_unlock=1e-15, min_locked_duration=1), 2.0, rows=rows) == []
    assert probe_unlock(state, w, mk(epsilon_unlock=1e-15, min_locked_duration=age), -1.0, rows=rows) == []
    released = probe_unlock(state, w, mk(epsilon_unlock=1e-15, min_locked_duration=age - 1), -1.0, rows=rows)
    assert [e.position for e in released] == rows

    policy = mk(epsilon_unlock=1e-15, min_locked_duration=1, relock_cooldown=4)
    state.release_locks(released, policy)
    pos = released[0].position
    assert state.cooldown_until[pos] == state.t + 4
    zeros = np.zeros(state.n)
    assert evaluate_locks([pos], zeros, zeros, policy, state.t + 4, state.cooldown_until) == []
    tight = LockPolicy(epsilon=1e-3, gate_enabled=False)
    assert evaluate_locks([pos], np.full(state.n, 7e-4), zeros, tight, state.t + 9, state.cooldown_until) == []
    relocked = evaluate_locks([pos], np.full(state.n, 4e-4), zeros, tight, state.t + 9, state.cooldown_until)
    assert [e.position for e in relocked] == [pos]

    # released rows go through the ordinary forward path bit-for-bit
    snapshot = copy.deepcopy(state)
    step(state, run, w, 1, (4, 12))
    active = np.flatnonzero(~snapshot.lock)
    ref = forward_partial(w, snapshot.tokens, snapshot.masked, active, snapshot.kv)
    from surelock.kernels import log_softmax_rows

    want = log_softmax_rows(ref)[list(active).index(pos)]
    np.testing.assert_array_equal(state.log_post[pos], want)

    with pytest.raises(InvalidStateError):
        probe_unlock(state, w, policy, 0.5, rows=[pos])  # pos is no longer locked
    report(9, "conjunction, strict interval, cooldown refusal, tightened re-lock, "
              "and standard-subgraph recomputation all verified")


def test_criterion_10_constants(toy_config, toy_weights):
    """Constants: the exact softmax Jacobian sup and a sampled check of it,
    embedding gain, operator norms, and the composed block/network gains."""
    assert SOFTMAX_JACOBIAN_SUP == 0.5
    rng = np.random.default_rng(10)
    sup = 0.0
    for dim in range(2, 13):  # softmax of scaled scores, so near-two-point distributions appear
        scores = rng.normal(size=(1000, dim)) * rng.uniform(1.0, 10.0, size=(1000, 1))
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        jac = p[:, :, None] * np.eye(dim) - p[:, :, None] * p[:, None, :]
        sup = max(sup, float(np.linalg.eigvalsh(jac)[:, -1].max()))
    assert 0.4 < sup <= SOFTMAX_JACOBIAN_SUP + 1e-15, sup

    gain = embedding_gain(np.eye(2))
    assert abs(gain - math.sqrt(2.0)) < 1e-12

    rep = lipschitz_constants(toy_weights, input_radius=1.5)
    want_emb = math.sqrt(2.0) * np.linalg.svd(toy_weights.embedding, compute_uv=False)[0]
    assert rep.embedding_gain == want_emb
    want_head = np.linalg.svd(toy_weights.head, compute_uv=False)[0]
    assert rep.head_norm == want_head
    for entry in rep.per_layer:  # one residual per sublayer
        ln = entry["layernorm_gain"]
        hand = (1.0 + entry["attention_gain"] * ln) * (1.0 + entry["ffn_gain"] * ln)
        assert abs(entry["block_gain"] - hand) <= 1e-12
    blk = max(e["block_gain"] for e in rep.per_layer)
    assert abs(rep.network_gain - rep.head_norm * blk**toy_config.n_layers) <= 1e-9
    assert abs(rep.overall_gain - rep.network_gain * rep.embedding_gain) <= 1e-9
    report(10, f"softmax Jacobian sup exactly 0.5, sampled {sup:.6f}; embedding gain sqrt(2); "
               "spectral norms equal SVD exactly; compositions match by hand")
