import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surelock import (
    LockPolicy,
    ModelConfig,
    RunConfig,
    Trajectory,
    init_weights,
    run_sampler,
    select_compute_rows,
    unmask_schedule,
    update_mask,
)
from surelock import kernels, sampler
from surelock.analysis import trajectories_from_history
from surelock.cli import random_prompt
from surelock.errors import ConfigError, InvalidInputError, InvalidStateError
from surelock.flops import baseline_step_flops, per_row_step_flops
from surelock.kernels import kl_from_log_probs_rows
from surelock.prng import SplitMix64, uniforms


class TestUnmaskSchedule:
    def test_one_per_step(self):
        assert unmask_schedule(64, 64) == [1] * 64

    def test_balanced_split(self):
        assert unmask_schedule(10, 4) == [3, 3, 2, 2]

    def test_more_steps_than_positions(self):
        with pytest.raises(ConfigError):
            unmask_schedule(4, 8)

    def test_sums_to_total(self):
        for n_gen in (1, 7, 16, 100):
            for steps in range(1, n_gen + 1):
                assert sum(unmask_schedule(n_gen, steps)) == n_gen


def make_log_post(n, v, peaked=None):
    """Near-uniform log posteriors; `peaked` maps position -> (token, prob)."""
    lp = np.full((n, v), -math.log(v))
    if peaked:
        for pos, (tok, p) in peaked.items():
            rest = (1.0 - p) / (v - 1)
            lp[pos] = math.log(rest)
            lp[pos, tok] = math.log(p)
    return lp


class TestUpdateMask:
    def test_single_candidate_argmax(self):
        lp = make_log_post(3, 10, {2: (7, 0.9)})
        masked = np.array([False, False, True])
        newly, committed = update_mask(lp, masked, 1, (0, 3), 0.0, SplitMix64(0))
        assert newly == [2]
        assert committed == [7]

    def test_confidence_ordering(self):
        lp = make_log_post(2, 10, {0: (1, 0.9), 1: (2, 0.6)})
        masked = np.array([True, True])
        newly, _ = update_mask(lp, masked, 1, (0, 2), 0.0, SplitMix64(0))
        assert newly == [0]

    def test_tie_breaks_to_lowest_index(self):
        lp = make_log_post(6, 10, {3: (4, 0.8), 5: (9, 0.8)})
        masked = np.zeros(6, bool)
        masked[[3, 5]] = True
        newly, committed = update_mask(lp, masked, 1, (0, 6), 0.0, SplitMix64(0))
        assert newly == [3]
        assert committed == [4]

    def test_block_restriction(self):
        lp = make_log_post(8, 10, {1: (3, 0.99), 6: (2, 0.5)})
        masked = np.zeros(8, bool)
        masked[[1, 6]] = True
        newly, _ = update_mask(lp, masked, 1, (4, 8), 0.0, SplitMix64(0))
        assert newly == [6]  # position 1 is confident but outside the block

    def test_too_many_requested(self):
        lp = make_log_post(4, 10)
        masked = np.zeros(4, bool)
        masked[0] = True
        with pytest.raises(InvalidStateError):
            update_mask(lp, masked, 2, (0, 4), 0.0, SplitMix64(0))

    def test_temperature_changes_draw_not_choice(self):
        lp = make_log_post(4, 6, {1: (2, 0.95), 2: (3, 0.6)})
        masked = np.zeros(4, bool)
        masked[[1, 2]] = True
        cold, cold_tok = update_mask(lp, masked, 1, (0, 4), 0.0, SplitMix64(0))
        hot, hot_tok = update_mask(lp, masked, 1, (0, 4), 5.0, SplitMix64(12))
        assert cold == hot == [1]  # selection is temperature-free
        assert cold_tok == [2]  # argmax at temperature zero

    def test_hot_draw_is_seed_deterministic(self):
        lp = make_log_post(2, 6, {0: (1, 0.5)})
        masked = np.array([True, False])
        a = update_mask(lp, masked, 1, (0, 2), 1.7, SplitMix64(5))
        b = update_mask(lp, masked, 1, (0, 2), 1.7, SplitMix64(5))
        assert a == b

    def test_non_finite_tempered_distribution_raises(self, recwarn):
        """At 1e-310 every log-probability divides to -inf, silently, so the
        draw would be over NaN probabilities; at 1e-3 the row stays finite."""
        lp = make_log_post(2, 6, {0: (1, 0.5)})
        masked = np.array([True, False])
        with pytest.raises(InvalidStateError, match="temperature 1e-310 gives a non-finite distribution"):
            update_mask(lp, masked, 1, (0, 2), 1e-310, SplitMix64(5))
        assert update_mask(lp, masked, 1, (0, 2), 1e-3, SplitMix64(5)) == ([0], [1])
        assert [str(w.message) for w in recwarn] == []


def update_mask_reference(log_post, mask_flags, k_t, block, temperature, rng, mask_id):
    """Position-at-a-time reference for update_mask (no error checks)."""
    lo, hi = block
    scorable = [i for i in range(lo, hi) if mask_flags[i]]
    ids = np.array([j for j in range(log_post.shape[1]) if j != mask_id])
    confidence = {i: float(np.exp(log_post[i, ids].max())) for i in scorable}
    chosen = sorted(sorted(scorable, key=lambda i: (-confidence[i], i))[:k_t])
    committed = []
    for i in chosen:
        restricted = log_post[i, ids]
        if temperature == 0.0:
            committed.append(int(ids[np.argmax(restricted)]))
        else:
            tempered = restricted / temperature
            probs = np.exp(tempered - tempered.max())
            committed.append(int(ids[rng.categorical(probs / probs.sum())]))
    return chosen, committed


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 24), v=st.integers(3, 9), levels=st.integers(1, 4),
    temperature=st.sampled_from([0.0, 1.3]), seed=st.integers(0, 2**32 - 1),
)
def test_update_mask_matches_reference(n, v, levels, temperature, seed):
    """Same choices, tokens and draws as the loop, ties included (few
    distinct logit levels make equal confidences common)."""
    rng = np.random.default_rng(seed)
    log_post = kernels.log_softmax_rows(rng.integers(0, levels, size=(n, v)).astype(float))
    mask_flags = rng.random(n) < 0.7
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    scorable = int(mask_flags[lo:hi].sum())
    k_t = int(rng.integers(0, scorable + 1))
    mask_id = int(rng.integers(0, v))
    draws_a, draws_b = SplitMix64(seed), SplitMix64(seed)
    got = update_mask(log_post, mask_flags, k_t, (lo, hi), temperature, draws_a, mask_id=mask_id)
    want = update_mask_reference(log_post, mask_flags, k_t, (lo, hi), temperature, draws_b, mask_id)
    assert got == want
    assert draws_a.next_uniform() == draws_b.next_uniform()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-2**80, 2**80), k=st.integers(1, 40))
@example(seed=0, k=40)
@example(seed=-1, k=40)
@example(seed=2**63, k=40)
@example(seed=2**64 + 5, k=40)
@example(seed=-2**70, k=40)
def test_sequential_draws_are_the_uniform_stream(seed, k):
    """The sampler's sequential draws are the batch stream's uniforms, bit
    for bit, for any seed (each is taken modulo 2**64)."""
    draws = SplitMix64(seed)
    got = np.array([draws.next_uniform() for _ in range(k)])
    assert got.tobytes() == uniforms(seed, k).tobytes()


class TestSelectComputeRows:
    def test_full_fraction_is_identity(self):
        active = np.array([0, 3, 5])
        kl = np.array([0.1, 9.0, 9.0, 0.2, 9.0, 0.3])
        got = select_compute_rows(active, kl, 1.0)
        assert got.tolist() == [0, 3, 5]

    def test_sorts_by_volatility(self):
        active = np.array([0, 1, 2, 3])
        kl = np.array([0.4, 0.1, 0.3, 0.2])
        assert select_compute_rows(active, kl, 0.5).tolist() == [0, 2]

    def test_ceiling_count(self):
        active = np.arange(5)
        kl = np.arange(5, dtype=float)
        assert select_compute_rows(active, kl, 0.8).size == 4

    def test_unscored_rank_first(self):
        active = np.array([0, 1, 2, 3])
        kl = np.array([5.0, 4.0, 3.0, np.inf])  # 3 never scored
        assert select_compute_rows(active, kl, 0.5).tolist() == [0, 3]

    def test_empty_active(self):
        assert select_compute_rows(np.array([], dtype=int), np.zeros(4), 0.5).size == 0


def reference_select_compute_rows(active, last_step_kl, fraction):
    """The dict-and-sort ranking the sampler used before it kept one array
    per quantity: a row missing from ``last_step_kl`` was never scored."""
    if active.size == 0:
        return active
    count = math.ceil(fraction * active.size)
    ranked = sorted(active, key=lambda i: (-last_step_kl.get(int(i), np.inf), i))
    return np.array(sorted(ranked[:count]), dtype=np.intp)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 24),
    levels=st.lists(st.sampled_from([0.0, 1e-12, 1e-3, 0.5, 2.0, np.inf]), min_size=1, max_size=4),
    fraction=st.sampled_from([1e-3, 0.25, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_compute_rows_matches_reference(n, levels, fraction, seed):
    """Same rows as the dict-and-sort ranking: few distinct KLs make ties
    common, +inf KLs tie with never-scored rows, and ``active`` may be empty."""
    rng = np.random.default_rng(seed)
    active = np.flatnonzero(rng.random(n) < 0.7)
    scored = rng.random(n) < 0.7
    last_step_kl = np.where(scored, rng.choice(levels, size=n), np.inf)
    want = reference_select_compute_rows(
        active, {i: float(last_step_kl[i]) for i in np.flatnonzero(scored).tolist()}, fraction)
    np.testing.assert_array_equal(select_compute_rows(active, last_step_kl, fraction), want)


def toy_run(mode="baseline", seed=3, policy=None, **kw):
    policy = policy or LockPolicy(epsilon=5e-2, hybrid_fraction=0.8)
    args = dict(n_prompt=16, n_gen=16, steps=16, mode=mode, seed=seed, policy=policy)
    args.update(kw)
    return RunConfig(**args)


class TestRunSampler:
    def test_baseline_deterministic(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        r1 = run_sampler(toy_run(), w, prompt)
        r2 = run_sampler(toy_run(), w, prompt)
        assert np.array_equal(r1.tokens, r2.tokens)

    def test_all_positions_unmasked_after_run(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run(), w, prompt)
        assert (res.unmask_step[16:] > 0).all()
        assert np.all(res.tokens < 32)

    def test_unsatisfiable_epsilon_equals_baseline(self, toy_weights, toy_prompt):
        """Lock test that can never fire leaves the trace element-wise equal."""
        w, prompt = toy_weights, toy_prompt
        base = run_sampler(toy_run("baseline"), w, prompt, record_trajectories=True)
        locked = run_sampler(
            toy_run("surelock", policy=LockPolicy(epsilon=-1.0)), w, prompt, record_trajectories=True
        )
        assert np.array_equal(base.tokens, locked.tokens)
        assert np.array_equal(np.asarray(base.history), np.asarray(locked.history))
        assert np.array_equal(base.unmask_step, locked.unmask_step)
        assert locked.events == []
        for rb, rl in zip(base.trace, locked.trace):
            np.testing.assert_array_equal(rb.step_kl, rl.step_kl)
            np.testing.assert_array_equal(rb.uncert, rl.uncert)
            assert rb.computed_rows == rl.computed_rows

    def test_surelock_monotone_trace(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run("surelock"), w, prompt)
        m = [r.active_rows for r in res.trace]
        assert all(b <= a for a, b in zip(m, m[1:]))
        locked = set()
        for e in res.events:
            assert e.kind == "lock"
            assert e.position not in locked
            assert res.unmask_step[e.position] <= e.step  # locked positions are unmasked or prompt
            locked.add(e.position)

    def test_locked_posterior_frozen(self, toy_weights, toy_prompt):
        """A locked position reports the same log-posterior ever after."""
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run("surelock"), w, prompt, record_trajectories=True)
        lock_step = {e.position: e.step for e in res.events if e.kind == "lock"}
        assert lock_step, "expected at least one lock in this configuration"
        history = np.asarray(res.history)
        for pos, t_star in lock_step.items():
            frozen = history[t_star - 1, pos]
            for t in range(t_star, len(res.trace) + 1):
                np.testing.assert_array_equal(history[t - 1, pos], frozen)

    def test_lock_is_a_read_only_view_of_lock_step(self, toy_weights, toy_prompt):
        """``lock`` is derived from ``lock_step``, and ``masked`` from
        ``unmask_step``, so a write into either raises instead of being
        silently dropped."""
        w, prompt = toy_weights, toy_prompt
        run = toy_run("surelock")
        state = sampler.SamplerState.fresh(run, w, prompt)
        for k_t in unmask_schedule(run.n_gen, run.steps)[:4]:
            sampler.step(state, run, w, k_t, (16, 32))
        assert state.lock.any()
        np.testing.assert_array_equal(state.lock, state.lock_step >= 0)
        with pytest.raises(ValueError):
            state.lock[0] = True
        with pytest.raises(ValueError):
            state.lock[:] = False
        assert state.masked.any() and not state.masked.all()
        np.testing.assert_array_equal(state.masked, state.unmask_step < 0)
        with pytest.raises(ValueError):
            state.masked[0] = True
        with pytest.raises(ValueError):
            state.masked[:] = False

    def test_non_finite_logits_raise_invariant_error(self, toy_weights, toy_prompt):
        """Overflowing weights stop the run at the first step, with an error
        the CLI maps to exit 3, instead of sampling from NaN posteriors."""
        w, prompt = toy_weights, toy_prompt
        with pytest.raises(InvalidStateError, match="step 1: the forward produced non-finite logits"):
            run_sampler(toy_run("surelock"), w.scaled(1e80), prompt)

    @pytest.mark.parametrize("mode", sampler.MODES)
    def test_history_is_each_steps_reported_posterior(self, toy_weights, toy_prompt, monkeypatch, mode):
        """The replayed history's step t is the run's log_post after step
        t + 1, bit for bit, recorded here independently by wrapping ``step``,
        and its stored final posterior is the last one. After every step, a
        position is masked exactly when it carries the mask id."""
        w, prompt = toy_weights, toy_prompt
        seen = []
        original_step = sampler.step

        def recording_step(state, *args, **kwargs):
            rec = original_step(state, *args, **kwargs)
            np.testing.assert_array_equal(state.masked, state.tokens == w.config.mask_id)
            seen.append((state.log_post.copy(), state.kv.valid.copy()))
            return rec

        monkeypatch.setattr(sampler, "step", recording_step)
        res = run_sampler(toy_run(mode, block_length=8), w, prompt, record_trajectories=True)
        history = np.asarray(res.history)
        assert history.shape == (16, 32, 32) and len(res.history) == 16
        assert len(seen) == 16
        for t, (log_post, valid) in enumerate(seen):
            assert history[t].tobytes() == log_post.tobytes(), t
            np.testing.assert_array_equal(res.history_valid[t], valid)
        assert res.history[-1].tobytes() == seen[-1][0].tobytes()

    def test_history_holds_the_head_inputs_and_one_final_posterior(self):
        """A recorded run keeps, per step, the indices of its C_t computed
        rows and the read-only (C_t, d) array its head multiplied, and one
        (N, V) final posterior: sum(C_t) * (d + 1) + N * V values, fewer
        bytes than the dense S * N * V floats since d < V here."""
        cfg = ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2, d_ff=16, max_seq=32)
        w = init_weights(cfg, 5)
        run = RunConfig(n_prompt=8, n_gen=16, steps=16, mode="hybrid", seed=2,
                        policy=LockPolicy(epsilon=5e-2, hybrid_fraction=0.5))
        res = run_sampler(run, w, random_prompt(cfg, 8, 2), record_trajectories=True)
        history = res.history
        computed = [rec.computed_rows for rec in res.trace]
        assert len(history) == len(history.steps) == 16 and len(set(computed)) > 1
        for (active, x), c in zip(history.steps, computed):
            assert active.shape == (c,) and x.shape == (c, 16) and x.dtype == np.float64
            assert not x.flags.writeable
        assert history.final.shape == (24, 64) and history.head is w.head
        held = sum(active.nbytes + x.nbytes for active, x in history.steps) + history.final.nbytes
        assert held == 8 * (sum(computed) * (16 + 1) + 24 * 64)
        assert held < np.asarray(history).nbytes == 8 * 16 * 24 * 64

    def test_step_kl_matches_raw_history(self, toy_weights, toy_prompt):
        """Recorded step KLs are KLs of the raw reported posteriors."""
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run("baseline", temperature=0.9), w, prompt, record_trajectories=True)
        history = np.asarray(res.history)
        for t in range(2, len(res.trace) + 1):
            rec = res.trace[t - 1]
            pos = np.flatnonzero(~np.isnan(rec.step_kl))
            want = kl_from_log_probs_rows(history[t - 1, pos], history[t - 2, pos])
            np.testing.assert_allclose(rec.step_kl[pos], want, atol=1e-12)

    @pytest.mark.parametrize("mode", ["selection", "hybrid"])
    def test_step_arrays_are_nan_exactly_off_the_computed_rows(self, toy_weights, toy_prompt, mode):
        """Every per-position quantity is one (N,) array: a step record's KLs
        and uncertainties are set on the C_t rows it computed and NaN
        elsewhere, each lock event carries its step record's values at its
        position, and no state or record field is a dict or set."""
        w, prompt = toy_weights, toy_prompt
        run = toy_run(mode, policy=LockPolicy(epsilon=5e-2, hybrid_fraction=0.5))
        state = sampler.SamplerState.fresh(run, w, prompt)
        skipped_rows = 0
        records = []
        for k_t in unmask_schedule(run.n_gen, run.steps):
            rec = sampler.step(state, run, w, k_t, (16, 32))
            records.append(rec)
            computed = ~np.isnan(rec.step_kl)
            assert computed.sum() == rec.computed_rows
            skipped_rows += 32 - rec.computed_rows
            np.testing.assert_array_equal(np.isnan(rec.uncert), ~computed)
            for obj in (state, rec):
                for name, value in vars(obj).items():
                    assert not isinstance(value, (dict, set)), name
                    if isinstance(value, np.ndarray) and name not in ("log_post",):
                        assert value.shape == (32,), name
        assert skipped_rows > 0
        for event in state.events:
            rec = records[event.step - 1]
            assert event.kind in ("lock", "relock")
            assert (event.step_kl, event.uncertainty) == (rec.step_kl[event.position], rec.uncert[event.position])
        assert bool(state.events) == (mode == "hybrid")

    def test_temperature_does_not_move_lock_steps(self, toy_weights, toy_prompt):
        """With every masked posterior peaked the same way, lock decisions
        depend only on raw posteriors (draws coincide with argmax here)."""
        w, prompt = toy_weights, toy_prompt
        cold = run_sampler(toy_run("surelock", temperature=0.0), w, prompt)
        hot = run_sampler(toy_run("surelock", temperature=1e-9), w, prompt)
        # a near-zero temperature draw is argmax with probability ~1
        assert [e.position for e in cold.events] == [e.position for e in hot.events]
        assert [e.step for e in cold.events] == [e.step for e in hot.events]

    def test_zero_weight_locks_at_first_eligible_step(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(
            toy_run("surelock", policy=LockPolicy(epsilon=1e-6)), w.scaled(0.0), prompt
        )
        lock_step = {e.position: e.step for e in res.events if e.kind == "lock"}
        assert len(lock_step) == 32
        for pos in range(32):
            first_eligible = max(2, res.unmask_step[pos])
            assert lock_step[pos] == first_eligible

    def test_hybrid_total_beats_both_components(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        totals = {}
        for mode in ("surelock", "selection", "hybrid"):
            totals[mode] = run_sampler(toy_run(mode), w, prompt).total_flops_actual
        assert totals["hybrid"] < totals["selection"]
        assert totals["hybrid"] < totals["surelock"]

    def test_selection_fraction_exact_after_first_step(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run("selection"), w, prompt)
        assert res.trace[0].computed_rows == 32  # nothing to reuse yet
        for rec in res.trace[1:]:
            assert rec.computed_rows == math.ceil(0.8 * rec.active_rows)

    def test_blocks_fill_left_to_right(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run(block_length=8), w, prompt)
        first_block_done = res.unmask_step[16:24].max()
        second_block_start = res.unmask_step[24:].min()
        assert first_block_done < second_block_start
        assert (res.unmask_step[16:] > 0).all()

    def test_block_config_validation(self):
        with pytest.raises(ConfigError):
            toy_run(block_length=5)  # does not divide 16
        with pytest.raises(ConfigError):
            toy_run(block_length=8, steps=15)  # 15 steps over 2 blocks

    def test_selection_requires_fraction(self):
        with pytest.raises(ConfigError):
            toy_run("selection", policy=LockPolicy(epsilon=5e-2))

    def test_prompt_validation(self, toy_config, toy_weights):
        cfg, w = toy_config, toy_weights
        with pytest.raises(InvalidInputError):
            run_sampler(toy_run(), w, np.full(16, cfg.mask_id))
        with pytest.raises(InvalidInputError):
            run_sampler(toy_run(), w, np.arange(3))

    def test_total_flops_is_sum_of_steps(self, toy_weights, toy_prompt):
        w, prompt = toy_weights, toy_prompt
        res = run_sampler(toy_run("surelock"), w, prompt)
        n = len(res.tokens)
        assert res.row_flops == per_row_step_flops(w.config, n)
        assert res.total_flops_actual == sum(r.computed_rows for r in res.trace) * per_row_step_flops(w.config, n)
        assert res.total_flops_base == len(res.trace) * baseline_step_flops(w.config, n)

    def test_mask_id_is_never_committed(self, toy_config, toy_weights, toy_prompt):
        """The mask id marks absorbing state; near-uniform posteriors must
        not leak it into the committed sequence."""
        cfg, w, prompt = toy_config, toy_weights, toy_prompt
        for seed in range(4):
            res = run_sampler(toy_run(seed=seed, temperature=1.3), w, prompt)
            assert cfg.mask_id not in res.tokens.tolist()
            assert cfg.mask_id not in res.tokens[res.unmask_step > 0].tolist()

    def test_prompt_free_run(self, toy_weights):
        w = toy_weights
        run = toy_run(n_prompt=0, n_gen=16, steps=16)
        res = run_sampler(run, w, np.array([], dtype=np.int64))
        assert len(res.tokens) == 16
        assert res.counter_matches

    def test_everything_at_once(self):
        """Blocks, grouped K/V, hybrid selection, unlocking, and sampling
        temperature combined still satisfy the accounting identities."""
        from surelock import ModelConfig, init_weights
        from surelock.cli import random_prompt

        cfg = ModelConfig(vocab_size=24, d_model=24, n_layers=3, n_heads=4,
                          n_kv_heads=2, d_ff=48, max_seq=96)
        w = init_weights(cfg, 77)
        policy = LockPolicy(
            epsilon=5e-2, percentile=40.0, hybrid_fraction=0.7,
            unlock_enabled=True, probe_period=3, epsilon_unlock=1e-10,
            min_locked_duration=1, relock_cooldown=2,
        )
        run = RunConfig(n_prompt=8, n_gen=64, steps=32, block_length=32,
                        temperature=0.6, mode="hybrid", seed=19, policy=policy)
        res = run_sampler(run, w, random_prompt(cfg, 8, 19))
        assert res.counter_matches
        assert np.count_nonzero(res.unmask_step > 0) == 64
        assert all(r.computed_rows <= r.active_rows <= len(res.tokens) for r in res.trace)
        # rerun reproduces the trace bit for bit
        res2 = run_sampler(run, w, random_prompt(cfg, 8, 19))
        assert np.array_equal(res.tokens, res2.tokens)
        assert np.array_equal(res.unmask_step, res2.unmask_step)
        assert [(e.position, e.step, e.kind) for e in res.events] == [(e.position, e.step, e.kind) for e in res2.events]


def _run_outputs(result):
    """The inputs of a run digest: tokens, commit steps, lock events and, per
    step, the computed row count and step KLs."""
    return (
        result.tokens.tolist(),
        result.unmask_step.tolist(),
        repr(result.events),
        [(rec.computed_rows, rec.step_kl.tobytes()) for rec in result.trace],
    )


@pytest.mark.parametrize("n_kv_heads", [4, 2], ids=["mha", "gqa"])
@pytest.mark.parametrize("temperature", [0.0, 0.8])
@pytest.mark.parametrize("unlock", [False, True], ids=["no-unlock", "unlock"])
def test_full_fraction_selection_matches_its_base_mode(n_kv_heads, temperature, unlock):
    """At hybrid_fraction=1.0 selection computes every active row, so it is
    baseline, and hybrid is surelock, run for run."""
    cfg = ModelConfig(vocab_size=24, d_model=24, n_layers=2, n_heads=4, n_kv_heads=n_kv_heads,
                      d_ff=48, max_seq=64)
    w = init_weights(cfg, 77)
    prompt = random_prompt(cfg, 8, 5)
    policy = LockPolicy(epsilon=5e-2, percentile=40.0, hybrid_fraction=1.0, unlock_enabled=unlock,
                        probe_period=2, epsilon_unlock=1e-10, min_locked_duration=1)
    out = {}
    for mode in ("baseline", "surelock", "selection", "hybrid"):
        run = RunConfig(n_prompt=8, n_gen=32, steps=16, block_length=16, temperature=temperature,
                        mode=mode, seed=11, policy=policy)
        out[mode] = run_sampler(run, w, prompt)
    kinds = {e.kind for e in out["surelock"].events}
    assert "lock" in kinds and ("unlock" in kinds) == unlock
    assert _run_outputs(out["selection"]) == _run_outputs(out["baseline"])
    assert _run_outputs(out["hybrid"]) == _run_outputs(out["surelock"])


#: small runs of every mode, MHA and GQA, one to four blocks, with and without unlocking, greedy and sampled
RUN_SPACE = dict(
    mode=st.sampled_from(sampler.MODES), n_heads=st.sampled_from([1, 2, 4]), group=st.sampled_from([1, 2, 4]),
    n_prompt=st.integers(0, 6), n_blocks=st.sampled_from([1, 2, 4]), block_len=st.integers(1, 4),
    fraction=st.sampled_from([0.1, 0.5, 1.0]), unlock=st.booleans(), temperature=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)


def space_run(mode, n_heads, group, n_prompt, n_blocks, block_len, fraction, unlock, temperature, seed):
    """The model config, weights, run config and prompt of one point of ``RUN_SPACE``."""
    n_kv_heads = max(1, n_heads // group)
    cfg = ModelConfig(vocab_size=12, d_model=4 * n_heads, n_layers=2, n_heads=n_heads, n_kv_heads=n_kv_heads,
                      d_ff=8, max_seq=32)
    n_gen = n_blocks * block_len
    policy = LockPolicy(epsilon=5e-2, hybrid_fraction=fraction, unlock_enabled=unlock, probe_period=1,
                        epsilon_unlock=0.0, min_locked_duration=1, relock_cooldown=1)
    run = RunConfig(n_prompt=n_prompt, n_gen=n_gen, steps=n_gen, block_length=block_len, mode=mode,
                    temperature=temperature, seed=seed, policy=policy)
    return cfg, init_weights(cfg, seed), run, random_prompt(cfg, n_prompt, seed)


@settings(max_examples=40, deadline=None)
@given(**RUN_SPACE)
def test_first_step_computes_every_row(mode, n_heads, group, n_prompt, n_blocks, block_len, fraction, unlock,
                                       temperature, seed):
    """Step 1 computes all N rows in every mode, so from then on every row
    has a posterior and stored K/V: the recorded validity is all True. The
    GEMM counter equals the closed form on every step, the run's cost ratio
    is exactly the micro-average of C_t / N, and at fraction 1.0 selection is
    baseline and hybrid is surelock, run for run. The prompt's commit step
    is 0, each block's positions are committed one per step within that
    block's steps, none is left masked, and no lock comes before its commit."""
    cfg, w, run, prompt = space_run(mode, n_heads, group, n_prompt, n_blocks, block_len, fraction, unlock,
                                    temperature, seed)
    res = run_sampler(run, w, prompt, record_trajectories=True)
    assert res.trace[0].computed_rows == run.n_positions
    assert res.history_valid.all()
    assert res.counter_matches
    assert res.row_flops == per_row_step_flops(cfg, run.n_positions)
    assert res.ratio == sum(r.computed_rows for r in res.trace) / (len(res.trace) * run.n_positions)
    np.testing.assert_array_equal(res.unmask_step[:n_prompt], 0)
    per_block = np.sort(res.unmask_step[n_prompt:].reshape(n_blocks, block_len), axis=1)
    np.testing.assert_array_equal(per_block, np.arange(1, run.n_gen + 1).reshape(n_blocks, block_len))
    assert (res.unmask_step >= 0).all()
    assert all(e.step >= res.unmask_step[e.position] for e in res.events if e.kind != "unlock")
    if mode in ("selection", "hybrid") and fraction == 1.0:
        base = dataclasses.replace(run, mode="baseline" if mode == "selection" else "surelock")
        assert _run_outputs(res) == _run_outputs(run_sampler(base, w, prompt))


@settings(max_examples=40, deadline=None)
@given(**RUN_SPACE)
def test_trajectories_of_the_replayed_history(**point):
    """The one-pass build over the replayed history gives, position by
    position, the trajectory ``Trajectory.from_logits`` builds from that
    position's (steps, V) slice of the dense history, bit for bit."""
    _, w, run, prompt = space_run(**point)
    res = run_sampler(run, w, prompt, record_trajectories=True)
    dense = np.asarray(res.history)
    trajs = trajectories_from_history(res.history, res.history_valid)
    assert [t.position for t in trajs] == list(range(run.n_positions))
    for traj in trajs:
        want = Trajectory.from_logits(dense[:, traj.position], position=traj.position, source="sampled")
        for name in ("step_kl", "step_move", "terminal_gap"):
            assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
        assert (traj.position, traj.source) == (want.position, want.source)


def mean_step_kl_curve(trace):
    """Each step's mean finite step KL over computed unmasked rows, the
    trace's ``mean_D``; the first step, where every KL is infinite, has none."""
    return [(rec.t, rec.mean_step_kl) for rec in trace if rec.mean_step_kl is not None]


class TestStepwiseKLCurve:
    def test_zero_weight_curve_is_zero_from_step_two(self, small_model):
        cfg, w = small_model
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="surelock", seed=4,
                        policy=LockPolicy(epsilon=1e-6))
        res = run_sampler(run, w.scaled(0.0), random_prompt(cfg, 4, 1))
        curve = mean_step_kl_curve(res.trace)
        assert curve[0][0] == 2
        assert all(v == 0.0 for _, v in curve)

    def test_baseline_curve_covers_steps_from_two(self, small_model):
        cfg, w = small_model
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="baseline", seed=4)
        res = run_sampler(run, w, random_prompt(cfg, 4, 1))
        curve = mean_step_kl_curve(res.trace)
        assert [t for t, _ in curve] == list(range(2, 9))
        assert all(np.isfinite(v) and v >= 0 for _, v in curve)
