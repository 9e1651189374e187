import copy
import math

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
from surelock.cli import random_prompt
from surelock.errors import ConfigError, InvalidInputError, InvalidStateError
from surelock.lockctl import (
    apply_locks,
    evaluate_locks,
    probe_unlock,
    threshold_for_deviation,
    uncertainty,
)
from surelock.sampler import SamplerState, step, unmask_schedule


class TestUncertainty:
    def test_one_hot(self):
        lp = np.array([0.0, -np.inf, -np.inf])
        assert uncertainty(lp) == 0.0

    def test_uniform(self):
        lp = np.log(np.full(4, 0.25))
        assert abs(uncertainty(lp) - 0.75) < 1e-12

    def test_plain_arithmetic(self):
        lp = np.log([0.6, 0.3, 0.1])
        assert abs(uncertainty(lp) - 0.4) < 1e-12


class TestThresholdForDeviation:
    def test_quarter_of_a_percent(self):
        assert threshold_for_deviation(0.1, 2.0) == pytest.approx(0.0025)

    def test_zero_deviation(self):
        assert threshold_for_deviation(0.0, 3.0) == 0.0

    def test_composed_gain(self):
        from surelock.analysis import tail_gain

        gain = tail_gain(2.0, 1.0, 0.25)
        assert gain == pytest.approx(4.0)
        assert threshold_for_deviation(1.0, gain) == pytest.approx(0.0625)

    def test_bad_gain(self):
        with pytest.raises(InvalidInputError):
            threshold_for_deviation(0.1, 0.0)
        with pytest.raises(InvalidInputError):
            threshold_for_deviation(-0.1, 1.0)


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [
        dict(epsilon=float("nan")),
        dict(percentile=150.0),
        dict(relock_tightening=0.0),
        dict(relock_tightening=1.5),
        dict(probe_period=0),
        dict(hybrid_fraction=0.0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            LockPolicy(**bad)


class TestEvaluateLocks:
    def test_threshold_split_gate_disabled(self):
        policy = LockPolicy(epsilon=1e-3, gate_enabled=False)
        got = evaluate_locks([1, 2], {1: 1e-5, 2: 1.0}, {1: 0.5, 2: 0.5}, policy)
        assert got == [1]

    def test_nearest_rank_gate(self):
        policy = LockPolicy(epsilon=1.0, percentile=33.0)
        got = evaluate_locks(
            [1, 2, 3], {1: 0.0, 2: 0.0, 3: 0.0}, {1: 0.1, 2: 0.2, 3: 0.3}, policy
        )
        assert got == [1]

    def test_infinite_kl_first_step(self):
        policy = LockPolicy(epsilon=1.0, gate_enabled=False)
        inf = float("inf")
        assert evaluate_locks([0, 1], {0: inf, 1: inf}, {0: 0.1, 1: 0.1}, policy) == []

    def test_empty_candidates(self):
        assert evaluate_locks([], {}, {}, LockPolicy()) == []

    def test_gate_disabled_is_pure_threshold(self):
        policy = LockPolicy(epsilon=0.5, gate_enabled=False)
        d = {i: 0.1 * i for i in range(10)}
        u = {i: 0.9 for i in range(10)}
        got = evaluate_locks(range(10), d, u, policy)
        assert got == [i for i in range(10) if d[i] <= 0.5]

    def test_cooldown_exclusion(self):
        policy = LockPolicy(epsilon=1.0, gate_enabled=False)
        cooldown = {1: 5}
        assert evaluate_locks([1], {1: 0.0}, {1: 0.1}, policy, t=5, cooldown_until=cooldown) == []
        assert evaluate_locks([1], {1: 0.0}, {1: 0.1}, policy, t=6, cooldown_until=cooldown) == [1]

    def test_tightened_threshold_after_unlock(self):
        policy = LockPolicy(epsilon=1e-3, gate_enabled=False, relock_tightening=0.5)
        unlocked = {7}
        assert evaluate_locks([7], {7: 7e-4}, {7: 0.1}, policy, ever_unlocked=unlocked) == []
        assert evaluate_locks([7], {7: 4e-4}, {7: 0.1}, policy, ever_unlocked=unlocked) == [7]


# ---------------------------------------------------------------------------
# integration scaffolding: drive the sampler step by step so the state stays
# inspectable


CFG = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32)
W = init_weights(CFG, 5)
PROMPT = random_prompt(CFG, 4, 11)


def drive(run, n_steps=None, w=W):
    state = SamplerState.fresh(run, w, PROMPT)
    schedule = unmask_schedule(run.n_gen, run.steps)
    block = (run.n_prompt, run.n_prompt + run.n_gen)
    records = []
    for k_t in schedule[: n_steps if n_steps is not None else len(schedule)]:
        records.append(step(state, run, w, k_t, block))
    return state, records


def surelock_run(policy, **kw):
    args = dict(n_prompt=4, n_gen=8, steps=8, mode="surelock", seed=2, policy=policy)
    args.update(kw)
    return RunConfig(**args)


class TestApplyLocks:
    def test_empty_set_is_noop(self):
        policy = LockPolicy(epsilon=-1.0)
        state, _ = drive(surelock_run(policy), n_steps=3)
        before = copy.deepcopy(state.lock)
        apply_locks(state, [], np.array([], dtype=int))
        assert np.array_equal(state.lock, before)

    def test_double_lock_raises(self):
        policy = LockPolicy(epsilon=1e9, gate_enabled=False)
        state, records = drive(surelock_run(policy), n_steps=3)
        locked = np.flatnonzero(state.lock)
        assert locked.size > 0
        pos = int(locked[0])
        with pytest.raises(InvalidStateError):
            apply_locks(state, [pos], np.array([pos]))

    def test_masked_lock_raises(self):
        policy = LockPolicy(epsilon=-1.0)
        state, _ = drive(surelock_run(policy), n_steps=2)
        masked_pos = int(np.flatnonzero(state.mask_flags)[0])
        with pytest.raises(InvalidStateError):
            apply_locks(state, [masked_pos], np.array([masked_pos]))

    def test_locked_rows_serve_cached_kv(self):
        """After a lock, later forwards read that position from the store."""
        policy = LockPolicy(epsilon=1e9, gate_enabled=False)
        state, _ = drive(surelock_run(policy), n_steps=4)
        locked = np.flatnonzero(state.lock)
        assert locked.size > 0
        cached_before = state.kv.copy()
        run = surelock_run(policy)
        step(state, run, W, 1, (4, 12))
        for li in range(CFG.n_layers):
            np.testing.assert_array_equal(state.kv.keys(li)[locked], cached_before.keys(li)[locked])
            np.testing.assert_array_equal(state.kv.values(li)[locked], cached_before.values(li)[locked])

    def test_unlock_probe_leaves_the_store_untouched(self):
        """The probe computes locked rows on a copy; their K/V must not persist."""
        policy = LockPolicy(epsilon=1e9, gate_enabled=False)
        state, _ = drive(surelock_run(policy), n_steps=6)
        before = state.kv.copy()
        open_policy = LockPolicy(epsilon=1e9, gate_enabled=False, unlock_enabled=True,
                                 epsilon_unlock=1e-15, min_locked_duration=1)
        assert probe_unlock(state, W, open_policy, gate_threshold=-1.0)
        np.testing.assert_array_equal(state.kv.k_t, before.k_t)
        np.testing.assert_array_equal(state.kv.v, before.v)
        np.testing.assert_array_equal(state.kv.valid, before.valid)


class TestProbeUnlock:
    def make_locked_state(self, steps=6, epsilon=1e9):
        """Locks pile up early, then further commits shift the context."""
        policy = LockPolicy(epsilon=epsilon, gate_enabled=False)
        run = surelock_run(policy)
        state, records = drive(run, n_steps=steps)
        assert state.lock.any()
        return state, run

    def test_zero_drift_never_unlocks(self):
        """Probing immediately after the state stops changing finds ~no drift."""
        policy = LockPolicy(epsilon=1e9, gate_enabled=False)
        state, _ = drive(surelock_run(policy))  # full run: everything committed
        unlock_policy = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=5e-2, min_locked_duration=1,
        )
        # gate threshold -1 < any uncertainty: isolates the drift clause;
        # rows locked at the final step have seen no context change at all
        last_locked = [e.position for e in state.events if e.step == state.t and e.kind == "lock"]
        if last_locked:
            got = probe_unlock(state, W, unlock_policy, gate_threshold=-1.0, rows=last_locked)
            assert got == []

    def test_conjunction_all_three_clauses_required(self):
        state, _ = self.make_locked_state()
        first_lock = min(e.step for e in state.events if e.kind == "lock")
        age = state.t - first_lock
        assert age >= 2
        rows = [e.position for e in state.events if e.kind == "lock" and e.step == first_lock]

        drift_blocked = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e9, min_locked_duration=1,
        )
        assert probe_unlock(state, W, drift_blocked, gate_threshold=-1.0, rows=rows) == []

        open_policy = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e-15, min_locked_duration=1,
        )
        # uncertainty clause blocked: threshold above any possible value
        assert probe_unlock(state, W, open_policy, gate_threshold=2.0, rows=rows) == []
        # all three clauses satisfied
        assert probe_unlock(state, W, open_policy, gate_threshold=-1.0, rows=rows) == rows

    def test_interval_boundary_is_strict(self):
        state, _ = self.make_locked_state()
        first_lock = min(e.step for e in state.events if e.kind == "lock")
        rows = [e.position for e in state.events if e.kind == "lock" and e.step == first_lock]
        age = state.t - first_lock
        at_boundary = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e-15, min_locked_duration=age,
        )
        assert probe_unlock(state, W, at_boundary, gate_threshold=-1.0, rows=rows) == []
        below_boundary = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e-15, min_locked_duration=age - 1,
        )
        assert probe_unlock(state, W, below_boundary, gate_threshold=-1.0, rows=rows) == rows

    def test_probe_on_unlocked_row_raises(self):
        state, _ = self.make_locked_state()
        free = int(np.flatnonzero(~state.lock)[0])
        policy = LockPolicy(epsilon=1e9, unlock_enabled=True)
        with pytest.raises(InvalidStateError):
            probe_unlock(state, W, policy, gate_threshold=0.5, rows=[free])

    def test_release_starts_cooldown_and_tightening(self):
        state, _ = self.make_locked_state()
        policy = LockPolicy(
            epsilon=1e9, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e-15, min_locked_duration=1, relock_cooldown=4,
        )
        first_lock = min(e.step for e in state.events if e.kind == "lock")
        rows = [e.position for e in state.events if e.kind == "lock" and e.step == first_lock]
        released = probe_unlock(state, W, policy, gate_threshold=-1.0, rows=rows)
        kv_before = state.kv.copy()
        state.release_locks(released, policy)
        pos = released[0]
        assert not state.lock[pos]
        assert state.lock_step[pos] == -1
        # the row keeps its last computed K/V until it is next computed
        np.testing.assert_array_equal(state.kv.k_t, kv_before.k_t)
        np.testing.assert_array_equal(state.kv.v, kv_before.v)
        assert state.kv.valid[pos]
        assert state.cooldown_until[pos] == state.t + 4
        assert pos in state.ever_unlocked
        # cooldown refusal: the lock test rejects the row until the timer runs out
        assert evaluate_locks(
            [pos], {pos: 0.0}, {pos: 0.0}, policy,
            t=state.t + 4, cooldown_until=state.cooldown_until,
        ) == []
        assert evaluate_locks(
            [pos], {pos: 0.0}, {pos: 0.0}, policy,
            t=state.t + 5, cooldown_until=state.cooldown_until,
            ever_unlocked=state.ever_unlocked,
        ) == [pos]

    def test_post_unlock_row_uses_the_standard_subgraph(self):
        """The next step computes a released row exactly like any active row."""
        state, _ = self.make_locked_state(steps=5)
        policy = LockPolicy(
            epsilon=-1.0, gate_enabled=False, unlock_enabled=True,
            epsilon_unlock=1e-15, min_locked_duration=1,
        )
        first_lock = min(e.step for e in state.events if e.kind == "lock")
        rows = [e.position for e in state.events if e.kind == "lock" and e.step == first_lock]
        released = probe_unlock(state, W, policy, gate_threshold=-1.0, rows=rows)
        assert released
        state.release_locks(released, policy)
        pos = released[0]

        snapshot = copy.deepcopy(state)
        run = surelock_run(policy)
        step(state, run, W, 1, (4, 12))

        active = np.flatnonzero(~snapshot.lock)
        ref = forward_partial(
            W, snapshot.tokens, snapshot.mask_flags, active, snapshot.kv
        )
        from surelock.kernels import log_softmax_rows

        want = log_softmax_rows(ref.logits)[list(active).index(pos)]
        np.testing.assert_array_equal(state.log_post[pos], want)


class TestUnlockIntegration:
    def test_events_alternate_and_respect_cooldown(self):
        policy = LockPolicy(
            epsilon=1e-1, percentile=0.0, unlock_enabled=True, probe_period=2,
            epsilon_unlock=1e-12, min_locked_duration=1, relock_cooldown=2,
            relock_tightening=0.9,
        )
        run = RunConfig(n_prompt=8, n_gen=16, steps=16, mode="surelock", seed=6, policy=policy)
        w = init_weights(ModelConfig(vocab_size=24, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32), 8)
        res = run_sampler(run, w, random_prompt(w.config, 8, 1))
        unlocks = [e for e in res.events if e.kind == "unlock"]
        assert unlocks, "expected at least one unlock with these thresholds"
        by_pos = {}
        for e in res.events:
            by_pos.setdefault(e.position, []).append(e)
        for pos, events in by_pos.items():
            for a, b in zip(events, events[1:]):
                if a.kind in ("lock", "relock"):
                    assert b.kind == "unlock"
                else:
                    assert b.kind == "relock"
                    assert b.step - a.step > policy.relock_cooldown

    def test_active_rows_can_grow_after_unlock(self):
        policy = LockPolicy(
            epsilon=1e-1, percentile=0.0, unlock_enabled=True, probe_period=2,
            epsilon_unlock=1e-12, min_locked_duration=1, relock_cooldown=2,
        )
        run = RunConfig(n_prompt=8, n_gen=16, steps=16, mode="surelock", seed=6, policy=policy)
        w = init_weights(ModelConfig(vocab_size=24, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32), 8)
        res = run_sampler(run, w, random_prompt(w.config, 8, 1))
        m = [r.active_rows for r in res.trace]
        total_unlocked = sum(len(r.newly_unlocked) for r in res.trace)
        assert total_unlocked > 0
        assert any(b > a for a, b in zip(m, m[1:]))
