import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surelock import (
    LockPolicy,
    ModelConfig,
    RunConfig,
    forward_partial,
    init_weights,
    run_sampler,
)
from surelock.cli import random_prompt
from surelock.errors import ConfigError, InvalidStateError
from surelock.kernels import kl_from_log_probs_rows, log_softmax_rows, percentile_nearest_rank
from surelock.lockctl import apply_locks, evaluate_locks, probe_unlock, uncertainty_rows
from surelock.sampler import SamplerState, step, unmask_schedule

inf = float("inf")
nan = float("nan")


class TestUncertainty:
    def test_one_hot(self):
        lp = np.array([[0.0, -np.inf, -np.inf]])
        assert uncertainty_rows(lp)[0] == 0.0

    def test_uniform(self):
        lp = np.log(np.full((1, 4), 0.25))
        assert abs(uncertainty_rows(lp)[0] - 0.75) < 1e-12

    def test_plain_arithmetic(self):
        lp = np.log([[0.6, 0.3, 0.1]])
        assert abs(uncertainty_rows(lp)[0] - 0.4) < 1e-12


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [
        dict(epsilon=float("nan")),
        dict(percentile=150.0),
        dict(epsilon_unlock=float("inf")),
        dict(relock_cooldown=0),
        dict(probe_period=0),
        dict(hybrid_fraction=0.0),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            LockPolicy(**bad)


def locks(candidates, step_kl, uncert, policy, t=0, cooldown_until=None):
    """The positions of ``evaluate_locks``'s events on per-position arrays;
    by default no position was ever unlocked, so none has a cooldown."""
    n = len(step_kl)
    cooldown_until = np.full(n, -1) if cooldown_until is None else np.asarray(cooldown_until)
    events = evaluate_locks(np.asarray(candidates, dtype=np.intp), np.asarray(step_kl, dtype=float),
                            np.asarray(uncert, dtype=float), policy, t, cooldown_until)
    return [e.position for e in events]


class TestEvaluateLocks:
    def test_threshold_split_gate_disabled(self):
        policy = LockPolicy(epsilon=1e-3, gate_enabled=False)
        got = locks([1, 2], [nan, 1e-5, 1.0], [nan, 0.5, 0.5], policy)
        assert got == [1]

    def test_nearest_rank_gate(self):
        policy = LockPolicy(epsilon=1.0, percentile=33.0)
        got = locks([1, 2, 3], [nan, 0.0, 0.0, 0.0], [nan, 0.1, 0.2, 0.3], policy)
        assert got == [1]

    def test_infinite_kl_first_step(self):
        policy = LockPolicy(epsilon=1.0, gate_enabled=False)
        assert locks([0, 1], [inf, inf], [0.1, 0.1], policy) == []

    def test_empty_candidates(self):
        assert locks([], [0.0, 0.0], [0.1, 0.1], LockPolicy()) == []

    def test_gate_disabled_is_pure_threshold(self):
        policy = LockPolicy(epsilon=0.5, gate_enabled=False)
        d = 0.1 * np.arange(10)
        got = locks(range(10), d, np.full(10, 0.9), policy)
        assert got == [i for i in range(10) if d[i] <= 0.5]

    def test_cooldown_exclusion(self):
        policy = LockPolicy(epsilon=1.0, gate_enabled=False)
        cooldown = [-1, 5]
        assert locks([1], [nan, 0.0], [nan, 0.1], policy, t=5, cooldown_until=cooldown) == []
        assert locks([1], [nan, 0.0], [nan, 0.1], policy, t=6, cooldown_until=cooldown) == [1]

    def test_tightened_threshold_after_unlock(self):
        policy = LockPolicy(epsilon=1e-3, gate_enabled=False)
        cooldown = np.where(np.arange(8) == 7, 2, -1)  # row 7 was released; its cooldown has run out
        kl = np.full(8, nan)
        kl[7] = 7e-4
        assert locks([7], kl, np.full(8, 0.1), policy, t=5, cooldown_until=cooldown) == []
        kl[7] = 4e-4
        assert locks([7], kl, np.full(8, 0.1), policy, t=5, cooldown_until=cooldown) == [7]


def reference_evaluate_locks(candidates, step_kl, uncert, policy, t, cooldown_until):
    """The position-at-a-time lock test over dicts, as the sampler kept its
    state before it held one array per quantity; a released row is one with
    a cooldown entry, and its lock is a relock. Returns (position, step,
    kind, step KL, uncertainty) per lock."""
    candidates = sorted(candidates)
    if not candidates:
        return []
    theta = percentile_nearest_rank([uncert[i] for i in candidates], policy.percentile)
    locked = []
    for i in candidates:
        if t <= cooldown_until.get(i, -1):
            continue
        eps = policy.epsilon * (0.5 if i in cooldown_until else 1.0)  # lockctl.RELOCK_TIGHTENING
        if step_kl[i] <= eps and (not policy.gate_enabled or uncert[i] <= theta):
            locked.append((i, t, "relock" if i in cooldown_until else "lock", step_kl[i], uncert[i]))
    return locked


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 24),
    kl_levels=st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 5e-3, 1e-2, 1.0, inf, -inf]), min_size=1, max_size=4),
    u_levels=st.integers(1, 4),
    epsilon=st.sampled_from([-1.0, 0.0, 1e-6, 5e-3, 1.0, 1e9]),
    percentile=st.sampled_from([0.0, 20.0, 50.0, 100.0]),
    gate=st.booleans(),
    t=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_locks_matches_reference(n, kl_levels, u_levels, epsilon, percentile, gate, t, seed):
    """Same lock events as the loop over dicts: few distinct KL and
    uncertainty levels make ties common, and KLs include +-inf; candidates
    may be empty, in a cooldown or previously unlocked, and other rows are
    unscored."""
    rng = np.random.default_rng(seed)
    policy = LockPolicy(epsilon=epsilon, percentile=percentile, gate_enabled=gate)
    candidates = np.flatnonzero(rng.random(n) < 0.6)
    step_kl = np.full(n, nan)
    uncert = np.full(n, nan)
    step_kl[candidates] = rng.choice(kl_levels, size=candidates.size)
    uncert[candidates] = rng.integers(0, u_levels, size=candidates.size) / 4.0
    cooldown_until = np.where(rng.random(n) < 0.3, rng.integers(0, 10, size=n), -1)
    got = [(e.position, e.step, e.kind, e.step_kl, e.uncertainty)
           for e in evaluate_locks(candidates, step_kl, uncert, policy, t, cooldown_until)]
    want = reference_evaluate_locks(
        candidates.tolist(),
        {i: float(step_kl[i]) for i in candidates.tolist()},
        {i: float(uncert[i]) for i in candidates.tolist()},
        policy, t,
        {i: int(c) for i, c in enumerate(cooldown_until) if c >= 0},
    )
    assert got == want


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


def passing_lock_events(state, positions):
    """The events of a lock test that every one of ``positions`` passes at
    the state's current step."""
    zeros = np.zeros(state.n)
    return evaluate_locks(positions, zeros, zeros, LockPolicy(epsilon=1e9, gate_enabled=False),
                          state.t, np.full(state.n, -1))


class TestApplyLocks:
    def test_empty_set_is_noop(self):
        policy = LockPolicy(epsilon=-1.0)
        state, records = drive(surelock_run(policy), n_steps=3)
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
            apply_locks(state, passing_lock_events(state, [pos]), np.array([pos]))

    def test_masked_lock_raises(self):
        policy = LockPolicy(epsilon=-1.0)
        state, records = drive(surelock_run(policy), n_steps=2)
        masked_pos = int(np.flatnonzero(state.masked)[0])
        with pytest.raises(InvalidStateError):
            apply_locks(state, passing_lock_events(state, [masked_pos]), np.array([masked_pos]))

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
        released = probe_unlock(state, W, open_policy, gate_threshold=-1.0, rows=rows)
        assert [e.position for e in released] == rows

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
        released = probe_unlock(state, W, below_boundary, gate_threshold=-1.0, rows=rows)
        assert [e.position for e in released] == rows

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_release_events_are_per_row_and_match_the_scalar_formula(self, scale):
        """The probe scores all rows at once; each released row's event
        carries 1 - exp(max) of its proxy log-posterior as its uncertainty,
        and its drift, bit for bit. Scaled weights give peaked posteriors,
        where the rounding of 1 - exp(max) shows."""
        w = W.scaled(scale)
        state, _ = drive(surelock_run(LockPolicy(epsilon=1e9, gate_enabled=False)), n_steps=6, w=w)
        rows = np.flatnonzero(state.lock & (state.t - state.lock_step > 1))
        assert rows.size > 1
        # every clause passes on every probed row, so each gets an event
        releases_all = LockPolicy(unlock_enabled=True, epsilon_unlock=-1.0, min_locked_duration=1)
        events = probe_unlock(state, w, releases_all, gate_threshold=-1.0, rows=rows[1:])
        proxy = forward_partial(w, state.tokens, state.masked, rows[1:], state.stale_view())
        proxy_lp = log_softmax_rows(proxy)
        want = [float(1.0 - np.exp(np.max(row))) for row in proxy_lp]
        assert [e.position for e in events] == rows[1:].tolist()
        assert [e.uncertainty for e in events] == want
        np.testing.assert_array_equal([e.step_kl for e in events],
                                      kl_from_log_probs_rows(proxy_lp, state.log_post[rows[1:]]))

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
        pos = released[0].position
        assert not state.lock[pos]
        assert state.lock_step[pos] == -1
        # the row keeps its last computed K/V until it is next computed
        np.testing.assert_array_equal(state.kv.k_t, kv_before.k_t)
        np.testing.assert_array_equal(state.kv.v, kv_before.v)
        assert state.kv.valid[pos]
        assert state.cooldown_until[pos] == state.t + 4
        assert state.last_step_kl[pos] == np.inf  # ranks as unscored again
        # cooldown refusal: the lock test rejects the row until the timer runs
        # out, and then holds it to the tightened threshold
        zeros = np.zeros(state.n)
        assert evaluate_locks([pos], zeros, zeros, policy, state.t + 4, state.cooldown_until) == []
        above_tightened = np.full(state.n, 0.7 * policy.epsilon)
        assert evaluate_locks([pos], above_tightened, zeros, policy, state.t + 5, state.cooldown_until) == []
        relocked = evaluate_locks([pos], zeros, zeros, policy, state.t + 5, state.cooldown_until)
        assert [(e.position, e.kind) for e in relocked] == [(pos, "relock")]

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
        pos = released[0].position

        snapshot = copy.deepcopy(state)
        run = surelock_run(policy)
        step(state, run, W, 1, (4, 12))

        active = np.flatnonzero(~snapshot.lock)
        ref = forward_partial(
            W, snapshot.tokens, snapshot.masked, active, snapshot.kv
        )
        want = log_softmax_rows(ref)[list(active).index(pos)]
        np.testing.assert_array_equal(state.log_post[pos], want)


class TestUnlockIntegration:
    def test_events_alternate_and_respect_cooldown(self):
        policy = LockPolicy(
            epsilon=1e-1, percentile=0.0, unlock_enabled=True, probe_period=2,
            epsilon_unlock=1e-12, min_locked_duration=1, relock_cooldown=2,
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

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["surelock", "hybrid"]),
        heads=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)]),  # (n_heads, n_kv_heads)
        n_blocks=st.sampled_from([1, 2, 4]),
        temperature=st.sampled_from([0.0, 0.8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_events_carry_the_facts_they_were_decided_on(self, mode, heads, n_blocks, temperature, seed):
        """A lock or relock event holds its step record's KL and uncertainty
        at its position; it is a relock exactly when the position was
        unlocked before. An unlock event's drift exceeds ``epsilon_unlock``,
        its proxy uncertainty exceeds the step's gate threshold, and it comes
        more than ``min_locked_duration`` steps after the lock.
        About a third of the runs unlock, and a quarter relock."""
        rng = np.random.default_rng(seed)
        n_heads, n_kv_heads = heads
        cfg = ModelConfig(vocab_size=int(rng.integers(6, 24)), d_model=n_heads * int(rng.integers(2, 6)),
                          n_layers=int(rng.integers(1, 3)), n_heads=n_heads, n_kv_heads=n_kv_heads,
                          d_ff=int(rng.integers(4, 24)), max_seq=48)
        policy = LockPolicy(
            epsilon=float(rng.choice([1e-3, 1e-2, 1e-1, 1e9])), percentile=float(rng.choice([0.0, 20.0, 50.0])),
            gate_enabled=bool(rng.integers(2)), hybrid_fraction=float(rng.uniform(0.5, 1.0)),
            unlock_enabled=True, probe_period=int(rng.integers(1, 3)),
            epsilon_unlock=float(rng.choice([1e-12, 1e-8, 1e-4])), min_locked_duration=int(rng.integers(1, 3)),
            relock_cooldown=int(rng.integers(1, 4)),
        )
        block_len = int(rng.integers(2, 9))
        run = RunConfig(n_prompt=int(rng.integers(0, 9)), n_gen=n_blocks * block_len, block_length=block_len,
                        steps=n_blocks * int(rng.integers(block_len // 2, block_len + 1)), mode=mode,
                        temperature=temperature, seed=seed, policy=policy)
        w = init_weights(cfg, seed).scaled(float(rng.choice([1.0, 4.0])))
        res = run_sampler(run, w, random_prompt(cfg, run.n_prompt, seed))

        last_lock_step = {}
        unlocked_before = set()
        for e in res.events:
            rec = res.trace[e.step - 1]
            assert rec.t == e.step
            if e.kind == "unlock":
                assert e.step_kl > policy.epsilon_unlock
                assert e.uncertainty > percentile_nearest_rank(rec.uncert[~np.isnan(rec.uncert)], policy.percentile)
                assert e.step - last_lock_step[e.position] > policy.min_locked_duration
                unlocked_before.add(e.position)
            else:
                assert e.step_kl == rec.step_kl[e.position]
                assert e.uncertainty == rec.uncert[e.position]
                assert (e.kind == "relock") == (e.position in unlocked_before)
                last_lock_step[e.position] = e.step

    def test_active_rows_can_grow_after_unlock(self):
        policy = LockPolicy(
            epsilon=1e-1, percentile=0.0, unlock_enabled=True, probe_period=2,
            epsilon_unlock=1e-12, min_locked_duration=1, relock_cooldown=2,
        )
        run = RunConfig(n_prompt=8, n_gen=16, steps=16, mode="surelock", seed=6, policy=policy)
        w = init_weights(ModelConfig(vocab_size=24, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32), 8)
        res = run_sampler(run, w, random_prompt(w.config, 8, 1))
        m = [r.active_rows for r in res.trace]
        total_unlocked = sum(e.kind == "unlock" for e in res.events)
        assert total_unlocked > 0
        assert any(b > a for a, b in zip(m, m[1:]))
