import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surelock import (
    LockPolicy,
    ModelConfig,
    RunConfig,
    init_weights,
    kernels,
    run_sampler,
)
from surelock.analysis import (
    BOUND_SLACK,
    BoundReport,
    TailEstimate,
    Trajectory,
    battery_steps,
    calibrate_input_radius,
    check_lock_bound,
    embedding_gain,
    estimate_contraction,
    estimate_smoothness,
    lipschitz_constants,
    simulate_trajectory,
    softmax_jacobian_sup,
    stepwise_kl_curve,
    tail_gain,
    trajectories_from_history,
)
from surelock.cli import random_prompt
from surelock.errors import EstimateUndefinedError, InvalidInputError
from surelock.numkit import LOG_SOFTMAX_LIPSCHITZ, row_norms

DATA = Path(__file__).parent / "data"


def traj_from_kl_series(kl_series, v=6):
    """Trajectory whose step KLs equal the given series (built step by step
    by moving mass between two tokens until the target KL matches)."""
    logits = [np.zeros(v)]
    for target in kl_series:
        prev = logits[-1]
        if target == 0.0:
            logits.append(prev.copy())
            continue
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = (lo + hi) / 2
            cand = prev.copy()
            cand[0] += mid
            got = Trajectory.from_logits(np.stack([prev, cand])).step_kl[1]
            if got < target:
                lo = mid
            else:
                hi = mid
        cand = prev.copy()
        cand[0] += (lo + hi) / 2
        logits.append(cand)
    return Trajectory.from_logits(np.stack(logits))


class TestEstimateContraction:
    def test_hand_series(self):
        traj = traj_from_kl_series([0.4, 0.1, 0.025])
        # lock at first KL step: ratios 0.1/0.4 and 0.025/0.1
        got = estimate_contraction(traj, 2)
        assert abs(got.value - 0.25) < 1e-6
        assert got.pairs_used == 2

    def test_constant_tail_is_one(self):
        traj = traj_from_kl_series([0.2, 0.2, 0.2])
        got = estimate_contraction(traj, 2)
        assert abs(got.value - 1.0) < 1e-6

    def test_frozen_tail_is_degenerate_zero(self):
        z = np.zeros((5, 4))
        traj = Trajectory.from_logits(z)
        got = estimate_contraction(traj, 2)
        assert got.value == 0.0 and got.degenerate

    def test_zero_to_positive_is_infinite(self):
        traj = traj_from_kl_series([0.1, 0.0, 0.05])
        got = estimate_contraction(traj, 2)
        assert got.value == np.inf

    def test_empty_tail_raises(self):
        traj = traj_from_kl_series([0.1])
        with pytest.raises(EstimateUndefinedError):
            estimate_contraction(traj, 2)


class TestEstimateSmoothness:
    def test_frozen_trajectory_zero(self):
        traj = Trajectory.from_logits(np.ones((6, 4)))
        got = estimate_smoothness(traj, 2)
        assert got.value == 0.0 and got.degenerate

    def test_known_ratio_construction(self):
        """Build steps with logit movement exactly r * sqrt(prior KL)."""
        r = 1.7
        v = 8
        logits = [np.zeros(v), np.concatenate([[1.0], np.zeros(v - 1)])]
        direction = np.zeros(v)
        direction[1] = 1.0
        for _ in range(4):
            cur = np.stack(logits[-2:])
            d_prev = Trajectory.from_logits(cur).step_kl[1]
            logits.append(logits[-1] + direction * r * math.sqrt(d_prev))
        traj = Trajectory.from_logits(np.stack(logits))
        got = estimate_smoothness(traj, 2)
        assert abs(got.value - r) < 1e-9

    def test_movement_with_zero_prior_kl_is_infinite(self):
        z = np.zeros((4, 4))
        z[3, 0] = 1.0  # movement after a frozen pair
        traj = Trajectory.from_logits(z)
        got = estimate_smoothness(traj, 2)
        assert got.value == np.inf

    def test_empty_tail_raises(self):
        traj = traj_from_kl_series([0.1])
        with pytest.raises(EstimateUndefinedError):
            estimate_smoothness(traj, 2)


def test_row_norms_match_linalg_norm_bit_for_bit():
    """The smoothness estimate's batched row dot equals np.linalg.norm on
    each 1-D row exactly, including rows taken from a strided history."""
    rng = np.random.default_rng(17)
    for v in (1, 2, 3, 7, 16, 64, 255, 256, 1000):
        history = rng.normal(size=(12, 3, v)) * rng.choice([1e-9, 1.0, 1e6], size=(12, 3, 1))
        diff = history[1:, 1, :] - history[:-1, 1, :]
        want = np.array([np.linalg.norm(row) for row in diff])
        assert row_norms(diff).tobytes() == want.tobytes()


class TestTailGain:
    def test_algebra(self):
        assert tail_gain(2.0, 1.0, 0.25) == pytest.approx(4.0)

    def test_zero_contraction(self):
        assert tail_gain(2.0, 3.0, 0.0) == pytest.approx(6.0)

    def test_pole_rejected(self):
        with pytest.raises(InvalidInputError):
            tail_gain(2.0, 1.0, 1.0)

    def test_monotone_in_each_argument(self):
        base = tail_gain(2.0, 1.0, 0.25)
        assert tail_gain(2.1, 1.0, 0.25) > base
        assert tail_gain(2.0, 1.1, 0.25) > base
        assert tail_gain(2.0, 1.0, 0.30) > base


class TestCheckLockBound:
    def test_frozen_tail_holds_trivially(self):
        z = np.tile(np.array([1.0, 0.5, 0.0, -1.0]), (6, 1))
        rep = check_lock_bound(Trajectory.from_logits(z), 1e-3)
        assert rep.status == "ok" and rep.holds
        assert rep.lhs == 0.0

    def test_no_lock_when_threshold_unreachable(self):
        traj = traj_from_kl_series([0.5, 0.4, 0.3])
        rep = check_lock_bound(traj, 1e-9)
        assert rep.status == "no_lock"

    def test_no_lock_report_carries_the_callers_lipschitz_constant(self):
        traj = traj_from_kl_series([0.5, 0.4, 0.3])
        assert check_lock_bound(traj, -1.0, log_softmax_lip=3.0).log_softmax_lip == 3.0

    def test_infinite_epsilon_locks_at_step_two(self):
        for seed in range(10):
            traj = simulate_trajectory(seed, 8, 12, 0.5, 0.3)
            rep = check_lock_bound(traj, float("inf"))
            assert rep.lock_step == 2

    def test_growing_tail_is_inapplicable(self):
        traj = traj_from_kl_series([0.1, 0.2, 0.4])
        rep = check_lock_bound(traj, float("inf"))
        assert rep.status == "inapplicable"
        assert rep.contraction >= 1.0

    def test_synthetic_battery_small(self):
        for i in range(60):
            rho = (0.3, 0.6, 0.9)[i % 3]
            vocab = (8, 64)[i % 2]
            traj = simulate_trajectory(500 + i, vocab, battery_steps(rho), rho, 0.25)
            rep = check_lock_bound(traj, float("inf"))
            assert rep.status == "ok"
            assert rep.holds, (rho, vocab, rep)

    def test_lock_step_non_increasing_in_epsilon(self):
        """A looser threshold never locks later on a frozen trajectory."""
        for seed in range(12):
            traj = simulate_trajectory(seed, 16, 14, 0.55, 0.4)
            eps_grid = [1e-8, 1e-6, 1e-4, 1e-2, float("inf")]
            steps = []
            for eps in eps_grid:
                rep = check_lock_bound(traj, eps)
                steps.append(rep.lock_step if rep.status != "no_lock" else traj.n_steps + 1)
            assert all(b <= a for a, b in zip(steps, steps[1:]))

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            check_lock_bound(Trajectory.from_logits(np.zeros((2, 4))), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        z = np.zeros((5, 4))
        z[3, 1] = bad
        with pytest.raises(InvalidInputError):
            Trajectory.from_logits(z)

    def test_growth_step_names_first_growing_tail_step(self):
        traj = traj_from_kl_series([0.4, 0.1, 0.2, 0.05])
        rep = check_lock_bound(traj, float("inf"))
        assert rep.status == "inapplicable" and rep.lock_step == 2
        assert rep.growth_step == 4  # KL 0.1 -> 0.2
        assert rep.to_dict()["growth_step"] == 4
        assert check_lock_bound(traj_from_kl_series([0.4, 0.1, 0.05]), float("inf")).growth_step is None


class TestSimulateTrajectory:
    def test_deterministic(self):
        a = simulate_trajectory(3, 8, 10, 0.5, 0.25)
        b = simulate_trajectory(3, 8, 10, 0.5, 0.25)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_logit_steps_decay_at_sqrt_target(self):
        traj = simulate_trajectory(4, 16, 12, 0.49, 0.5)
        norms = np.linalg.norm(np.diff(traj.logits, axis=0), axis=1)
        ratios = norms[1:] / norms[:-1]
        np.testing.assert_allclose(ratios, math.sqrt(0.49), rtol=1e-9)

    def test_measured_contraction_matches_golden_file(self):
        """Frozen calibration values; ratios of deep-tail KLs are sensitive
        to summation order, so the golden file is pinned to the numpy path."""
        rows = json.loads((DATA / "contraction_calibration.json").read_text())
        for row in rows:
            traj = simulate_trajectory(
                row["seed"], row["vocab_size"], row["steps"],
                row["contraction_target"], row["magnitude"],
            )
            rep = check_lock_bound(traj, float("inf"))
            assert rep.contraction == pytest.approx(row["measured_contraction"], abs=1e-12)
            assert rep.smoothness == pytest.approx(row["measured_smoothness"], abs=1e-12)
            assert 0.5 * row["contraction_target"] <= rep.contraction < 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            simulate_trajectory(0, 8, 3, 0.5, 0.1)
        with pytest.raises(InvalidInputError):
            simulate_trajectory(0, 8, 10, 1.0, 0.1)


@pytest.fixture(scope="module")
def small_model():
    cfg = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=32)
    return cfg, init_weights(cfg, 31)


class TestSamplerTraceBound:
    def test_no_lock_run_positions_satisfy_bound(self, small_model):
        """Sweep lock thresholds over real no-lock traces: wherever the
        measured tail contracts, the bound must hold; growing tails are
        reported inapplicable rather than silently passed."""
        cfg, w = small_model
        applicable = 0
        for seed in range(4):
            run = RunConfig(n_prompt=6, n_gen=10, steps=10, mode="baseline", seed=seed)
            res = run_sampler(run, w, random_prompt(cfg, 6, seed), record_trajectories=True)
            trajs = trajectories_from_history(res.history, res.history_valid)
            assert len(trajs) == 16
            for traj in trajs:
                finite = traj.step_kl[np.isfinite(traj.step_kl)]
                for q in (0.0, 0.25, 0.5, 0.75):
                    rep = check_lock_bound(traj, float(np.quantile(finite, q)))
                    if rep.status == "ok":
                        applicable += 1
                        assert rep.holds, rep
        assert applicable >= 20


class TestConstants:
    def test_identity_embedding_gain(self):
        gain, ok = embedding_gain(np.eye(2))
        assert ok
        assert abs(gain - math.sqrt(2.0)) < 1e-9

    def test_softmax_jacobian_sup_at_most_half(self):
        sup = softmax_jacobian_sup(samples=10_000, max_dim=12)
        assert sup <= 0.5 + 1e-6
        assert sup > 0.4  # the bound is approached, not vacuous

    def test_spectral_norms_against_svd(self, small_model):
        _, w = small_model
        report = lipschitz_constants(w, input_radius=1.0, samples=500)
        want = math.sqrt(2.0) * np.linalg.svd(w.embedding, compute_uv=False)[0]
        assert report.embedding_gain == pytest.approx(want, abs=1e-6)
        want_head = np.linalg.svd(w.head, compute_uv=False)[0]
        assert report.head_norm == pytest.approx(want_head, abs=1e-6)

    def test_block_and_network_composition(self, small_model):
        _, w = small_model
        rep = lipschitz_constants(w, input_radius=2.0, samples=1000)
        for entry in rep.per_layer:
            assert entry["block_gain"] == pytest.approx(
                1.0 + entry["ffn_gain"] * entry["attention_gain"] * entry["layernorm_gain"]
            )
        blk = max(e["block_gain"] for e in rep.per_layer)
        assert rep.block_gain == pytest.approx(blk)
        assert rep.network_gain == pytest.approx(rep.head_norm * blk ** w.config.n_layers)
        assert rep.overall_gain == pytest.approx(rep.network_gain * rep.embedding_gain)
        assert rep.smoothness_bound == pytest.approx(rep.overall_gain)  # tail share 0

    def test_tail_share_scales_smoothness(self, small_model):
        _, w = small_model
        a = lipschitz_constants(w, input_radius=1.0, samples=200)
        b = lipschitz_constants(w, input_radius=1.0, samples=200, tail_share=1.5)
        assert b.smoothness_bound == pytest.approx(2.5 * a.smoothness_bound)

    def test_invariant_under_vocab_permutation(self, small_model):
        cfg, w = small_model
        perm = np.random.default_rng(5).permutation(cfg.vocab_size)
        import copy

        w2 = copy.deepcopy(w)
        w2.embedding = w2.embedding[perm]
        a = lipschitz_constants(w, input_radius=1.0, samples=200)
        b = lipschitz_constants(w2, input_radius=1.0, samples=200)
        assert b.embedding_gain == pytest.approx(a.embedding_gain, abs=1e-8)
        assert b.overall_gain == pytest.approx(a.overall_gain, abs=1e-6)

    def test_radius_calibration_positive(self, small_model):
        cfg, w = small_model
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="baseline", seed=2)
        r = calibrate_input_radius(w, run, random_prompt(cfg, 4, 2))
        assert r > 0.0

    def test_rejects_bad_radius(self, small_model):
        _, w = small_model
        with pytest.raises(InvalidInputError):
            lipschitz_constants(w, input_radius=0.0)


class TestStepwiseKLCurve:
    def test_zero_weight_curve_is_zero_from_step_two(self, small_model):
        cfg, w = small_model
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="surelock", seed=4,
                        policy=LockPolicy(epsilon=1e-6))
        res = run_sampler(run, w.scaled(0.0), random_prompt(cfg, 4, 1))
        curve = stepwise_kl_curve(res.trace)
        assert curve[0][0] == 2
        assert all(v == 0.0 for _, v in curve)

    def test_baseline_curve_covers_steps_from_two(self, small_model):
        cfg, w = small_model
        run = RunConfig(n_prompt=4, n_gen=8, steps=8, mode="baseline", seed=4)
        res = run_sampler(run, w, random_prompt(cfg, 4, 1))
        curve = stepwise_kl_curve(res.trace)
        assert [t for t, _ in curve] == list(range(2, 9))
        assert all(np.isfinite(v) and v >= 0 for _, v in curve)


# ---------------------------------------------------------------------------
# step-at-a-time reference for the lock-bound check


def reference_estimate_contraction(traj, lock_step):
    """Loop reference for estimate_contraction."""
    ratios = []
    skipped = 0
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev, d_cur = traj.step_kl[s - 2], traj.step_kl[s - 1]
        if d_prev == 0.0:
            if d_cur == 0.0:
                skipped += 1
                continue
            ratios.append(np.inf)
        else:
            ratios.append(d_cur / d_prev)
    if not ratios:
        if skipped:
            return TailEstimate(0.0, 0, True)
        raise EstimateUndefinedError(f"no tail steps after lock step {lock_step}")
    return TailEstimate(float(max(ratios)), len(ratios), False)


def reference_estimate_smoothness(traj, lock_step):
    """Loop reference for estimate_smoothness."""
    ratios = []
    skipped = 0
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev = traj.step_kl[s - 2]
        dz = float(np.linalg.norm(traj.logits[s - 1] - traj.logits[s - 2]))
        if d_prev == 0.0:
            if dz == 0.0:
                skipped += 1
                continue
            ratios.append(np.inf)
        else:
            ratios.append(dz / math.sqrt(d_prev))
    if not ratios:
        if skipped:
            return TailEstimate(0.0, 0, True)
        raise EstimateUndefinedError(f"no tail steps after lock step {lock_step}")
    return TailEstimate(float(max(ratios)), len(ratios), False)


def reference_lock_step(traj, epsilon):
    for s in range(2, traj.n_steps + 1):
        if traj.step_kl[s - 1] <= epsilon:
            return s
    return None


REPORT_FIELDS = ("status", "lock_step", "lock_kl", "contraction", "smoothness",
                 "log_softmax_lip", "gain", "lhs", "rhs", "holds", "position", "source")


def reference_check_lock_bound(traj, epsilon, log_softmax_lip=LOG_SOFTMAX_LIPSCHITZ):
    """Loop reference for check_lock_bound (without ``growth_step``)."""
    where = {"log_softmax_lip": log_softmax_lip, "position": traj.position, "source": traj.source}
    lock_step = reference_lock_step(traj, epsilon)
    if lock_step is None:
        return BoundReport(status="no_lock", **where)
    lock_kl = float(traj.step_kl[lock_step - 1])
    lp = kernels.log_softmax_rows(traj.logits[[lock_step - 1, traj.n_steps - 1]])
    lhs = float(np.max(np.abs(lp[1] - lp[0])))
    if lock_step == traj.n_steps:
        return BoundReport(status="ok", lock_step=lock_step, lock_kl=lock_kl, contraction=0.0,
                           smoothness=0.0, gain=0.0, lhs=lhs, rhs=0.0, holds=True, **where)
    rho = reference_estimate_contraction(traj, lock_step)
    lsm = reference_estimate_smoothness(traj, lock_step)
    if not rho.value < 1.0:
        return BoundReport(status="inapplicable", lock_step=lock_step, lock_kl=lock_kl,
                           contraction=rho.value, smoothness=lsm.value, lhs=lhs, **where)
    gain = tail_gain(log_softmax_lip, lsm.value, rho.value) if np.isfinite(lsm.value) else np.inf
    rhs = gain * math.sqrt(lock_kl)
    return BoundReport(status="ok", lock_step=lock_step, lock_kl=lock_kl, contraction=rho.value,
                       smoothness=lsm.value, gain=gain, lhs=lhs, rhs=float(rhs),
                       holds=bool(lhs <= rhs + BOUND_SLACK), **where)


def reference_growth_step(traj, lock_step):
    """First tail step whose KL ratio to the step before is >= 1."""
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev, d_cur = traj.step_kl[s - 2], traj.step_kl[s - 1]
        if (d_cur / d_prev >= 1.0) if d_prev != 0.0 else d_cur != 0.0:
            return s
    return None


def report_fields(report):
    return {k: v for k, v in report.to_dict().items() if k in REPORT_FIELDS}


ROW_KINDS = ("fresh", "repeat", "nudge", "decay")


def build_logits(t, v, seed, kinds):
    """(t, v) logits whose later rows follow ``kinds``: a fresh draw, an exact
    repeat (zero KL and zero movement), a small nudge, or a step half the
    size of the one before (a contracting tail)."""
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=v)]
    for kind in kinds:
        prev = rows[-1]
        if kind == "fresh":
            rows.append(rng.normal(size=v))
        elif kind == "repeat":
            rows.append(prev.copy())
        elif kind == "nudge":
            rows.append(prev + 1e-3 * rng.normal(size=v))
        else:
            before = rows[-2] if len(rows) > 1 else prev - rng.normal(size=v)
            rows.append(prev + 0.5 * (prev - before))
    return np.stack(rows)


def epsilon_for(traj, which):
    if which == "zero":
        return 0.0
    if which == "inf":
        return float("inf")
    if which == "terminal":
        return float(traj.step_kl[-1])
    return float(np.quantile(traj.step_kl[1:], which))


@settings(max_examples=300, deadline=None)
@given(
    t=st.integers(3, 40), v=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
    head=st.lists(st.sampled_from(ROW_KINDS), max_size=39), tail=st.sampled_from(ROW_KINDS),
    n_positions=st.integers(1, 4), position=st.integers(0, 3),
    which=st.sampled_from(["zero", "inf", "terminal", 0.0, 0.25, 0.5, 0.75, 1.0]),
)
@example(t=5, v=4, seed=1, head=["fresh"] * 3, tail="repeat", n_positions=1, position=0,
         which="zero")  # lock at the terminal step
@example(t=6, v=3, seed=2, head=["fresh", "repeat", "repeat", "fresh"], tail="decay", n_positions=2,
         position=1, which="inf")  # skipped pairs, then zero -> positive KL
@example(t=8, v=5, seed=3, head=["fresh"], tail="decay", n_positions=3, position=2,
         which="inf")  # a contracting tail that certifies the bound
def test_check_lock_bound_matches_reference(t, v, seed, head, tail, n_positions, position, which):
    logits = build_logits(t, v, seed, (head + [tail] * t)[: t - 1])
    # trajectories come out of a run's history as strided (steps, N, V) views
    history = np.random.default_rng(seed ^ 1).normal(size=(t, n_positions, v))
    position %= n_positions
    history[:, position, :] = logits
    traj = Trajectory.from_logits(history[:, position, :], position=position, source="sampled")
    eps = epsilon_for(traj, which)
    want = reference_check_lock_bound(traj, eps)
    got = check_lock_bound(traj, eps)
    assert repr(report_fields(got)) == repr(report_fields(want))
    if got.status == "inapplicable":
        assert got.growth_step == reference_growth_step(traj, got.lock_step)
    else:
        assert got.growth_step is None
    for lock_step in range(2, t):
        assert repr(estimate_contraction(traj, lock_step)) == repr(reference_estimate_contraction(traj, lock_step))
        assert repr(estimate_smoothness(traj, lock_step)) == repr(reference_estimate_smoothness(traj, lock_step))
