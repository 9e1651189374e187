import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surelock import (
    ModelConfig,
    RunConfig,
    analysis,
    init_weights,
    kernels,
    model,
    run_sampler,
)
from surelock.analysis import (
    BOUND_SLACK,
    MAX_TRAJECTORY_LOGITS,
    SILU_DERIVATIVE_SUP,
    BoundReport,
    Trajectory,
    battery_steps,
    check_lock_bound,
    embedding_gain,
    estimate_smoothness,
    input_radius_bound,
    lipschitz_constants,
    simulate_trajectories,
    simulate_trajectory,
    synthetic_logits,
    tail_gain,
    trajectories_from_history,
    validate_synthetic,
)
from surelock.cli import random_prompt
from surelock.errors import ConfigError, InvalidInputError
from surelock.flops import GemmCounter
from surelock.kernels import LAYERNORM_EPS, LOG_SOFTMAX_LIPSCHITZ
from surelock.prng import normals

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


class TestReportedContraction:
    """The contraction ``check_lock_bound`` reports; at epsilon infinity the
    lock step is 2."""

    def test_hand_series(self):
        traj = traj_from_kl_series([0.4, 0.1, 0.025])
        # lock at first KL step: ratios 0.1/0.4 and 0.025/0.1
        got = check_lock_bound(traj, np.inf).contraction
        assert abs(got - 0.25) < 1e-6

    def test_constant_tail_is_one(self):
        traj = traj_from_kl_series([0.2, 0.2, 0.2])
        got = check_lock_bound(traj, np.inf).contraction
        assert abs(got - 1.0) < 1e-6

    def test_frozen_tail_is_degenerate_zero(self):
        z = np.zeros((5, 4))
        traj = Trajectory.from_logits(z)
        assert check_lock_bound(traj, np.inf).contraction == 0.0

    def test_zero_to_positive_is_infinite(self):
        traj = traj_from_kl_series([0.1, 0.0, 0.05])
        assert check_lock_bound(traj, np.inf).contraction == np.inf


class TestEstimateSmoothness:
    def test_frozen_trajectory_zero(self):
        traj = Trajectory.from_logits(np.ones((6, 4)))
        assert estimate_smoothness(traj, 2) == 0.0

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
        assert abs(got - r) < 1e-9

    def test_movement_with_zero_prior_kl_is_infinite(self):
        z = np.zeros((4, 4))
        z[3, 0] = 1.0  # movement after a frozen pair
        traj = Trajectory.from_logits(z)
        got = estimate_smoothness(traj, 2)
        assert got == np.inf

    def test_empty_tail_raises(self):
        traj = traj_from_kl_series([0.1])
        with pytest.raises(InvalidInputError, match="no tail steps after lock step 2"):
            estimate_smoothness(traj, 2)


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

    def test_infinite_gain_gives_infinite_rhs(self):
        """A zero lock-time KL followed by logit movement makes the gain
        infinite; the right-hand side is then infinity, never inf * 0 = NaN."""
        rep = check_lock_bound(simulate_trajectory(3, 8, 24, 0.9, 1e4), float("inf"))
        assert (rep.status, rep.lock_kl, rep.smoothness, rep.gain) == ("ok", 0.0, np.inf, np.inf)
        assert rep.rhs == np.inf and rep.holds

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

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected_in_short_batches(self, bad, t):
        """A batch refuses a non-finite logit at every length, one step
        included, and names the position it belongs to."""
        z = np.zeros((3, t, 4))
        z[1, t - 1, 2] = bad
        with pytest.raises(InvalidInputError, match="position 7"):
            Trajectory.from_logit_batch(z, positions=[5, 7, 9])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(InvalidInputError, match="empty vocabulary"):
            Trajectory.from_logits(np.zeros((3, 0)))
        with pytest.raises(InvalidInputError, match="empty vocabulary"):
            Trajectory.from_logit_batch(np.zeros((2, 3, 0)))

    def test_growth_step_names_first_growing_tail_step(self):
        traj = traj_from_kl_series([0.4, 0.1, 0.2, 0.05])
        rep = check_lock_bound(traj, float("inf"))
        assert rep.status == "inapplicable" and rep.lock_step == 2
        assert rep.growth_step == 4  # KL 0.1 -> 0.2
        assert rep.to_dict()["growth_step"] == 4
        assert check_lock_bound(traj_from_kl_series([0.4, 0.1, 0.05]), float("inf")).growth_step is None


class TestSimulateTrajectory:
    def test_deterministic(self):
        a = synthetic_logits([3], 8, 10, 0.5, 0.25)[0]
        b = synthetic_logits([3], 8, 10, 0.5, 0.25)[0]
        np.testing.assert_array_equal(a, b)

    def test_logit_steps_decay_at_sqrt_target(self):
        z = synthetic_logits([4], 16, 12, 0.49, 0.5)[0]
        norms = np.linalg.norm(np.diff(z, axis=0), axis=1)
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

    @settings(max_examples=30, deadline=None)
    @given(seeds=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6), vocab=st.integers(1, 300),
           steps=st.integers(4, 20), rho=st.floats(0.05, 0.95), magnitude=st.sampled_from([0.01, 0.25, 1e4]))
    def test_batch_equals_batches_of_one(self, seeds, vocab, steps, rho, magnitude):
        """A batch draws, normalises and scores each seed's trajectory bit for
        bit as a batch of one does, from the masked seed's two streams."""
        draws = normals(seeds, vocab)
        for row, seed in zip(draws, seeds):
            np.testing.assert_array_equal(row, normals(seed % 2**64, vocab))
        stack = synthetic_logits(seeds, vocab, steps, rho, magnitude)
        for seed, z, traj in zip(seeds, stack, simulate_trajectories(seeds, vocab, steps, rho, magnitude)):
            one = simulate_trajectory(seed, vocab, steps, rho, magnitude)
            one_z = synthetic_logits([seed], vocab, steps, rho, magnitude)[0]
            np.testing.assert_array_equal(z, one_z)
            np.testing.assert_array_equal(traj.step_kl, one.step_kl)
            stacked = Trajectory.from_logit_batch(np.stack([one_z, z]))[1]
            np.testing.assert_array_equal(stacked.step_kl, one.step_kl)

    def test_trajectory_cap_is_checked_before_drawing(self):
        validate_synthetic(MAX_TRAJECTORY_LOGITS // 4, 4, 0.5, 0.1)
        for vocab, steps in ((MAX_TRAJECTORY_LOGITS // 4 + 1, 4), (0, 10), (-4, 10), (8, 10**23)):
            with pytest.raises(InvalidInputError):
                simulate_trajectories([0], vocab, steps, 0.5, 0.1)
        for magnitude in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^magnitude must be a finite number, got {magnitude}$"):
                simulate_trajectories([0], 8, 10, 0.5, magnitude)


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

    def test_trajectories_are_contiguous_views_of_the_history(self, small_model):
        """The trajectories of the replayed history are those of its dense
        (steps, N, V) array, and no per-step array of a trajectory is a view
        of the history's stored head inputs or final posterior."""
        cfg, w = small_model
        run = RunConfig(n_prompt=6, n_gen=10, steps=10, mode="baseline", seed=0)
        res = run_sampler(run, w, random_prompt(cfg, 6, 0), record_trajectories=True)
        dense = np.asarray(res.history)
        stored = [res.history.final, *(x for _, x in res.history.steps)]
        trajs = trajectories_from_history(res.history, res.history_valid)
        for traj, want in zip(trajs, trajectories_from_history(dense, res.history_valid), strict=True):
            for name in ("step_kl", "step_move", "terminal_gap"):
                assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
                assert not any(np.shares_memory(getattr(traj, name), a) for a in stored), name

    def test_trajectories_do_not_keep_their_source_alive(self, small_model, monkeypatch):
        """Once a run's result is dropped, its history is freed although its
        trajectories live on; the same holds for the logit stack a synthetic
        batch is built from."""
        cfg, w = small_model
        run = RunConfig(n_prompt=6, n_gen=10, steps=10, mode="baseline", seed=0)
        res = run_sampler(run, w, random_prompt(cfg, 6, 0), record_trajectories=True)
        history, head_input = weakref.ref(res.history), weakref.ref(res.history.steps[0][1])
        trajs = trajectories_from_history(res.history, res.history_valid)
        del res
        gc.collect()
        assert history() is None and head_input() is None and len(trajs) == 16
        stacks = []

        def recorded(*args):
            stack = synthetic_logits(*args)
            stacks.append(weakref.ref(stack))
            return stack

        monkeypatch.setattr(analysis, "synthetic_logits", recorded)
        batch = simulate_trajectories(range(4), 16, 10, 0.5, 0.25)
        gc.collect()
        assert len(stacks) == 1 and stacks[0]() is None and len(batch) == 4

    def test_reports_equal_on_contiguous_and_strided_trajectories(self, small_model):
        """The same trajectories, read as contiguous blocks (the history's
        layout) or as strided views of a step-major copy, give repr-equal
        reports in every status, terminal-step locks included."""
        cfg, w = small_model
        run = RunConfig(n_prompt=6, n_gen=10, steps=10, mode="baseline", seed=1)
        res = run_sampler(run, w, random_prompt(cfg, 6, 1), record_trajectories=True)
        synthetic = [synthetic_logits([i], 16, 10, rho, 0.25)[0] for i, rho in enumerate((0.3, 0.6, 0.9))]
        history = np.concatenate([res.history, np.stack(synthetic, axis=1)], axis=1)
        step_major = np.ascontiguousarray(history)
        position_major = np.ascontiguousarray(history.transpose(1, 0, 2))
        seen = set()
        for i in range(history.shape[1]):
            assert position_major[i].flags.c_contiguous and not step_major[:, i].flags.c_contiguous
            fast = Trajectory.from_logits(position_major[i], position=i)
            slow = Trajectory.from_logits(step_major[:, i], position=i)
            np.testing.assert_array_equal(fast.step_kl, slow.step_kl)
            for eps in (-1.0, math.inf, 1e-2, 1e-4, float(fast.step_kl[-1])):
                got = check_lock_bound(fast, eps)
                assert repr(got.to_dict()) == repr(check_lock_bound(slow, eps).to_dict())
                seen.add("terminal" if got.lock_step == fast.n_steps else got.status)
        assert seen == {"no_lock", "inapplicable", "ok", "terminal"}


class TestConstants:
    def test_identity_embedding_gain(self):
        gain = embedding_gain(np.eye(2))
        assert abs(gain - math.sqrt(2.0)) < 1e-9

    def test_silu_derivative_sup_bounds_the_derivative(self):
        """SiLU' = s(z) (1 + z (1 - s(z))) peaks at about 1.09984 near z = 2.3994,
        below the constant the FFN bound uses."""
        z = np.linspace(-50.0, 50.0, 1_000_001)
        s = 1.0 / (1.0 + np.exp(-z))
        deriv = s * (1.0 + z * (1.0 - s))
        assert 1.0998 < deriv.max() <= SILU_DERIVATIVE_SUP
        assert abs(z[deriv.argmax()] - 2.3994) < 1e-3

    @pytest.mark.parametrize("power", [-1000, 0, 1000])
    def test_max_column_norm_scales_exactly(self, rng, power):
        """The largest column norm of a matrix scaled by 2**power is the
        unscaled one times 2**power, bit for bit, also where the squares
        underflow (-1000) or overflow (1000); unscaled it is NumPy's."""
        mat = rng.normal(size=(7, 5))
        want = analysis._max_column_norm(mat)
        assert want == pytest.approx(np.linalg.norm(mat, axis=0).max(), rel=1e-15)
        assert analysis._max_column_norm(mat * 2.0**power) == want * 2.0**power
        assert analysis._max_column_norm(np.zeros((3, 2))) == 0.0

    def test_spectral_norms_against_svd(self, small_model):
        _, w = small_model
        report = lipschitz_constants(w, input_radius=1.0)
        want = math.sqrt(2.0) * np.linalg.svd(w.embedding, compute_uv=False)[0]
        assert report.embedding_gain == want
        want_head = np.linalg.svd(w.head, compute_uv=False)[0]
        assert report.head_norm == want_head

    def test_block_and_network_composition(self, small_model):
        """Each sublayer adds a residual, so a layer's gain is the product of
        one (1 + sublayer * layer norm) factor per sublayer."""
        _, w = small_model
        rep = lipschitz_constants(w, input_radius=2.0)
        for entry in rep.per_layer:
            ln = entry["layernorm_gain"]
            hand = (1.0 + entry["attention_gain"] * ln) * (1.0 + entry["ffn_gain"] * ln)
            assert abs(entry["block_gain"] - hand) <= 1e-12
        blk = max(e["block_gain"] for e in rep.per_layer)
        assert rep.block_gain == pytest.approx(blk)
        assert rep.network_gain == pytest.approx(rep.head_norm * blk ** w.config.n_layers)
        assert rep.overall_gain == pytest.approx(rep.network_gain * rep.embedding_gain)

    @settings(max_examples=200, deadline=None)
    @given(heads=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2)]), head_dim=st.integers(1, 6),
           d_ff=st.integers(1, 24), n=st.integers(1, 8), scale=st.floats(1.0, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_block_gain_covers_measured_block_ratio(self, heads, head_dim, d_ff, n, scale, seed):
        """Layer 0 applied to n rows, and to the same rows perturbed, moves
        them by at most ``block_gain`` times the perturbation, for steps
        from 1e-6 to 1, at widths from 1 and on constant,
        near-constant and spread-out rows. Each sublayer reads a layer norm's
        output, which lies in the report's input radius, so rows of any size
        are covered; the residual-free composition ``1 + ffn * mha * ln``
        fails this."""
        n_heads, n_kv = heads
        cfg = ModelConfig(vocab_size=5, d_model=n_heads * head_dim, n_layers=1, n_heads=n_heads,
                          n_kv_heads=n_kv, d_ff=d_ff, max_seq=8)
        w = init_weights(cfg, seed).scaled(scale)
        rep = lipschitz_constants(w, input_radius_bound(w), seq_len=n)
        gain = rep.per_layer[0]["block_gain"]
        rng = np.random.default_rng(seed)

        def block(x):
            layer, dh = w.layers[0], cfg.head_dim
            hid = kernels.layernorm_rows(x, layer.ln1_gain, layer.ln1_bias)
            q, k, v = ((hid @ m).reshape(n, -1, dh) for m in (layer.wq, layer.wk, layer.wv))
            x = x + kernels.attention_rows(q, k, v, 1.0 / math.sqrt(dh), cfg.group_size).reshape(n, -1) @ layer.wo
            return x + model.feed_forward(layer, kernels.layernorm_rows(x, layer.ln2_gain, layer.ln2_bias),
                                          GemmCounter())

        for spread in (0.0, 1e-6, 1e-3, 1.0):
            x = rng.normal(size=(n, 1)) + spread * rng.normal(size=(n, cfg.d_model))
            for step in (1e-6, 1e-3, 1e-1, 1.0):
                y = x + step * rng.normal(size=x.shape)
                ratio = np.linalg.norm(block(y) - block(x)) / np.linalg.norm(y - x)
                assert ratio <= gain * (1.0 + 1e-9), (ratio, rep.per_layer[0])

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 16), scale=st.floats(1.0, 8.0), spread=st.sampled_from([0.0, 1e-9, 1e-4, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_layernorm_gain_bounds_measured_ratio(self, d, scale, spread, seed):
        """Rows of any width, constant (spread 0) to spread out, and the same
        rows moved by 1e-6 to unit steps: neither layer norm moves a row by
        more than ``layernorm_gain`` times its movement. Near zero variance
        and with small steps the ratio comes close to the bound."""
        cfg = ModelConfig(vocab_size=4, d_model=d, n_layers=1, n_heads=1, d_ff=2, max_seq=2)
        w = init_weights(cfg, seed).scaled(scale)
        layer = w.layers[0]
        gain = lipschitz_constants(w, input_radius=1.0).per_layer[0]["layernorm_gain"]
        assert gain == max(np.abs(layer.ln1_gain).max(), np.abs(layer.ln2_gain).max()) / math.sqrt(LAYERNORM_EPS)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 1)) + spread * rng.normal(size=(8, d))
        for step in (1e-6, 1e-4, 1e-2, 1.0):
            y = x + step * rng.normal(size=x.shape)
            for ln_gain, ln_bias in ((layer.ln1_gain, layer.ln1_bias), (layer.ln2_gain, layer.ln2_bias)):
                moved = kernels.layernorm_rows(y, ln_gain, ln_bias) - kernels.layernorm_rows(x, ln_gain, ln_bias)
                ratio = np.linalg.norm(moved, axis=1) / np.linalg.norm(y - x, axis=1)
                # 1e-8 covers centring rows near an offset of a few units, moved by 1e-6
                assert ratio.max() <= gain * (1.0 + 1e-8), (ratio.max(), gain)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 16), d_ff=st.integers(1, 24), scale=st.floats(1.0, 8.0),
           radius=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
    def test_ffn_gain_bounds_measured_ratio_in_the_ball(self, d, d_ff, scale, radius, seed):
        """Pairs of rows inside the ball, from round-off-sized to
        radius-sized apart: the model's own FFN moves a row by at most
        ``ffn_gain`` times its movement."""
        cfg = ModelConfig(vocab_size=4, d_model=d, n_layers=1, n_heads=1, d_ff=d_ff, max_seq=2)
        w = init_weights(cfg, seed).scaled(scale)
        gain = lipschitz_constants(w, input_radius=radius).per_layer[0]["ffn_gain"]
        rng = np.random.default_rng(seed)

        def in_ball(x):
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            return np.where(norms > radius, x / norms * radius, x)

        def ffn(x):
            return model.feed_forward(w.layers[0], x, GemmCounter())

        z = rng.normal(size=(16, d))
        x = z / np.linalg.norm(z, axis=1, keepdims=True) * radius * rng.uniform(size=(16, 1)) ** (1 / d)
        for step in (1e-6, 1e-3, 1e-1, 1.0):
            y = in_ball(x + step * radius * rng.normal(size=x.shape))
            ratio = np.linalg.norm(ffn(y) - ffn(x), axis=1) / np.linalg.norm(y - x, axis=1)
            assert ratio.max() <= gain * (1.0 + 1e-9), (ratio.max(), gain)

    @pytest.mark.parametrize("n_heads", [2, 4])
    def test_attention_gain_bounds_concatenated_heads(self, n_heads):
        """H identical heads with Wq = 0 attend uniformly, so each outputs the
        row mean through its Wv_h, a linear map of gain g = ||Wv_h||. With
        Wo = I and every row moved along Wv_h's top singular direction, the
        concatenated heads move sqrt(H) * g per unit of input movement: more
        than the largest head alone, ||Wo|| * max_h g_h, and at most the
        reported root sum of squares (each norm is exact, up to the
        round-off of the composition)."""
        dh, n = 3, 5
        cfg = ModelConfig(vocab_size=5, d_model=n_heads * dh, n_layers=1, n_heads=n_heads, d_ff=4, max_seq=8)
        w = init_weights(cfg, 7)
        layer = w.layers[0]
        layer.wq = np.zeros_like(layer.wq)
        layer.wo = np.eye(cfg.d_model)
        layer.wk = np.tile(layer.wk[:, :dh], n_heads)
        layer.wv = np.tile(layer.wv[:, :dh], n_heads)
        u, sv, _ = np.linalg.svd(layer.wv[:, :dh])
        g = sv[0]

        def mha(x):
            q, k, v = ((x @ m).reshape(n, -1, dh) for m in (layer.wq, layer.wk, layer.wv))
            return kernels.attention_rows(q, k, v, 1.0 / math.sqrt(dh), cfg.group_size).reshape(n, -1) @ layer.wo

        x = np.random.default_rng(3).normal(size=(n, cfg.d_model))
        y = x + 0.1 * u[:, 0]
        ratio = np.linalg.norm(mha(y) - mha(x)) / np.linalg.norm(y - x)
        assert ratio == pytest.approx(math.sqrt(n_heads) * g, rel=1e-9)
        rep = lipschitz_constants(w, input_radius=1.0, seq_len=n)
        largest_head = np.linalg.norm(layer.wo, 2) * g
        assert largest_head * 1.01 < ratio <= rep.per_layer[0]["attention_gain"] * (1.0 + 1e-9)
        assert rep.per_layer[0]["attention_gain"] == pytest.approx(math.sqrt(n_heads) * g, rel=1e-9)

    def test_invariant_under_vocab_permutation(self, small_model):
        cfg, w = small_model
        perm = np.random.default_rng(5).permutation(cfg.vocab_size)
        import copy

        w2 = copy.deepcopy(w)
        w2.embedding = w2.embedding[perm]
        a = lipschitz_constants(w, input_radius=1.0)
        b = lipschitz_constants(w2, input_radius=1.0)
        assert b.embedding_gain == pytest.approx(a.embedding_gain, abs=1e-8)
        assert b.overall_gain == pytest.approx(a.overall_gain, abs=1e-6)

    def test_radius_bound_is_positive_and_closed_form(self, small_model):
        cfg, w = small_model
        want = max(
            math.sqrt(cfg.d_model) * np.max(np.abs(gain)) + np.linalg.norm(bias)
            for layer in w.layers
            for gain, bias in ((layer.ln1_gain, layer.ln1_bias), (layer.ln2_gain, layer.ln2_bias))
        )
        assert input_radius_bound(w) == want > 0.0

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 64), rows=st.integers(1, 16), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           offset=st.sampled_from([0.0, -5.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_layernorm_output_within_radius_bound(self, d, rows, scale, offset, seed):
        """No row any layer norm outputs is longer than the bound; the
        tolerance covers only the round-off of the row norm."""
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(vocab_size=4, d_model=d, n_layers=2, n_heads=1, d_ff=2, max_seq=2)
        w = init_weights(cfg, seed)
        for layer in w.layers:
            layer.ln1_gain = rng.normal(scale=rng.uniform(0.01, 3.0), size=d)
            layer.ln2_bias = rng.normal(scale=rng.uniform(0.01, 3.0), size=d)
        bound = input_radius_bound(w)
        x = offset + scale * rng.normal(size=(rows, d))
        for layer in w.layers:
            for gain, bias in ((layer.ln1_gain, layer.ln1_bias), (layer.ln2_gain, layer.ln2_bias)):
                norms = np.linalg.norm(kernels.layernorm_rows(x, gain, bias), axis=1)
                assert np.all(norms <= bound * (1.0 + 1e-12))

    def test_rejects_bad_radius(self, small_model):
        _, w = small_model
        with pytest.raises(InvalidInputError):
            lipschitz_constants(w, input_radius=0.0)

    def test_a_zero_matrix_gives_a_zero_gain(self, small_model):
        """A gain that multiplies a zero matrix is exactly 0.0, not an
        underflow, so the report keeps it."""
        _, w = small_model
        w = w.scaled(1.0)  # a copy
        w.layers[0].wo = np.zeros_like(w.layers[0].wo)
        w.layers[1].w_gate = np.zeros_like(w.layers[1].w_gate)
        rep = lipschitz_constants(w, input_radius=1.0)
        assert rep.per_layer[0]["attention_gain"] == rep.per_layer[1]["ffn_gain"] == 0.0
        assert rep.attention_gain > 0.0 and rep.ffn_gain > 0.0


# ---------------------------------------------------------------------------
# step-at-a-time reference for the lock-bound check


def reference_contraction(traj, lock_step):
    """Loop reference for the contraction ``check_lock_bound`` reports."""
    ratios = []
    skipped = 0
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev, d_cur = float(traj.step_kl[s - 2]), float(traj.step_kl[s - 1])  # a quotient's overflow is inf, unwarned
        if d_prev == 0.0:
            if d_cur == 0.0:
                skipped += 1
                continue
            ratios.append(np.inf)
        else:
            ratios.append(d_cur / d_prev)
    if not ratios:
        if skipped:
            return 0.0
        raise InvalidInputError(f"no tail steps after lock step {lock_step}")
    return float(max(ratios))


def reference_estimate_smoothness(traj, logits, lock_step):
    """Loop reference for estimate_smoothness; ``logits`` are the (T, V)
    rows ``traj`` was built from."""
    ratios = []
    skipped = 0
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev = traj.step_kl[s - 2]
        dz = float(np.linalg.norm(logits[s - 1] - logits[s - 2]))
        if d_prev == 0.0:
            if dz == 0.0:
                skipped += 1
                continue
            ratios.append(np.inf)
        else:
            ratios.append(dz / math.sqrt(d_prev))
    if not ratios:
        if skipped:
            return 0.0
        raise InvalidInputError(f"no tail steps after lock step {lock_step}")
    return float(max(ratios))


def reference_lock_step(traj, epsilon):
    for s in range(2, traj.n_steps + 1):
        if traj.step_kl[s - 1] <= epsilon:
            return s
    return None


REPORT_FIELDS = ("status", "lock_step", "lock_kl", "contraction", "smoothness",
                 "log_softmax_lip", "gain", "lhs", "rhs", "holds", "position", "source")


def reference_check_lock_bound(traj, logits, epsilon):
    """Loop reference for check_lock_bound (without ``growth_step``) on the
    trajectory built from the (T, V) ``logits``."""
    where = {"position": traj.position, "source": traj.source}
    lock_step = reference_lock_step(traj, epsilon)
    if lock_step is None:
        return BoundReport(status="no_lock", **where)
    lock_kl = float(traj.step_kl[lock_step - 1])
    lp = kernels.log_softmax_rows(logits[[lock_step - 1, traj.n_steps - 1]])
    lhs = float(np.max(np.abs(lp[1] - lp[0])))
    if lock_step == traj.n_steps:
        return BoundReport(status="ok", lock_step=lock_step, lock_kl=lock_kl, contraction=0.0,
                           smoothness=0.0, gain=0.0, lhs=lhs, rhs=0.0, holds=True, **where)
    rho = reference_contraction(traj, lock_step)
    lsm = reference_estimate_smoothness(traj, logits, lock_step)
    if not rho < 1.0:
        return BoundReport(status="inapplicable", lock_step=lock_step, lock_kl=lock_kl,
                           contraction=rho, smoothness=lsm, lhs=lhs, **where)
    gain = tail_gain(LOG_SOFTMAX_LIPSCHITZ, lsm, rho) if np.isfinite(lsm) else np.inf
    rhs = gain * math.sqrt(lock_kl) if np.isfinite(gain) else np.inf
    return BoundReport(status="ok", lock_step=lock_step, lock_kl=lock_kl, contraction=rho,
                       smoothness=lsm, gain=gain, lhs=lhs, rhs=float(rhs),
                       holds=bool(lhs <= rhs + BOUND_SLACK), **where)


def reference_growth_step(traj, lock_step):
    """First tail step whose KL ratio to the step before is >= 1."""
    for s in range(lock_step + 1, traj.n_steps + 1):
        d_prev, d_cur = float(traj.step_kl[s - 2]), float(traj.step_kl[s - 1])  # a quotient's overflow is inf, unwarned
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
    z = history[:, position, :]
    traj = Trajectory.from_logits(z, position=position, source="sampled")
    eps = epsilon_for(traj, which)
    want = reference_check_lock_bound(traj, z, eps)
    got = check_lock_bound(traj, eps)
    assert repr(report_fields(got)) == repr(report_fields(want))
    if got.status == "inapplicable":
        assert got.growth_step == reference_growth_step(traj, got.lock_step)
    else:
        assert got.growth_step is None
    for lock_step in range(2, t):
        # the trajectory from step lock_step - 1 on locks at its own step 2 at
        # epsilon infinity and has the same tail KLs
        tail = Trajectory.from_logits(z[lock_step - 2 :])
        contraction = check_lock_bound(tail, np.inf).contraction
        assert repr(contraction) == repr(reference_contraction(traj, lock_step))
        assert repr(estimate_smoothness(traj, lock_step)) == repr(reference_estimate_smoothness(traj, z, lock_step))


# ---------------------------------------------------------------------------
# the per-step arrays a trajectory carries for the lock-bound check


def assert_per_step_facts(traj, z):
    """For ``traj`` built from the (T, V) logits ``z``: ``step_move`` is
    np.linalg.norm of each step's logit difference and ``terminal_gap`` the
    two-row log-softmax gap a check would compute, both bit for bit; the
    trajectory equals its own batch of one; and its checks are
    repr-identical to the loop reference at epsilon -1, infinity and every
    finite step KL."""
    t = traj.n_steps
    move = np.array([np.inf] + [np.linalg.norm(z[s] - z[s - 1]) for s in range(1, t)])
    assert traj.step_move.tobytes() == move.tobytes()
    gap = []
    for s in range(t):
        lp = kernels.log_softmax_rows(z[[s, t - 1]])
        gap.append(np.max(np.abs(lp[1] - lp[0])))
    assert traj.terminal_gap.tobytes() == np.array(gap).tobytes()
    one = Trajectory.from_logits(np.array(z), position=traj.position, source=traj.source)
    for name in ("step_kl", "step_move", "terminal_gap"):
        assert getattr(traj, name).tobytes() == getattr(one, name).tobytes(), name
    if t < 3:
        return
    for eps in (-1.0, math.inf, *traj.step_kl[np.isfinite(traj.step_kl)].tolist()):
        got = check_lock_bound(traj, eps)
        assert repr(report_fields(got)) == repr(report_fields(reference_check_lock_bound(traj, z, eps)))
        if got.status == "inapplicable":
            assert got.growth_step == reference_growth_step(traj, got.lock_step)


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 4), t=st.integers(1, 12), v=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=11, max_size=11),
       magnitude=st.sampled_from([1.0, 1e4, 1e150]))
@example(b=2, t=6, v=5, seed=0, kinds=["repeat"] * 11, magnitude=1.0)  # no movement at all
@example(b=3, t=12, v=17, seed=1, kinds=["decay"] * 11, magnitude=1e150)  # large logits, contracting tail
@example(b=1, t=8, v=8, seed=81, kinds=["fresh"] * 11, magnitude=1e4)  # a step-KL quotient overflows to inf
def test_per_step_arrays_of_a_batch(b, t, v, seed, kinds, magnitude):
    """Random (B, T, V) stacks with fresh, repeated (zero-movement), nudged
    and decaying rows at small and large magnitudes, each slab built as one
    batch; the last slab repeats the first, so a batch holds equal rows."""
    slabs = [magnitude * build_logits(t, v, seed + i, kinds[: t - 1]) for i in range(b)]
    slabs[-1] = slabs[0]
    trajs = Trajectory.from_logit_batch(np.stack(slabs), positions=list(range(b)))
    for traj, z in zip(trajs, slabs):
        assert_per_step_facts(traj, z)


@settings(max_examples=20, deadline=None)
@given(heads=st.sampled_from([(2, 2), (4, 4), (2, 1), (4, 2)]), n_gen=st.integers(2, 8),
       steps=st.integers(3, 8), scale=st.sampled_from([1.0, 4.0]), seed=st.integers(0, 2**32 - 1))
def test_per_step_arrays_of_sampled_histories(heads, n_gen, steps, scale, seed):
    """Trajectories of recorded MHA and GQA baseline runs, one position at a
    time as ``trajectories_from_history`` builds them and all positions as
    one batch, carry the same per-step arrays."""
    n_heads, n_kv = heads
    cfg = ModelConfig(vocab_size=12, d_model=4 * n_heads, n_layers=2, n_heads=n_heads, n_kv_heads=n_kv,
                      d_ff=16, max_seq=16)
    w = init_weights(cfg, seed).scaled(scale)
    run = RunConfig(n_prompt=3, n_gen=n_gen, steps=min(steps, n_gen), mode="baseline", seed=seed % 1000)
    res = run_sampler(run, w, random_prompt(cfg, 3, seed % 1000), record_trajectories=True)
    trajs = trajectories_from_history(res.history, res.history_valid)
    dense = np.asarray(res.history)
    batch = Trajectory.from_logit_batch(dense.transpose(1, 0, 2))
    assert len(trajs) == len(batch) == 3 + n_gen
    for traj, whole in zip(trajs, batch):
        assert_per_step_facts(traj, dense[:, traj.position])
        for name in ("step_kl", "step_move", "terminal_gap"):
            assert getattr(traj, name).tobytes() == getattr(whole, name).tobytes(), name


def test_per_step_arrays_must_cover_every_step():
    traj = Trajectory.from_logits(np.zeros((4, 3)))
    arrays = {name: getattr(traj, name) for name in ("step_kl", "step_move", "terminal_gap")}
    for name, full in arrays.items():
        with pytest.raises(InvalidInputError):
            Trajectory(**{**arrays, name: full[:-1]})
        with pytest.raises(InvalidInputError):
            Trajectory(**{**arrays, name: full[:, None]})
