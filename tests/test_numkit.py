import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surelock.errors import InvalidInputError, InvalidStateError
from surelock.kernels import (
    kl_from_log_probs_rows,
    log_softmax_rows,
    percentile_nearest_rank,
    spectral_norm,
)


def direct_log_softmax(z):
    """Independent oracle: direct summation at extended precision."""
    z = [float(v) for v in z]
    total = math.fsum(math.exp(v - max(z)) for v in z)
    return [v - max(z) - math.log(total) for v in z]


def direct_kl(z_p, z_q):
    lp = direct_log_softmax(z_p)
    lq = direct_log_softmax(z_q)
    return math.fsum(math.exp(a) * (a - b) for a, b in zip(lp, lq))


def log_softmax_vector(z):
    """One logit vector through the row-wise kernel."""
    return log_softmax_rows(np.asarray([z], dtype=float))[0]


def kl_between_logits(z_p, z_q):
    """KL(p||q) of two logit vectors, as the sampler computes it: the
    row-wise kernel's log-softmax, then ``kl_from_log_probs_rows``."""
    return float(kl_from_log_probs_rows(log_softmax_rows(np.asarray([z_p], dtype=float)),
                                        log_softmax_rows(np.asarray([z_q], dtype=float)))[0])


class TestLogSoftmax:
    def test_uniform_pair(self):
        np.testing.assert_allclose(log_softmax_vector([0.0, 0.0]), [math.log(0.5)] * 2, rtol=0, atol=1e-15)

    def test_shift_invariance_at_large_magnitude(self):
        np.testing.assert_allclose(log_softmax_vector([1000.0, 1000.0]), [math.log(0.5)] * 2, atol=1e-12)

    def test_two_to_one_ratio(self):
        got = log_softmax_vector([math.log(2.0), 0.0])
        np.testing.assert_allclose(got, direct_log_softmax([math.log(2.0), 0.0]), atol=1e-12)
        np.testing.assert_allclose(got, [math.log(2 / 3), math.log(1 / 3)], atol=1e-12)

    def test_exponentiates_to_distribution(self, rng):
        for _ in range(200):
            z = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(2, 40))
            assert abs(np.exp(log_softmax_vector(z)).sum() - 1.0) < 1e-9


class TestKLFromLogits:
    def test_identical_logits_exact_zero(self):
        assert kl_between_logits([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_frozen_value_two_to_one_vs_uniform(self):
        got = kl_between_logits([math.log(2.0), 0.0], [0.0, 0.0])
        assert abs(got - direct_kl([math.log(2.0), 0.0], [0.0, 0.0])) < 1e-12
        assert round(got, 6) == 0.056633

    def test_frozen_value_swapped_peaks(self):
        # log-partition terms cancel, leaving E_p[z_p - z_q] = 10 tanh(5)
        got = kl_between_logits([10.0, 0.0], [0.0, 10.0])
        assert abs(got - 10.0 * math.tanh(5.0)) < 1e-9
        assert round(got, 6) == 9.999092

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_from_log_probs_rows(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_self_kl_zero_and_nonnegative_batch(self, rng):
        # 10^4 random pairs: KL(z, z) == 0 exactly, KL(p, q) >= 0 always
        v = 24
        z = rng.normal(scale=3.0, size=(10_000, v))
        z2 = rng.normal(scale=3.0, size=(10_000, v))
        lp, lq = log_softmax_rows(z), log_softmax_rows(z2)
        self_kl = kl_from_log_probs_rows(lp, lp)
        assert np.all(self_kl == 0.0)
        assert np.all(kl_from_log_probs_rows(lp, lq) >= 0.0)

    def test_pinsker_inequality_batch(self, rng):
        # total variation vs sqrt(2 KL) on 10^4 random pairs
        lp = log_softmax_rows(rng.normal(scale=2.0, size=(10_000, 16)))
        lq = log_softmax_rows(rng.normal(scale=2.0, size=(10_000, 16)))
        l1 = np.abs(np.exp(lp) - np.exp(lq)).sum(axis=1)
        kl = kl_from_log_probs_rows(lp, lq)
        assert np.all(l1 <= np.sqrt(2.0 * kl) + 1e-12)

    def test_log_softmax_lipschitz_batch(self, rng):
        # sup-norm movement of log-softmax vs 2x the logit 2-norm movement
        z = rng.normal(scale=4.0, size=(10_000, 12))
        dz = rng.normal(scale=1.0, size=(10_000, 12))
        f1, f2 = log_softmax_rows(z), log_softmax_rows(z + dz)
        lhs = np.abs(f1 - f2).max(axis=1)
        rhs = 2.0 * np.linalg.norm(dz, axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    def test_large_negative_raises(self):
        with pytest.raises(InvalidStateError, match="below round-off tolerance"):
            kl_from_log_probs_rows(np.log([[0.5, 0.5]]), np.log([[0.5, 0.5]]) + np.array([[1e-6, 1e-6]]))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 30), vocab=st.integers(1, 60), k=st.integers(-3, 3),
           kinds=st.lists(st.sampled_from(["fresh", "self", "nudge"]), min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_clamped_textbook_sum_bit_for_bit(self, rows, vocab, k, kinds, seed):
        """The textbook sum of p * (lp - lq) per row, with negative round-off
        clamped to +0.0, bit for bit and sign bit included; each q row is a
        fresh draw, the p row itself, or the p row's logits nudged by 1e-12."""
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(rows, vocab)) * 10.0**k
        zq = rng.normal(size=(rows, vocab)) * 10.0**k
        for i in range(rows):
            kind = kinds[i % len(kinds)]
            if kind != "fresh":
                zq[i] = z[i] + (1e-12 * zq[i] if kind == "nudge" else 0.0)
        lp, lq = log_softmax_rows(z), log_softmax_rows(zq)
        textbook = (np.exp(lp) * (lp - lq)).sum(axis=1)
        want = np.where(textbook < 0, 0.0, textbook)
        got = kl_from_log_probs_rows(lp, lq)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestPercentileNearestRank:
    def test_low_percentile_takes_first(self):
        assert percentile_nearest_rank([0.1, 0.2, 0.3, 0.4, 0.5], 20) == 0.1

    def test_hundred_is_max(self):
        assert percentile_nearest_rank([0.1, 0.2, 0.3, 0.4, 0.5], 100) == 0.5

    def test_singleton(self):
        assert percentile_nearest_rank([7.0], 50) == 7.0

    def test_zero_percent_is_rank_one(self):
        assert percentile_nearest_rank([3.0, 1.0, 2.0], 0) == 1.0

    def test_empty_raises(self):
        with pytest.raises(InvalidInputError):
            percentile_nearest_rank([], 50)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_member_and_permutation_invariant(self, values, m):
        got = percentile_nearest_rank(values, m)
        assert got in values
        assert percentile_nearest_rank(list(reversed(values)), m) == got


class TestSpectralNorm:
    def test_identity(self):
        got = spectral_norm(np.eye(2))
        assert abs(got - 1.0) < 1e-9

    def test_diagonal(self):
        got = spectral_norm(np.diag([3.0, 1.0]))
        assert abs(got - 3.0) < 1e-9

    def test_zero_matrix(self):
        got = spectral_norm(np.zeros((3, 2)))
        assert got == 0.0

    def test_matches_svd_oracle(self, rng):
        for shape in [(3, 3), (5, 2), (2, 7), (10, 10)]:
            m = rng.normal(size=shape)
            got = spectral_norm(m)
            want = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(got - want) < 1e-6, shape

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40), k=st.integers(-200, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_svd_at_every_scale(self, rows, cols, k, seed):
        """Bit for bit the largest singular value, from 1x1 to 40x40 and over
        400 decades of scale, where a power iteration's squared iterates
        underflow to 0 or overflow to NaN."""
        m = np.random.default_rng(seed).normal(size=(rows, cols)) * 10.0**k
        assert spectral_norm(m) == np.linalg.svd(m, compute_uv=False)[0]

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))
