"""Clipping and Gaussian-mechanism calibration contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora_dp import runner
from fedlora_dp.config import RunConfig
from fedlora_dp.linalg import RngStream, frobenius_norm
from fedlora_dp.privacy import (
    MechanismParams,
    PrivacyBudget,
    calibrate_sigma,
    clip_frobenius,
    clip_pair,
    privatize,
)

# mpmath oracle: sqrt(2 * ln(1.25 / 1e-5)) at 30 digits, rounded to float64.
CALIBRATION_REFERENCE = 4.844805262605389


class TestPrivacyBudget:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_invalid_rejected(self, eps, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, delta)

    def test_valid(self):
        b = PrivacyBudget(25.0, 1e-5)
        assert b.epsilon == 25.0


class TestClipFrobenius:
    def test_zero_matrix_fixed_point(self):
        z = np.zeros((2, 2))
        assert np.array_equal(clip_frobenius(z, 1.0), z)

    def test_boundary_is_noop(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0]])  # norm exactly 5
        assert clip_frobenius(m, 5.0) is m

    def test_scales_to_threshold(self):
        # oracle: min(1, 2.5/5) = 0.5 in exact arithmetic
        m = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = clip_frobenius(m, 2.5)
        assert np.array_equal(out, np.array([[1.5, 2.0], [0.0, 0.0]]))

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.floats(0.05, 8.0),
        st.floats(0.1, 20.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_contract(self, m, n, c, scale, seed):
        gen = np.random.default_rng(seed)
        mat = scale * gen.standard_normal((m, n))
        clipped = clip_frobenius(mat, c)
        # norm cap
        assert frobenius_norm(clipped) <= c + 1e-12
        # direction preserved: clipped is a nonnegative multiple of the input
        norm = frobenius_norm(mat)
        unit_in = mat / norm
        unit_out = clipped / frobenius_norm(clipped)
        assert np.allclose(unit_out, unit_in, rtol=0.0, atol=1e-12)
        # no-op below threshold
        if norm <= c:
            assert clipped is mat
        # idempotence, bit-exact
        assert np.array_equal(clip_frobenius(clipped, c), clipped)


def random_calibrations(seed: int, count: int = 100) -> list[tuple[float, PrivacyBudget]]:
    """Thresholds c ~ U[0.01, 10] with budgets eps ~ U[0.1, 30], delta = 10^U(-8, -2)."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = float(gen.uniform(0.01, 10.0))
        eps = float(gen.uniform(0.1, 30.0))
        delta = float(10.0 ** gen.uniform(-8, -2))
        out.append((c, PrivacyBudget(eps, delta)))
    return out


class TestCalibrateSigma:
    def test_reference_value(self):
        value = calibrate_sigma(1.0, PrivacyBudget(1.0, 1e-5))
        assert abs(value - CALIBRATION_REFERENCE) <= 1e-12 * CALIBRATION_REFERENCE

    def test_linear_in_threshold(self):
        budget = PrivacyBudget(1.0, 1e-5)
        assert calibrate_sigma(2.0, budget) == 2.0 * calibrate_sigma(1.0, budget)
        for c, budget in random_calibrations(seed=4):
            base = calibrate_sigma(c, budget)
            assert abs(calibrate_sigma(2 * c, budget) - 2 * base) <= 1e-15 * 2 * base

    def test_inverse_in_epsilon(self):
        assert calibrate_sigma(1.0, PrivacyBudget(2.0, 1e-5)) == pytest.approx(
            calibrate_sigma(1.0, PrivacyBudget(1.0, 1e-5)) / 2.0, rel=1e-15
        )
        for c, budget in random_calibrations(seed=5):
            base = calibrate_sigma(c, budget)
            halved = calibrate_sigma(c, PrivacyBudget(2 * budget.epsilon, budget.delta))
            assert abs(halved - base / 2) <= 1e-15 * base

    def test_monotonicity(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            c = float(gen.uniform(0.01, 5.0))
            eps = float(gen.uniform(0.1, 20.0))
            delta = float(10.0 ** gen.uniform(-8, -2))
            base = calibrate_sigma(c, PrivacyBudget(eps, delta))
            assert calibrate_sigma(c, PrivacyBudget(eps * 1.5, delta)) < base
            assert calibrate_sigma(c, PrivacyBudget(eps, min(delta * 10, 0.99))) < base
            assert calibrate_sigma(c * 1.5, PrivacyBudget(eps, delta)) > base


def mechanism(sigma_b: float, sigma_a: float, clip: float = math.inf) -> MechanismParams:
    """A mechanism with the given noise scales and one clip for both factors (none by default)."""
    return MechanismParams(clip_b=clip, clip_a=clip, sigma_b=sigma_b, sigma_a=sigma_a)


class TestClipPair:
    def test_within_both_clips_returns_the_given_arrays(self):
        b = np.array([[0.3], [0.4]])  # norm 0.5
        a = np.array([[3.0, 4.0]])  # norm 5
        mech = MechanismParams(clip_b=0.5, clip_a=5.0, sigma_b=0.1, sigma_a=0.1)
        out_b, out_a = clip_pair((b, a), mech)
        assert out_b is b and out_a is a

    def test_each_factor_clipped_to_its_own_threshold(self):
        b = np.array([[3.0], [4.0]])
        a = np.array([[3.0, 4.0]])
        mech = MechanismParams(clip_b=2.5, clip_a=1.0, sigma_b=0.0, sigma_a=0.0)
        out_b, out_a = clip_pair((b, a), mech)
        assert np.array_equal(out_b, clip_frobenius(b, 2.5))
        assert np.array_equal(out_a, clip_frobenius(a, 1.0))


class TestPrivatize:
    def test_sigma_zero_within_budget_identity(self):
        b = np.array([[0.1, 0.2], [0.0, 0.1]])
        a = np.array([[0.2, 0.0], [0.1, 0.1]])
        clean, out = privatize((b, a), mechanism(0.0, 0.0, clip=1.0), RngStream(0, (1,)),
                               RngStream(0, (2,)))
        assert out[0] is b and out[1] is a
        assert clean[0] is b and clean[1] is a

    def test_sigma_zero_releases_the_clipped_pair(self):
        # the step clips before it noises: without noise, a pair outside its
        # clips is released as the clipped pair
        b = np.array([[3.0, 4.0], [0.0, 0.0]])  # norm 5
        a = np.array([[30.0], [40.0]])  # norm 50
        mech = MechanismParams(clip_b=2.5, clip_a=1.0, sigma_b=0.0, sigma_a=0.0)
        clean, out = privatize((b, a), mech, RngStream(0, (1,)), RngStream(0, (2,)))
        assert np.array_equal(out[0], np.array([[1.5, 2.0], [0.0, 0.0]]))
        assert np.array_equal(out[1], clip_frobenius(a, 1.0))
        assert frobenius_norm(out[1]) <= 1.0
        assert out[0] is clean[0] and out[1] is clean[1]

    def test_sigma_b_zero_returns_b_and_noises_a(self):
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        a = np.array([[1.0, -2.0, 0.5], [0.0, 1.5, -1.0]])
        stream_a = RngStream(6, (2,))
        _, (out_b, out_a) = privatize((b, a), mechanism(0.0, 0.7), RngStream(6, (1,)),
                                      stream_a)
        assert out_b is b
        assert np.array_equal(out_a, a + 0.7 * stream_a.generator().standard_normal((2, 3)))

    def test_zero_input_pure_noise_mean(self):
        # 100 repetitions of a 100x10 zero matrix: 1e5 noise entries overall
        sigma = 1.0
        z = np.zeros((100, 10))
        root = RngStream(11)
        releases = [privatize((z, z.T), mechanism(sigma, 0.0), root.child(i), root.child(i, 0))[1]
                    for i in range(100)]
        draws = np.concatenate([b.ravel() for b, _ in releases])
        assert draws.size == 10**5
        assert abs(draws.mean()) <= 5 * sigma / np.sqrt(draws.size)

    def test_deterministic_given_stream(self):
        pair = (np.ones((2, 3)), np.ones((3, 2)))
        _, first = privatize(pair, mechanism(0.7, 0.7), RngStream(5, (1,)), RngStream(5, (2,)))
        _, second = privatize(pair, mechanism(0.7, 0.7), RngStream(5, (1,)), RngStream(5, (2,)))
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


class TestPrivatizeCount:
    m = np.array([[3.0, -4.0, 1.0], [0.5, 2.0, -1.5]])
    clipped = clip_frobenius(m, 1.0)
    # (clipped, clipped.T): two factors of different shapes, each noised on its own stream
    pair = (clipped, clipped.T)

    def test_shape(self):
        _, out = privatize(self.pair, mechanism(0.7, 0.7), RngStream(3), RngStream(3, (1,)),
                           count=5)
        assert out[0].shape == (5, 2, 3) and out[1].shape == (5, 3, 2)

    def test_first_release_equals_single_release(self):
        for seed in range(10):
            stream_b, stream_a = RngStream(seed, (2, seed)), RngStream(seed, (3, seed))
            _, single = privatize((self.m, self.m.T), mechanism(0.7, 0.3), stream_b, stream_a)
            _, stacked = privatize((self.m, self.m.T), mechanism(0.7, 0.3), stream_b, stream_a,
                                   count=7)
            # each single release is its factor, unclipped, plus sigma * one standard-normal
            # draw of its own stream
            formula = (self.m + 0.7 * stream_b.generator().standard_normal((2, 3)),
                       self.m.T + 0.3 * stream_a.generator().standard_normal((3, 2)))
            for factor in (0, 1):
                assert np.array_equal(single[factor], formula[factor])
                assert np.array_equal(stacked[factor][0], single[factor])
                assert not np.array_equal(stacked[factor][1], single[factor])

    def test_sigma_zero_repeats_clipped(self):
        _, out = privatize(self.pair, mechanism(0.0, 0.0), RngStream(0), RngStream(0, (1,)),
                           count=4)
        assert out[0].shape == (4, 2, 3) and out[1].shape == (4, 3, 2)
        for factor, released in zip(self.pair, out):
            for release in released:
                assert np.array_equal(release, factor)

    def test_moments_match_clipped_and_sigma(self):
        sigma, count = 0.7, 20_000
        _, (out_b, _) = privatize(self.pair, mechanism(sigma, 0.0), RngStream(8, (1,)),
                                  RngStream(8, (2,)), count=count)
        mean_se = sigma / np.sqrt(count)
        var_se = sigma**2 * np.sqrt(2.0 / (count - 1))
        assert np.all(np.abs(out_b.mean(axis=0) - self.clipped) <= 5 * mean_se)
        assert np.all(np.abs(out_b.var(axis=0, ddof=1) - sigma**2) <= 5 * var_se)


class TestMechanismParams:
    def test_calibrated_scales(self):
        params = runner._calibrated(RunConfig(epsilon=1.0, delta=1e-5), 2.0, 1.0)
        assert params.sigma_b == 2.0 * params.sigma_a

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            MechanismParams(clip_b=1.0, clip_a=1.0, sigma_b=-0.1, sigma_a=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    @pytest.mark.parametrize("factor", ["sigma_b", "sigma_a"])
    def test_rejects_non_finite_sigma(self, factor, sigma):
        # a subnormal epsilon calibrates an infinite sigma
        assert calibrate_sigma(1.0, PrivacyBudget(1e-320, 1e-5)) == math.inf
        sigmas = {"sigma_b": 0.0, "sigma_a": 0.0, factor: sigma}
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            MechanismParams(clip_b=1.0, clip_a=1.0, **sigmas)

    @pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("factor", ["clip_b", "clip_a"])
    def test_rejects_nonpositive_clip(self, factor, clip):
        # the one clip check: clip_frobenius and calibrate_sigma take their clips from here
        clips = {"clip_b": 1.0, "clip_a": 1.0, factor: clip}
        with pytest.raises(ValueError, match="clip threshold must be > 0"):
            MechanismParams(**clips, sigma_b=0.0, sigma_a=0.0)
