"""Clipping and Gaussian-mechanism calibration contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora_dp.linalg import RngStream, frobenius_norm
from fedlora_dp.privacy import (
    MechanismParams,
    PrivacyBudget,
    calibrate_sigma,
    clip_frobenius,
    compose_budget,
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

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="clip threshold"):
            clip_frobenius(np.ones((1, 1)), 0.0)

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


class TestPrivatize:
    def test_sigma_zero_within_budget_identity(self):
        m = np.array([[0.1, 0.2], [0.0, 0.1]])
        out = privatize(m, 0.0, RngStream(0))
        assert out is m

    def test_sigma_zero_does_not_clip(self):
        # the caller clips once; privatize only adds noise, whatever the norm
        m = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = privatize(m, 0.0, RngStream(0))
        assert out is m

    def test_zero_input_pure_noise_mean(self):
        # 100 repetitions of a 100x10 zero matrix: 1e5 noise entries overall
        sigma = 1.0
        z = np.zeros((100, 10))
        root = RngStream(11)
        draws = np.concatenate(
            [privatize(z, sigma, root.child(i)).ravel() for i in range(100)]
        )
        assert draws.size == 10**5
        assert abs(draws.mean()) <= 5 * sigma / np.sqrt(draws.size)

    def test_deterministic_given_stream(self):
        m = np.ones((2, 3))
        a = privatize(m, 0.7, RngStream(5, (1,)))
        b = privatize(m, 0.7, RngStream(5, (1,)))
        assert np.array_equal(a, b)


class TestPrivatizeCount:
    m = np.array([[3.0, -4.0, 1.0], [0.5, 2.0, -1.5]])
    clipped = clip_frobenius(m, 1.0)

    def test_shape(self):
        out = privatize(self.clipped, 0.7, RngStream(3), count=5)
        assert out.shape == (5, 2, 3)

    def test_first_release_equals_single_release(self):
        for seed in range(10):
            stream = RngStream(seed, (2, seed))
            single = privatize(self.m, 0.7, stream)
            stacked = privatize(self.m, 0.7, stream, count=7)
            # the single release is the factor, unclipped, plus sigma * one standard-normal draw
            formula = self.m + 0.7 * stream.generator().standard_normal((2, 3))
            assert np.array_equal(single, formula)
            assert np.array_equal(stacked[0], single)
            assert not np.array_equal(stacked[1], single)

    def test_sigma_zero_repeats_clipped(self):
        out = privatize(self.clipped, 0.0, RngStream(0), count=4)
        assert out.shape == (4, 2, 3)
        for release in out:
            assert np.array_equal(release, self.clipped)

    def test_moments_match_clipped_and_sigma(self):
        sigma, count = 0.7, 20_000
        out = privatize(self.clipped, sigma, RngStream(8, (1,)), count=count)
        mean_se = sigma / np.sqrt(count)
        var_se = sigma**2 * np.sqrt(2.0 / (count - 1))
        assert np.all(np.abs(out.mean(axis=0) - self.clipped) <= 5 * mean_se)
        assert np.all(np.abs(out.var(axis=0, ddof=1) - sigma**2) <= 5 * var_se)

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="count"):
            privatize(self.clipped, 0.7, RngStream(0), count=0)


class TestComposeBudget:
    def test_single_round(self):
        assert compose_budget(1.0, 1.0, 1) == 2.0

    def test_linear_in_rounds(self):
        assert compose_budget(1.0, 1.0, 10) == 20.0

    def test_arithmetic(self):
        assert compose_budget(0.5, 1.5, 3) == 6.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compose_budget(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            compose_budget(1.0, 1.0, 0)


class TestMechanismParams:
    def test_calibrated_scales(self):
        params = MechanismParams.calibrated(
            clip_b=2.0, clip_a=1.0,
            budget_b=PrivacyBudget(1.0, 1e-5),
            budget_a=PrivacyBudget(1.0, 1e-5),
        )
        assert params.sigma_b == 2.0 * params.sigma_a

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            MechanismParams(clip_b=1.0, clip_a=1.0, sigma_b=-0.1, sigma_a=0.0)
