"""Stacking aggregation of factor pairs and fresh pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora_dp.adapters import FrozenBase, aggregate_stack, global_delta, init_adapter
from fedlora_dp.linalg import RngStream, frobenius_norm


def stacking_equivalence_residual(pairs, weights) -> float:
    """Relative gap between the stacked product and the per-pair sum of products.

    The oracle for ``aggregate_stack``: the reference sum is accumulated pair
    by pair, independently of the stacked path, and the residual is
    normalised by 1 + its norm.
    """
    stacked = global_delta(aggregate_stack(pairs, weights))
    reference = np.zeros_like(stacked)
    for (b, a), w in zip(pairs, weights):
        reference = reference + w * (b @ a)
    return frobenius_norm(stacked - reference) / (1.0 + frobenius_norm(reference))


def _random_pairs(gen, k=None, m=None, n=None, max_rank=8):
    """k factor pairs of random ranks and their weights."""
    k = k or int(gen.integers(1, 9))
    m = m or int(gen.integers(1, 33))
    n = n or int(gen.integers(1, 33))
    pairs, weights = [], []
    for _ in range(k):
        r = int(gen.integers(1, max_rank + 1))
        pairs.append((gen.standard_normal((m, r)), gen.standard_normal((r, n))))
        weights.append(float(gen.uniform(0.0, 2.0)))
    return pairs, weights


class TestFrozenBase:
    def test_immutable(self):
        base = FrozenBase(np.ones((2, 2)))
        with pytest.raises(ValueError):
            base.w[0, 0] = 5.0


class TestAggregateStack:
    def test_single_client_identity(self):
        gen = np.random.default_rng(5)
        b, a = gen.standard_normal((3, 2)), gen.standard_normal((2, 4))
        g = aggregate_stack([(b, a)], [1.0])
        assert np.allclose(global_delta(g), b @ a, rtol=0, atol=0)

    def test_zero_adapters_zero_delta(self):
        pairs = [(np.zeros((3, 1)), np.zeros((1, 4))), (np.zeros((3, 2)), np.zeros((2, 4)))]
        assert np.all(global_delta(aggregate_stack(pairs, [1.0, 1.0])) == 0.0)

    def test_heterogeneous_ranks_sum(self):
        gen = np.random.default_rng(6)
        pairs = [(gen.standard_normal((3, 1)), gen.standard_normal((1, 4))),
                 (gen.standard_normal((3, 2)), gen.standard_normal((2, 4)))]
        total = sum(b @ a for b, a in pairs)
        result = global_delta(aggregate_stack(pairs, [1.0, 1.0]))
        assert frobenius_norm(result - total) / frobenius_norm(total) <= 1e-12

    def test_permutation_invariance(self):
        gen = np.random.default_rng(8)
        pairs, weights = _random_pairs(gen, k=4, m=6, n=5)
        forward_order = global_delta(aggregate_stack(pairs, weights))
        reversed_order = global_delta(aggregate_stack(pairs[::-1], weights[::-1]))
        rel = frobenius_norm(forward_order - reversed_order) / (1 + frobenius_norm(forward_order))
        assert rel <= 1e-12


class TestStackingEquivalence:
    def test_single_client_zero_residual(self):
        gen = np.random.default_rng(9)
        pair = (gen.standard_normal((4, 2)), gen.standard_normal((2, 3)))
        assert stacking_equivalence_residual([pair], [0.7]) <= 1e-15

    def test_all_zero_exact(self):
        pairs = [(np.zeros((3, 1)), np.zeros((1, 3)))] * 3
        assert stacking_equivalence_residual(pairs, [1.0] * 3) == 0.0

    def test_five_heterogeneous_clients(self):
        gen = np.random.default_rng(10)
        assert stacking_equivalence_residual(*_random_pairs(gen, k=5, m=8, n=7)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_property_random_instances(self, seed):
        gen = np.random.default_rng(seed)
        assert stacking_equivalence_residual(*_random_pairs(gen)) <= 1e-12


class TestInitAdapter:
    def test_fresh_delta_is_zero(self):
        b, a = init_adapter(4, 3, 2, RngStream(1, (0,)))
        assert np.all(b @ a == 0.0)
        assert np.all(b == 0.0)

    def test_wide_factor_variance(self):
        rank = 4
        _, a = init_adapter(2, 25_000, rank, RngStream(2, (0,)))
        sample_var = float(a.var(ddof=1))
        assert abs(sample_var - 1.0 / rank) <= 0.03 / rank

    def test_distinct_streams_distinct_factors(self):
        _, a1 = init_adapter(3, 3, 2, RngStream(3, (0, 1)))
        _, a2 = init_adapter(3, 3, 2, RngStream(3, (0, 2)))
        assert not np.array_equal(a1, a2)
