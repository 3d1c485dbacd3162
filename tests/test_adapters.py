"""Adapter algebra and stacking aggregation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora_dp.adapters import (
    ClientUpdate,
    FrozenBase,
    LoraAdapter,
    adapter_delta,
    aggregate_stack,
    global_delta,
    init_adapter,
)
from fedlora_dp.linalg import RngStream, frobenius_norm


def stacking_equivalence_residual(updates: list[ClientUpdate]) -> float:
    """Relative gap between the stacked product and the per-client sum of products.

    The oracle for ``aggregate_stack``: the reference sum is accumulated client
    by client, independently of the stacked path, and the residual is
    normalised by 1 + its norm.
    """
    stacked = global_delta(aggregate_stack(updates))
    reference = np.zeros_like(stacked)
    for u in updates:
        reference = reference + u.weight * (u.b_tilde @ u.a_tilde)
    return frobenius_norm(stacked - reference) / (1.0 + frobenius_norm(reference))


def _random_updates(gen, k=None, m=None, n=None, max_rank=8):
    k = k or int(gen.integers(1, 9))
    m = m or int(gen.integers(1, 33))
    n = n or int(gen.integers(1, 33))
    updates = []
    for cid in range(k):
        r = int(gen.integers(1, max_rank + 1))
        updates.append(
            ClientUpdate(
                client_id=cid,
                b_tilde=gen.standard_normal((m, r)),
                a_tilde=gen.standard_normal((r, n)),
                rank=r,
                weight=float(gen.uniform(0.0, 2.0)),
            )
        )
    return updates


class TestLoraAdapter:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="rank"):
            LoraAdapter(b=np.ones((3, 2)), a=np.ones((3, 4)), rank=2, lora_scale=2.0)

    def test_scale(self):
        ad = LoraAdapter(b=np.ones((3, 2)), a=np.ones((2, 4)), rank=2, lora_scale=4.0)
        assert ad.scale == 2.0


class TestAdapterDelta:
    def test_zero_b_gives_zero(self):
        ad = LoraAdapter(b=np.zeros((3, 2)), a=np.ones((2, 4)), rank=2, lora_scale=2.0)
        assert np.all(adapter_delta(ad) == 0.0)

    def test_unit_scale_product(self):
        ad = LoraAdapter(b=np.array([[1.0], [2.0]]), a=np.array([[3.0, 4.0]]),
                         rank=1, lora_scale=1.0)
        assert np.array_equal(adapter_delta(ad), np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_scale_doubles_product(self):
        # lora_scale = 64 with rank 32 doubles the raw product
        gen = np.random.default_rng(0)
        b = gen.standard_normal((8, 32))
        a = gen.standard_normal((32, 6))
        scaled = LoraAdapter(b=b, a=a, rank=32, lora_scale=64.0)
        assert np.allclose(adapter_delta(scaled), 2.0 * (b @ a), rtol=0, atol=0)


class TestFrozenBase:
    def test_immutable(self):
        base = FrozenBase(np.ones((2, 2)))
        with pytest.raises(ValueError):
            base.w[0, 0] = 5.0


class TestAggregateStack:
    def test_single_client_identity(self):
        gen = np.random.default_rng(5)
        u = ClientUpdate(0, gen.standard_normal((3, 2)), gen.standard_normal((2, 4)),
                         rank=2, weight=1.0)
        g = aggregate_stack([u])
        assert np.allclose(global_delta(g), u.b_tilde @ u.a_tilde, rtol=0, atol=0)
        assert g.spans == ((0, 0, 2),)

    def test_zero_adapters_zero_delta(self):
        updates = [
            ClientUpdate(0, np.zeros((3, 1)), np.zeros((1, 4)), rank=1),
            ClientUpdate(1, np.zeros((3, 2)), np.zeros((2, 4)), rank=2),
        ]
        assert np.all(global_delta(aggregate_stack(updates)) == 0.0)

    def test_heterogeneous_ranks_sum(self):
        gen = np.random.default_rng(6)
        updates = [
            ClientUpdate(0, gen.standard_normal((3, 1)), gen.standard_normal((1, 4)), rank=1),
            ClientUpdate(1, gen.standard_normal((3, 2)), gen.standard_normal((2, 4)), rank=2),
        ]
        total = sum(u.weight * (u.b_tilde @ u.a_tilde) for u in updates)
        result = global_delta(aggregate_stack(updates))
        assert frobenius_norm(result - total) / frobenius_norm(total) <= 1e-12

    def test_spans_partition_total_rank(self):
        gen = np.random.default_rng(7)
        updates = _random_updates(gen, k=3, m=5, n=4)
        g = aggregate_stack(updates)
        assert g.total_rank == sum(u.rank for u in updates)
        assert global_delta(g).shape == (5, 4)

    def test_mismatch_names_client(self):
        updates = [
            ClientUpdate(0, np.ones((3, 1)), np.ones((1, 4)), rank=1),
            ClientUpdate(7, np.ones((2, 1)), np.ones((1, 4)), rank=1),
        ]
        with pytest.raises(ValueError, match="client 7"):
            aggregate_stack(updates)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate_stack([])

    def test_permutation_invariance(self):
        gen = np.random.default_rng(8)
        updates = _random_updates(gen, k=4, m=6, n=5)
        forward_order = global_delta(aggregate_stack(updates))
        reversed_order = global_delta(aggregate_stack(updates[::-1]))
        rel = frobenius_norm(forward_order - reversed_order) / (1 + frobenius_norm(forward_order))
        assert rel <= 1e-12
        spans = aggregate_stack(updates[::-1]).spans
        assert [s[0] for s in spans] == [u.client_id for u in updates[::-1]]


class TestStackingEquivalence:
    def test_single_client_zero_residual(self):
        gen = np.random.default_rng(9)
        u = ClientUpdate(0, gen.standard_normal((4, 2)), gen.standard_normal((2, 3)),
                         rank=2, weight=0.7)
        assert stacking_equivalence_residual([u]) <= 1e-15

    def test_all_zero_exact(self):
        updates = [ClientUpdate(i, np.zeros((3, 1)), np.zeros((1, 3)), rank=1) for i in range(3)]
        assert stacking_equivalence_residual(updates) == 0.0

    def test_five_heterogeneous_clients(self):
        gen = np.random.default_rng(10)
        updates = _random_updates(gen, k=5, m=8, n=7)
        assert stacking_equivalence_residual(updates) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_property_random_instances(self, seed):
        gen = np.random.default_rng(seed)
        assert stacking_equivalence_residual(_random_updates(gen)) <= 1e-12


class TestInitAdapter:
    def test_fresh_delta_is_zero(self):
        ad = init_adapter(4, 3, 2, 2.0, RngStream(1, (0,)))
        assert np.all(adapter_delta(ad) == 0.0)
        assert np.all(ad.b == 0.0)

    def test_wide_factor_variance(self):
        rank = 4
        ad = init_adapter(2, 25_000, rank, 4.0, RngStream(2, (0,)))
        sample_var = float(ad.a.var(ddof=1))
        assert abs(sample_var - 1.0 / rank) <= 0.03 / rank

    def test_distinct_streams_distinct_factors(self):
        a1 = init_adapter(3, 3, 2, 2.0, RngStream(3, (0, 1)))
        a2 = init_adapter(3, 3, 2, 2.0, RngStream(3, (0, 2)))
        assert not np.array_equal(a1.a, a2.a)
