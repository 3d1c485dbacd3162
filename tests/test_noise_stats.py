"""Monte Carlo vs closed-form statistics of noisy factor products."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fedlora_dp import linalg, noise_stats
from fedlora_dp.linalg import RngStream
from fedlora_dp.noise_stats import (
    NoiseModel,
    NoiseStats,
    exact_total_variance,
    noise_product_stats,
    sweep,
    variance_bound,
)

# B with ||B||_F^2 = 1 for the hand-derived variance cases
B_UNIT = np.array([[0.6], [0.8]])
A_ZERO = np.zeros((1, 3))


class TestExpectationDiff:
    def test_no_noise_exact_zero(self):
        stats = noise_product_stats(
            np.ones((2, 2)), np.ones((2, 2)), NoiseModel(0.0, 0.0), 1000, RngStream(0)
        )
        assert stats.mean_diff == 0.0 and stats.std_error == 0.0

    def test_zero_factors_pure_noise_product(self):
        # beta @ alpha has zero mean by independence
        stats = noise_product_stats(
            np.zeros((2, 2)), np.zeros((2, 2)), NoiseModel(1.0, 1.0), 100_000, RngStream(1)
        )
        assert abs(stats.mean_diff) <= 5 * stats.std_error

    def test_random_instance_unbiased(self):
        gen = np.random.default_rng(2)
        b = gen.standard_normal((4, 2))
        a = gen.standard_normal((2, 3))
        stats = noise_product_stats(b, a, NoiseModel(0.8, 1.3), 100_000, RngStream(3))
        assert abs(stats.mean_diff) <= 5 * stats.std_error

    def test_minimum_draws_enforced(self):
        # the standard error of the mean needs two draws
        with pytest.raises(ValueError, match="draws"):
            noise_product_stats(np.ones((1, 1)), np.ones((1, 1)), NoiseModel(1, 1), 1, RngStream(0))


class TestTotalVariance:
    def test_deterministic_product_zero(self):
        assert noise_product_stats(
            np.ones((2, 3)), np.ones((3, 2)), NoiseModel(0.0, 0.0), 2000, RngStream(0)
        ).total_variance == 0.0

    def test_wide_noise_only(self):
        # Var[(B alpha)_ij] = sa^2 * sum_k B_ik^2, summed over entries:
        # n * sa^2 * ||B||_F^2 = 3 * 1 * 1 = 3
        stats = noise_product_stats(B_UNIT, A_ZERO, NoiseModel(0.0, 1.0), 100_000, RngStream(4))
        assert abs(stats.total_variance - 3.0) <= 0.03 * 3.0

    def test_all_terms(self):
        # n*sa^2*||B||^2 + m*sb^2*||A||^2 + m*n*r*sb^2*sa^2 = 3 + 2 + 6 = 11
        a_unit = np.array([[0.0, 0.6, 0.8]])
        stats = noise_product_stats(B_UNIT, a_unit, NoiseModel(1.0, 1.0), 100_000, RngStream(5))
        assert abs(stats.total_variance - 11.0) <= 0.03 * 11.0

    def test_minimum_draws_enforced(self):
        # the unbiased variance needs two draws, even where zero noise makes it exactly 0
        with pytest.raises(ValueError, match="draws"):
            noise_product_stats(np.ones((1, 1)), np.ones((1, 1)), NoiseModel(0, 0), 1, RngStream(0))

    def test_deterministic_given_stream(self):
        b = np.ones((2, 2))
        a = np.ones((2, 2))
        v1 = noise_product_stats(b, a, NoiseModel(1.0, 0.5), 5000, RngStream(6, (1,)))
        v2 = noise_product_stats(b, a, NoiseModel(1.0, 0.5), 5000, RngStream(6, (1,)))
        assert v1.total_variance == v2.total_variance


class TestExactTotalVariance:
    def test_zero_noise(self):
        assert exact_total_variance(np.ones((2, 3)), np.ones((3, 4)), NoiseModel(0, 0)) == 0.0

    def test_wide_noise_only_case(self):
        # exact gives 3; the exchanged-coefficient bound gives m * ||B||^2 = 2
        model = NoiseModel(0.0, 1.0)
        assert exact_total_variance(B_UNIT, A_ZERO, model) == pytest.approx(3.0)
        assert variance_bound(B_UNIT, A_ZERO, model) == pytest.approx(2.0)

    def test_square_shapes_match_bound(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            m = int(gen.integers(1, 7))
            r = int(gen.integers(1, 5))
            b = gen.standard_normal((m, r))
            a = gen.standard_normal((r, m))
            model = NoiseModel(float(gen.uniform(0.1, 2)), float(gen.uniform(0.1, 2)))
            exact = exact_total_variance(b, a, model)
            bound = variance_bound(b, a, model)
            assert abs(exact - bound) <= 1e-12 * max(exact, 1e-300)

    def test_matches_mc_on_random_instances(self):
        gen = np.random.default_rng(8)
        root = RngStream(9)
        for i in range(5):
            m, n, r = (int(gen.integers(1, 6)) for _ in range(3))
            b = gen.standard_normal((m, r))
            a = gen.standard_normal((r, n))
            model = NoiseModel(float(gen.uniform(0.2, 1.5)), float(gen.uniform(0.2, 1.5)))
            exact = exact_total_variance(b, a, model)
            mc = noise_product_stats(b, a, model, 100_000, root.child(i)).total_variance
            assert abs(mc - exact) <= 0.03 * exact


class TestVarianceBound:
    def test_zero_noise(self):
        assert variance_bound(np.ones((2, 3)), np.ones((3, 4)), NoiseModel(0, 0)) == 0.0

    def test_pure_noise_term(self):
        # with zero factors only the m*n*r term survives in both forms
        model = NoiseModel(1.5, 0.5)
        b = np.zeros((3, 2))
        a = np.zeros((2, 4))
        expected = 3 * 4 * 2 * 1.5**2 * 0.5**2
        assert variance_bound(b, a, model) == pytest.approx(expected)
        assert exact_total_variance(b, a, model) == pytest.approx(expected)


def rank_points(ranks, m, n):
    return [(str(r), m, n, r) for r in ranks]


def size_points(dim_pairs, rank):
    return [(f"{m}x{n}", m, n, rank) for m, n in dim_pairs]


class TestRankSweep:
    def test_exact_linear_in_rank_pure_noise(self):
        rows = sweep(rank_points([1, 2, 4], 3, 5), NoiseModel(1.0, 1.0), 2000, RngStream(10),
                     norm_b=0.0, norm_a=0.0)
        exact = [r.exact_variance for r in rows]
        assert exact[1] == pytest.approx(2 * exact[0])
        assert exact[2] == pytest.approx(4 * exact[0])

    def test_doubling_pattern(self):
        rows = sweep(rank_points([4, 8, 16], 8, 8), NoiseModel(1.0, 1.0), 40_000, RngStream(11))
        mc = [r.mc_variance for r in rows]
        for lo, hi in zip(mc, mc[1:]):
            assert 1.8 <= hi / lo <= 2.2

    def test_unbiased_at_each_rank(self):
        rows = sweep(rank_points([2, 4], 4, 4), NoiseModel(1.0, 1.0), 20_000, RngStream(12))
        for row in rows:
            assert abs(row.mean_diff) <= 5 * row.std_error


class TestSizeSweep:
    def test_pure_noise_quadruples_when_doubling_both_dims(self):
        rows = sweep(size_points([(4, 6), (8, 12)], 3), NoiseModel(1.0, 1.0), 2000, RngStream(13),
                     norm_b=0.0, norm_a=0.0)
        assert rows[1].exact_variance == pytest.approx(4 * rows[0].exact_variance)

    def test_row_growth_invisible_to_wide_noise_term(self):
        # with a zero wide factor and tall noise off, only n * sa^2 * ||B||^2 remains
        model = NoiseModel(0.0, 1.0)
        rows = sweep(size_points([(4, 6), (8, 6)], 2), model, 2000, RngStream(14),
                     norm_b=1.0, norm_a=0.0)
        assert rows[0].exact_variance == pytest.approx(rows[1].exact_variance)

    def test_expectation_near_zero_all_sizes(self):
        rows = sweep(size_points([(4, 4), (8, 8)], 2), NoiseModel(1.0, 1.0), 20_000, RngStream(15))
        for row in rows:
            assert abs(row.mean_diff) <= 5 * row.std_error

    def test_variance_monotone_in_area(self):
        rows = sweep(size_points([(4, 4), (6, 6), (8, 8)], 2), NoiseModel(1.0, 1.0), 20_000,
                     RngStream(16))
        exact = [r.exact_variance for r in rows]
        mc = [r.mc_variance for r in rows]
        assert exact == sorted(exact)
        assert mc == sorted(mc)


class TestEngine:
    def test_single_pass_consistency(self):
        # one chunk: the same draws, reduced in two passes, give the same statistics
        b = np.array([[0.3, -0.7], [1.1, 0.2]])
        a = np.array([[0.5, 0.1], [-0.4, 0.9]])
        model = NoiseModel(0.6, 1.2)
        draws = 3_000
        rng = RngStream(17)
        stats = noise_product_stats(b, a, model, draws, rng)
        gen = rng.child(0).generator()
        beta = model.sigma_beta * gen.standard_normal((draws, 2, 2))
        alpha = model.sigma_alpha * gen.standard_normal((draws, 2, 2))
        prods = (b + beta) @ (a + alpha)
        per_draw = (prods - b @ a).mean(axis=(1, 2))
        assert stats.mean_diff == pytest.approx(per_draw.mean(), rel=1e-9, abs=1e-15)
        assert stats.std_error == pytest.approx(per_draw.std(ddof=1) / np.sqrt(draws), rel=1e-9)
        assert stats.total_variance == pytest.approx(prods.var(axis=0, ddof=1).sum(), rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            noise_product_stats(np.ones((2, 2)), np.ones((3, 2)), NoiseModel(1, 1), 1000, RngStream(0))


def sequential_stats(b, a, model, n_draws, rng):
    """The one-thread chunk loop, as a reference: same streams, same operation order."""
    m, r = b.shape
    n = a.shape[1]
    clean = b @ a
    chunk = noise_stats._chunk_size(m, n, r)
    sum_prod = np.zeros((m, n))
    sum_sq = np.zeros((m, n))
    per_draw_mean = np.empty(n_draws)
    for index, done in enumerate(range(0, n_draws, chunk)):
        count = min(chunk, n_draws - done)
        gen = rng.child(index).generator()
        tall = b + model.sigma_beta * gen.standard_normal((count, m, r)) \
            if model.sigma_beta > 0 else np.broadcast_to(b, (count, m, r))
        wide = a + model.sigma_alpha * gen.standard_normal((count, r, n)) \
            if model.sigma_alpha > 0 else np.broadcast_to(a, (count, r, n))
        prods = tall @ wide
        sum_prod += prods.sum(axis=0)
        sum_sq += (prods * prods).sum(axis=0)
        per_draw_mean[done:done + count] = (prods - clean).mean(axis=(1, 2))
    var_entries = (sum_sq - sum_prod * sum_prod / n_draws) / (n_draws - 1)
    return NoiseStats(
        mean_diff=float(per_draw_mean.mean()),
        std_error=float(per_draw_mean.std(ddof=1) / math.sqrt(n_draws)),
        total_variance=float(np.maximum(var_entries, 0.0).sum()),
    )


# At 100 x 100, rank 2, a chunk holds 50 draws in blocks of 6.  230 draws are
# 5 chunks, the last one short, which neither 2 nor 3 workers divide; 40 draws
# are a single chunk; 56 draws end in a chunk of exactly one block, which has
# no carry row.  At 800 x 700 every chunk is one draw.  A lone entry (1 x 1)
# is summed unblocked, in one chunk here.
PARALLEL_CASES = {
    "five_chunks": (NoiseModel(0.7, 1.3), 230, (100, 100, 2)),
    "single_chunk": (NoiseModel(0.7, 1.3), 40, (100, 100, 2)),
    "no_tall_noise": (NoiseModel(0.0, 1.3), 230, (100, 100, 2)),
    "no_wide_noise": (NoiseModel(0.7, 0.0), 230, (100, 100, 2)),
    "last_chunk_one_block": (NoiseModel(0.7, 1.3), 56, (100, 100, 2)),
    "one_draw_chunks": (NoiseModel(0.7, 1.3), 3, (800, 700, 2)),
    "lone_entry": (NoiseModel(0.7, 1.3), 100_000, (1, 1, 3)),
}


def parallel_factors(m=100, n=100, r=2):
    gen = np.random.default_rng(18)
    return gen.standard_normal((m, r)), gen.standard_normal((r, n))


class TestWorkers:
    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(count):
            monkeypatch.setattr(linalg, "_cpu_count", lambda: count)
        return force

    @pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
    def test_bit_identical_at_any_worker_count(self, cpus, case):
        model, draws, shape = PARALLEL_CASES[case]
        b, a = parallel_factors(*shape)
        rng = RngStream(19, (2,))
        expected = sequential_stats(b, a, model, draws, rng)
        for count in (1, 2, 3):
            cpus(count)
            assert noise_product_stats(b, a, model, draws, rng) == expected

    @pytest.mark.parametrize("cpu_count,draws,started", [(3, 230, 2), (2, 230, 1), (3, 40, 0),
                                                         (1, 230, 0)])
    def test_one_worker_per_cpu_at_most_one_per_chunk(self, cpus, monkeypatch, cpu_count, draws,
                                                      started):
        # the calling thread is a worker too, so it starts one thread fewer
        cpus(cpu_count)
        threads = []

        class CountedThread(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(linalg.threading, "Thread", CountedThread)
        b, a = parallel_factors()
        noise_product_stats(b, a, NoiseModel(0.7, 1.3), draws, RngStream(20))
        assert len(threads) == started

    def test_more_workers_than_cpus_under_fast_switching(self, cpus):
        # a chunk run twice, skipped or folded out of order changes the result
        b, a = parallel_factors()
        model = NoiseModel(0.7, 1.3)
        rng = RngStream(23)
        expected = sequential_stats(b, a, model, 1030, rng)  # 21 chunks
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert noise_product_stats(b, a, model, 1030, rng) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_generators_created_on_caller_once_per_chunk(self, cpus, monkeypatch):
        cpus(3)
        calls = []
        original = RngStream.generator

        def recorded(stream):
            calls.append((threading.get_ident(), stream.stream_path))
            return original(stream)

        monkeypatch.setattr(RngStream, "generator", recorded)
        b, a = parallel_factors()
        noise_product_stats(b, a, NoiseModel(0.7, 1.3), 230, RngStream(21, (4,)))
        assert calls == [(threading.get_ident(), (4, i)) for i in range(5)]

    def test_worker_exception_reaches_caller(self, cpus, monkeypatch):
        cpus(2)
        caller = threading.get_ident()
        raised = threading.Event()
        original = noise_stats._chunk_sums

        def failing(*args):
            if threading.get_ident() != caller:
                raised.set()
                raise RuntimeError("worker failed")
            raised.wait(timeout=10)  # the worker takes a chunk while the caller holds one
            return original(*args)

        monkeypatch.setattr(noise_stats, "_chunk_sums", failing)
        b, a = parallel_factors()
        with pytest.raises(RuntimeError, match="worker failed"):
            noise_product_stats(b, a, NoiseModel(0.7, 1.3), 230, RngStream(22))
        assert raised.is_set()


class TestWaves:
    """A wave's generators are created just before its chunks run, never all chunks' at once."""

    @pytest.fixture
    def one_draw_chunks(self, monkeypatch):
        monkeypatch.setattr(noise_stats, "_chunk_size", lambda m, n, r: 1)

    def test_bit_identical_across_wave_sizes(self, monkeypatch, one_draw_chunks):
        b, a = parallel_factors()
        b, a = b[:3], a[:, :4]
        model = NoiseModel(0.7, 1.3)
        rng = RngStream(25, (1,))
        expected = sequential_stats(b, a, model, 300, rng)  # 300 one-draw chunks
        for cpu_count, per_worker in ((1, 1), (2, 1), (2, 7), (3, 64), (1, 300)):
            monkeypatch.setattr(linalg, "_cpu_count", lambda count=cpu_count: count)
            monkeypatch.setattr(noise_stats, "_WAVE_PER_WORKER", per_worker)
            assert noise_product_stats(b, a, model, 300, rng) == expected

    @pytest.mark.parametrize("cpu_count", [1, 2])
    def test_at_most_one_wave_of_generators_ahead(self, monkeypatch, one_draw_chunks, cpu_count):
        created = []
        seen = []  # (generators created, chunks started) as each chunk starts
        original_generator = RngStream.generator
        original_chunk = noise_stats._chunk_sums

        def counting_generator(stream):
            created.append(stream.stream_path)
            return original_generator(stream)

        def recorded_chunk(*args):
            seen.append((len(created), len(seen)))
            return original_chunk(*args)

        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpu_count)
        monkeypatch.setattr(RngStream, "generator", counting_generator)
        monkeypatch.setattr(noise_stats, "_chunk_sums", recorded_chunk)
        b, a = parallel_factors()
        noise_product_stats(b[:3], a[:, :4], NoiseModel(0.7, 1.3), 300, RngStream(26))
        wave = noise_stats._WAVE_PER_WORKER * cpu_count
        assert created == [(i,) for i in range(300)]
        assert max(made - started for made, started in seen) == wave

    def test_noise_sweep_chunk_counts_are_one_wave(self):
        # the largest chunk count of a 10,000-draw rank sweep at the default 16 x 8, rank 128
        chunks = math.ceil(10_000 / noise_stats._chunk_size(16, 8, 128))
        assert chunks == 41 <= noise_stats._WAVE_PER_WORKER


class TestChunkMemory:
    """A chunk holds its tall draw plus one block; tracemalloc counts numpy's buffers."""

    @staticmethod
    def peak_bytes(m, n, r, count):
        gen = np.random.default_rng(27)
        b = gen.standard_normal((m, r))
        a = gen.standard_normal((r, n))
        clean = b @ a
        per_draw_mean = np.empty(count)
        tracemalloc.start()
        try:
            noise_stats._chunk_sums(b, a, clean, NoiseModel(1.0, 1.0), gen, per_draw_mean)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_noise_sweep_rank_8_chunk(self):
        # the tall draw alone is 3.8 MiB; the whole chunk's products and squares at once, 9.5 MiB
        count = noise_stats._chunk_size(16, 8, 8)
        assert count == 3_906
        assert self.peak_bytes(16, 8, 8, count) < 6 * 2**20

    def test_one_draw_chunk_holds_what_it_did_unblocked(self):
        # one draw is one block: products, squares and their two sums, four m x n arrays
        m, n = 800, 700
        assert noise_stats._chunk_size(m, n, 2) == 1
        assert self.peak_bytes(m, n, 2, 1) <= 1.01 * 4 * m * n * 8
