"""Matrix contracts: norms, products and stacking of factor pairs, seeded sampling.

The product and the stacking are numpy's ``@``, ``np.hstack`` and
``np.vstack``; they are tested where the package uses them, in
``global_delta`` and ``aggregate_stack``.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora_dp import linalg
from fedlora_dp.adapters import FrozenBase, GlobalAdapter, aggregate_stack, global_delta
from fedlora_dp.attacks import run_game
from fedlora_dp.linalg import RngStream, frobenius_norm, sample_gaussian
from fedlora_dp.noise_stats import NoiseModel, noise_product_stats
from fedlora_dp.privacy import MechanismParams
from fedlora_dp.config import RunConfig
from fedlora_dp.simulation import generate_task, run_experiment

# Frozen on first run: seed 42, path (1, 2, 3), sigma 1, shape 1x1.
GOLDEN_DRAW = 0.3637030706620304


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_three_four_five(self):
        # oracle: sqrt(3^2 + 4^2) = 5 exactly
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=50)
    def test_absolute_homogeneity(self, c):
        m = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert frobenius_norm(c * m) == pytest.approx(abs(c) * frobenius_norm(m), rel=1e-12, abs=1e-12)


def product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The dense product of one pair at unit weight; numpy's matmul checks that the pair chains."""
    return global_delta(aggregate_stack([(left, right)], [1.0]))


class TestMatmul:
    def test_identity_left(self):
        r = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(product(np.eye(2), r), r)

    def test_zero_left(self):
        out = product(np.zeros((3, 2)), np.ones((2, 4)))
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)

    def test_outer_product(self):
        # oracle: hand-computed outer product
        out = product(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]))
        assert np.array_equal(out, np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_associativity(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            a = gen.standard_normal((4, 3))
            b = gen.standard_normal((3, 5))
            c = gen.standard_normal((5, 2))
            left = product(product(a, b), c)
            right = product(a, product(b, c))
            rel = frobenius_norm(left - right) / max(frobenius_norm(left), 1e-300)
            assert rel <= 1e-12


def stack(b_parts: list[np.ndarray], a_parts: list[np.ndarray]) -> GlobalAdapter:
    """Stack unit-weight pairs: b parts side by side, a parts one above another."""
    return aggregate_stack(list(zip(b_parts, a_parts)), [1.0] * len(b_parts))


class TestStacking:
    def test_single_part_unchanged(self):
        b = np.array([[1.0, 2.0]])
        a = np.array([[3.0], [4.0]])
        g = stack([b], [a])
        assert np.array_equal(g.b_stacked, b)
        assert np.array_equal(g.a_stacked, a)

    def test_shapes_add_up(self):
        g = stack([np.ones((3, 1)), np.ones((3, 2))], [np.ones((1, 4)), np.ones((2, 4))])
        assert g.b_stacked.shape == (3, 3)
        assert g.a_stacked.shape == (3, 4)

    def test_column_concatenation(self):
        g = stack([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])],
                  [np.ones((1, 1)), np.ones((1, 1))])
        assert np.array_equal(g.b_stacked, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_row_concatenation(self):
        g = stack([np.ones((1, 1)), np.ones((1, 1))],
                  [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])])
        assert np.array_equal(g.a_stacked, np.array([[1.0, 2.0], [3.0, 4.0]]))

    @given(st.integers(1, 5), st.lists(st.integers(1, 4), min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_slicing_recovers_parts_bit_exact(self, rows, widths, seed):
        gen = np.random.default_rng(seed)
        parts = [gen.standard_normal((rows, w)) for w in widths]
        tall = [p.T.copy() for p in parts]
        g = stack(parts, tall)
        offsets = np.cumsum([0, *widths])
        for offset, w, part, part_t in zip(offsets, widths, parts, tall):
            assert np.array_equal(g.b_stacked[:, offset:offset + w], part)
            assert np.array_equal(g.a_stacked[offset:offset + w, :], part_t)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = sample_gaussian(3, 4, 1.5, RngStream(9, (0, 1)))
        b = sample_gaussian(3, 4, 1.5, RngStream(9, (0, 1)))
        assert np.array_equal(a, b)

    def test_child_extends_path(self):
        s = RngStream(5)
        assert s.child(1, 2).stream_path == (1, 2)
        assert s.child(1).child(2).stream_path == (1, 2)

    def test_golden_draw(self):
        m = sample_gaussian(1, 1, 1.0, RngStream(42, (1, 2, 3)))
        assert float(m[0, 0]) == GOLDEN_DRAW

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            RngStream(-1)


class TestSampleGaussian:
    def test_moments(self):
        n = 10**6
        draws = sample_gaussian(n, 1, 2.0, RngStream(123, (7,)))
        assert abs(draws.mean()) <= 5 * 2.0 / np.sqrt(n)
        assert abs(draws.var(ddof=1) - 4.0) <= 0.03 * 4.0

    def test_streams_uncorrelated(self):
        n = 200_000
        a = sample_gaussian(n, 1, 1.0, RngStream(55, (0,))).ravel()
        b = sample_gaussian(n, 1, 1.0, RngStream(55, (1,))).ravel()
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 5 / np.sqrt(n)


class TestEntryCheck:
    """Arrays are checked where they enter the program, and not in the round loop."""

    def test_nan_rejected_where_arrays_enter(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        good = np.eye(2)
        with pytest.raises(ValueError, match="non-finite"):
            FrozenBase(bad)
        with pytest.raises(ValueError, match="non-finite"):
            noise_product_stats(bad, good, NoiseModel(1.0, 1.0), 100, RngStream(0))
        mech = MechanismParams(clip_b=1.0, clip_a=1.0, sigma_b=1.0, sigma_a=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            run_game((good, good), (good, bad), mech, 100, RngStream(0))

    def test_round_loop_count_independent_of_rounds(self, monkeypatch):
        calls = []
        original = linalg.as_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("fedlora_dp") and getattr(module, "as_matrix", None) is original:
                monkeypatch.setattr(module, "as_matrix", counting)
        task = generate_task(8, 6, 2, 4, 20, 0.0, 0.0, RngStream(3, (0,)))
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)
        counts = []
        for rounds in (2, 6):
            config = RunConfig(rounds=rounds, clients=4, sampled_per_round=2, local_epochs=2,
                               batch_size=8, lr_start=0.05, lr_end=0.01, rank=2, lora_scale=2.0)
            calls.clear()
            run_experiment(config, task, RngStream(3, (1,)), mech)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestRunInOrder:
    """The package's one worker helper: which threads run the tasks, the fold order, a failure."""

    @pytest.fixture
    def started(self, monkeypatch):
        threads = []

        class CountedThread(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(linalg.threading, "Thread", CountedThread)
        return threads

    @pytest.mark.parametrize("n_tasks,cpu_count,workers,expected", [
        (7, 3, None, 3), (2, 3, None, 2), (7, 1, None, 1), (7, 3, 1, 1), (7, 3, 2, 2),
    ])
    def test_each_worker_index_is_one_thread_and_0_is_the_caller(self, monkeypatch, started,
                                                                 n_tasks, cpu_count, workers,
                                                                 expected):
        # the workers are the caller and the threads the helper starts, no others
        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpu_count)
        seen, folded = [], []

        def run(i):
            seen.append((i, threading.get_ident()))
            return i

        linalg._run_in_order(n_tasks, run, folded.append, workers=workers)
        assert folded == list(range(n_tasks))
        assert sorted(i for i, _ in seen) == list(range(n_tasks))
        assert len(started) == expected - 1
        workers_seen = {ident for _, ident in seen}
        assert workers_seen <= {threading.get_ident()} | {thread.ident for thread in started}

    def test_default_fold_discards(self, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        done = []
        linalg._run_in_order(5, lambda i: done.append(i))
        assert sorted(done) == list(range(5))

    def test_a_result_of_none_is_folded_at_once(self):
        # A task that returns None is done too: at one worker each result is
        # folded before the next task runs, so no finished result waits.
        events = []
        linalg._run_in_order(4, lambda i: events.append(("run", i)),
                             lambda result: events.append(("fold", result)), workers=1)
        assert events == [event for i in range(4) for event in (("run", i), ("fold", None))]

    def test_a_failure_starts_no_new_task_and_waits_for_every_thread(self, started):
        # Each worker holds one of the first tasks when a started thread's task
        # raises; the other workers' tasks end only after that thread has exited.
        workers = 3
        caller = threading.current_thread()
        holding = threading.Barrier(workers, timeout=10)
        taken, starts_before_raise = [], []

        def run(i):
            taken.append(i)
            if i < workers:
                holding.wait()
            thread = threading.current_thread()
            if thread is started[0]:
                starts_before_raise.append(len(taken))
                raise RuntimeError("task failed")
            started[0].join(timeout=10)
            if thread is not caller:
                time.sleep(0.05)  # still running when a helper that skipped the join would raise
            return i

        with pytest.raises(RuntimeError, match="task failed"):
            linalg._run_in_order(20, run, workers=workers)
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)
        assert starts_before_raise == [workers]
        assert sorted(taken) == list(range(workers))
