"""Keyed random streams, seeded Gaussian draws, the Frobenius norm, the entry check,
and the package's one in-order worker helper.

Matrices are plain 2-D float64 ``numpy.ndarray`` values in C (row-major)
order, combined with numpy's ``@``, ``np.hstack`` and ``np.vstack``.  Arrays
are checked by ``as_matrix`` only where they enter the program: the base
weight (``FrozenBase``), the factors given to ``noise_product_stats``, and the
two means given to ``attacks.run_game``.  Inside the round loop nothing is
re-checked; a non-finite number produced by training is caught once in
``simulation.local_train`` and raised as ``NumericError`` (exit code 2).

``_run_in_order`` runs tasks on up to one thread per CPU, the calling thread
among them, and folds their results on the calling thread in task order.  It
serves ``noise_stats.noise_product_stats`` (Monte Carlo chunks) and
``simulation.run_round`` (base residuals and server-step row blocks).  Tasks
call numpy only, which releases the GIL while it computes.  Each task writes
arrays no other task touches, and every floating-point operation is the same,
in the same order, as on one thread, so the results are bit-identical at any
worker count.
"""

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "as_matrix",
    "frobenius_norm",
    "sample_gaussian",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by a root seed and an integer path.

    Two streams with distinct paths are statistically independent; the same
    (root_seed, stream_path) always reproduces the same sequence, no matter
    how concurrently the streams are consumed.  ``generator()`` returns a
    fresh generator positioned at the start of the stream, so a stream used
    for two different draws must be split first via ``child``.
    """

    root_seed: int
    stream_path: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.root_seed < 2**64:
            raise ValueError(f"root_seed must be a 64-bit unsigned integer, got {self.root_seed}")
        object.__setattr__(self, "stream_path", tuple(int(p) for p in self.stream_path))

    def child(self, *path: int) -> "RngStream":
        """Derive an independent sub-stream by extending the path."""
        return RngStream(self.root_seed, self.stream_path + path)

    def generator(self) -> np.random.Generator:
        """Fresh generator at the origin of this stream."""
        seq = np.random.SeedSequence(self.root_seed, spawn_key=self.stream_path)
        return np.random.Generator(np.random.PCG64(seq))


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-ordered float64 2-D array, rejecting non-finite entries."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {m.ndim} dimension(s)")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squared entries.

    ``np.linalg.norm(m, "fro")`` is a BLAS dot product, which OpenBLAS splits
    across threads, so its last bits can change between one and two BLAS
    threads: a 1024x16 factor's norm does, a matrix of 8,192 entries' does
    not.  That is why perfbench and ``test_multi_block_run_matches_digest``
    pin one BLAS thread; ROADMAP item 15 owns the fix.
    """
    return float(np.linalg.norm(m, "fro"))


def sample_gaussian(rows: int, cols: int, sigma: float, rng: RngStream,
                    count: int | None = None) -> np.ndarray:
    """i.i.d. N(0, sigma^2) matrix; sigma == 0 returns an exact zero matrix.

    With ``count``, one draw of ``count`` such matrices stacked as
    (count, rows, cols); the first equals the matrix drawn without ``count``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    shape = (rows, cols) if count is None else (count, rows, cols)
    if sigma == 0:
        return np.zeros(shape)
    out = rng.generator().standard_normal(shape)
    out *= sigma
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_tasks: int) -> int:
    """Workers ``_run_in_order`` uses by default: one per CPU, at most one per task."""
    return min(n_tasks, _cpu_count())


def _run_in_order(n_tasks: int, run: Callable[[int, int], object],
                  fold: Callable[[object], None] = lambda result: None,
                  workers: int | None = None) -> None:
    """``run(i, worker)`` for each task on ``workers`` threads; ``fold`` on the caller in order.

    ``workers`` defaults to ``_worker_count(n_tasks)``.  Worker 0 is the
    calling thread, so one worker starts no thread; ``worker`` lets a task
    use scratch arrays the caller allocated for that worker.  Workers take
    the next task index as they come free, and the caller folds each result
    as soon as every earlier one has been folded, so only the results that
    finished out of order wait in memory.  Tasks that write into arrays the
    caller allocated return nothing and need no ``fold``.  The first
    exception raised by any worker stops the others from taking new tasks
    and is re-raised here once all of them have returned.
    """
    if workers is None:
        workers = _worker_count(n_tasks)
    tasks = iter(range(n_tasks))
    taking = threading.Lock()
    results: list = [None] * n_tasks
    failed: list[BaseException] = []
    folded = 0

    def work(worker: int) -> None:
        nonlocal folded
        try:
            while not failed:
                with taking:
                    i = next(tasks, None)
                if i is None:
                    return
                results[i] = run(i, worker)
                while worker == 0 and folded < n_tasks and results[folded] is not None:
                    fold(results[folded])
                    results[folded] = None
                    folded += 1
        except BaseException as exc:
            failed.append(exc)

    threads = [threading.Thread(target=work, args=(worker,)) for worker in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    for result in results[folded:]:
        fold(result)
