"""Monte Carlo and closed-form statistics of noise-perturbed factor products.

For clean factors B (m x r) and A (r x n) perturbed by independent isotropic
Gaussian matrices, the perturbed product (B + beta)(A + alpha) is unbiased for
B A, and its total elementwise variance (sum over entries of per-entry
variances) has the exact closed form

    n * sa^2 * ||B||_F^2  +  m * sb^2 * ||A||_F^2  +  m * n * r * sb^2 * sa^2.

A three-term bound with the m and n coefficients on the first two terms
exchanged is also evaluated for reporting; it coincides with the exact value
whenever m == n but is not an upper bound on asymmetric shapes.

The Monte Carlo chunks of ``noise_product_stats`` run concurrently through
the package's in-order worker helper, ``linalg._run_in_order``; their sums are
folded in chunk order, so the statistics are bit-identical at any worker
count.  A chunk holds its whole tall draw plus one block of wide draws,
products and squares at a time.  The wide draws come in blocks from the
chunk's one generator, with the values of a single draw, and each block's
running sums ride in row 0 of the next block's buffers, so every sum adds
the same numbers in the same order as one sum over the whole chunk.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import RngStream, as_matrix

__all__ = [
    "NoiseModel",
    "NoiseStats",
    "SweepRow",
    "noise_product_stats",
    "exact_total_variance",
    "variance_bound",
    "sweep",
]


@dataclass(frozen=True)
class NoiseModel:
    """Noise scales applied to the tall factor (beta) and the wide factor (alpha)."""

    sigma_beta: float
    sigma_alpha: float

    def __post_init__(self):
        if self.sigma_beta < 0 or self.sigma_alpha < 0:
            raise ValueError(
                f"noise scales must be >= 0, got ({self.sigma_beta}, {self.sigma_alpha})"
            )


@dataclass(frozen=True)
class NoiseStats:
    """Monte Carlo summary of the perturbed product."""

    mean_diff: float
    std_error: float
    total_variance: float


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: its label plus its noise statistics."""

    value: str
    mean_diff: float
    std_error: float
    mc_variance: float
    exact_variance: float
    bound: float


# Chunks per worker in one wave; a wave's generators are all that exist at once.
_WAVE_PER_WORKER = 64


def _chunk_size(m: int, n: int, r: int) -> int:
    """Draws per chunk: at most 500,000 floats in any one operand's draws."""
    biggest = max(m * r, r * n, m * n)
    return max(1, 500_000 // biggest)


# Floats in one block's products or wide draws: a chunk's tall draw plus one
# block is what it holds at once.
_BLOCK_FLOATS = 65_536


def _chunk_sums(b: np.ndarray, a: np.ndarray, clean: np.ndarray, model: NoiseModel,
                gen: np.random.Generator, per_draw_mean: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of ``len(per_draw_mean)`` draws: (sum of products, sum of squares).

    Fills ``per_draw_mean`` with each draw's entry-averaged (B+beta)(A+alpha) - BA.

    The chunk's generator yields every tall draw before any wide one, so the
    tall draws are taken whole; the wide draws then come from the same
    generator in blocks of ``_BLOCK_FLOATS // max(m*n, r*n)`` draws, with the
    values of a single draw.  Each block's products and their squares go
    into one pair of buffers reused for the whole chunk, so the chunk holds
    its tall draw plus one block at a time.  numpy sums an (draws, m, n)
    array along axis 0 row by row, in order, so the running sums ride in
    row 0 of the next block's buffers: every sum adds the same numbers in
    the same order as one sum over the whole chunk.  A chunk that fits one
    block needs no carry row.  A lone entry (m*n == 1) is not blocked,
    because numpy sums a column of single entries pairwise, not in order.
    """
    count = len(per_draw_mean)
    m, r = b.shape
    n = a.shape[1]
    if model.sigma_beta > 0:
        tall = gen.standard_normal((count, m, r))
        tall *= model.sigma_beta
        tall += b
    else:
        tall = np.broadcast_to(b, (count, m, r))
    block = max(1, _BLOCK_FLOATS // max(m * n, r * n)) if m * n > 1 else count
    carry = int(count > block)
    prods = np.empty((carry + min(count, block), m, n))
    squares = np.empty_like(prods)
    sums = None
    for start in range(0, count, block):
        size = min(block, count - start)
        if model.sigma_alpha > 0:
            wide = gen.standard_normal((size, r, n))
            wide *= model.sigma_alpha
            wide += a
        else:
            wide = np.broadcast_to(a, (size, r, n))
        rows = slice(carry, carry + size)
        np.matmul(tall[start:start + size], wide, out=prods[rows])
        np.multiply(prods[rows], prods[rows], out=squares[rows])
        first = rows.start
        if sums is not None:
            prods[0], squares[0] = sums
            first = 0
        sums = prods[first:rows.stop].sum(axis=0), squares[first:rows.stop].sum(axis=0)
        prods[rows] -= clean
        per_draw_mean[start:start + size] = prods[rows].mean(axis=(1, 2))
    return sums


def noise_product_stats(
    b: np.ndarray,
    a: np.ndarray,
    model: NoiseModel,
    n_draws: int,
    rng: RngStream,
) -> NoiseStats:
    """Single-pass Monte Carlo over perturbed products.

    Draws are generated in chunks of ``_chunk_size`` draws; chunk i draws from
    sub-stream ``rng.child(i)``.  A chunk holds its tall draw plus one block
    of draws at a time (see ``_chunk_sums``): the wide draws come in blocks
    from the chunk's one generator, with the values of a single draw, and
    the running sums ride in row 0 of each next block, so they are added in
    the order of one sum over the chunk.  The chunks run in waves of
    ``_WAVE_PER_WORKER`` chunks per CPU this process may use.  The calling
    thread creates a wave's generators, in chunk order, before any of its
    chunks runs, so at most one wave of generators exists at a time.  A
    wave's chunks then run through ``linalg._run_in_order``, on one worker
    per CPU, at most one per chunk, the calling thread among them; workers
    call only numpy, which releases the
    GIL while it fills and multiplies arrays.  Each chunk's sums are added on
    the calling thread in chunk order, and each chunk writes its own slice of
    the per-draw means, so every floating-point operation and its order are
    the same whatever the number of workers or the wave size: the result is
    bit-identical.
    Reports the entry-averaged mean of (B+beta)(A+alpha) - BA with its
    standard error, and the unbiased per-entry sample variance summed over
    entries.
    """
    b = as_matrix(b, "b factor")
    a = as_matrix(a, "a factor")
    if b.shape[1] != a.shape[0]:
        raise ValueError(f"factor shapes {b.shape} and {a.shape} do not chain")
    if n_draws < 2:
        raise ValueError(f"need at least 2 draws, got {n_draws}")

    m, r = b.shape
    n = a.shape[1]
    if model.sigma_beta == 0 and model.sigma_alpha == 0:
        return NoiseStats(mean_diff=0.0, std_error=0.0, total_variance=0.0)
    clean = b @ a
    starts = range(0, n_draws, _chunk_size(m, n, r))
    per_draw_mean = np.empty(n_draws)
    sum_prod = np.zeros((m, n))
    sum_sq = np.zeros((m, n))

    def fold(sums: tuple[np.ndarray, np.ndarray]) -> None:
        np.add(sum_prod, sums[0], out=sum_prod)
        np.add(sum_sq, sums[1], out=sum_sq)

    # An overflow is not trapped per operation: it shows as a non-finite
    # statistic, which raises below.  The error state is per thread, so each
    # chunk sets its own.
    ignore = dict(over="ignore", invalid="ignore")
    wave = _WAVE_PER_WORKER * linalg._cpu_count()
    with np.errstate(**ignore):
        for first in range(0, len(starts), wave):
            chunks = starts[first:first + wave]
            generators = [rng.child(first + j).generator() for j in range(len(chunks))]

            def run(j: int) -> tuple[np.ndarray, np.ndarray]:
                span = per_draw_mean[chunks[j]:chunks[j] + starts.step]
                with np.errstate(**ignore):
                    return _chunk_sums(b, a, clean, model, generators[j], span)

            linalg._run_in_order(len(chunks), run, fold)
            del generators  # freed before the next wave's are created

        mean_diff = float(per_draw_mean.mean())
        std_error = float(per_draw_mean.std(ddof=1) / math.sqrt(n_draws))
        var_entries = (sum_sq - sum_prod * sum_prod / n_draws) / (n_draws - 1)
        total_variance = float(np.maximum(var_entries, 0.0).sum())
    stats = NoiseStats(mean_diff=mean_diff, std_error=std_error, total_variance=total_variance)
    if not all(map(math.isfinite, (mean_diff, std_error, total_variance))):
        raise OverflowError(f"Monte Carlo statistics overflow at noise scales "
                            f"({model.sigma_beta}, {model.sigma_alpha}): {stats}")
    return stats


def _three_term_variance(b: np.ndarray, a: np.ndarray, model: NoiseModel,
                         exchanged: bool) -> float:
    """c_b*sa^2*||B||^2 + c_a*sb^2*||A||^2 + m*n*r*sb^2*sa^2, (c_b, c_a) = (n, m) or (m, n)."""
    m, r = b.shape
    n = a.shape[1]
    coef_b, coef_a = (m, n) if exchanged else (n, m)
    sb2 = model.sigma_beta**2
    sa2 = model.sigma_alpha**2
    norm_b2 = float(np.sum(b * b))
    norm_a2 = float(np.sum(a * a))
    value = coef_b * sa2 * norm_b2 + coef_a * sb2 * norm_a2 + m * n * r * sb2 * sa2
    if not math.isfinite(value):
        raise OverflowError(f"closed-form variance overflows at noise scales "
                            f"({model.sigma_beta}, {model.sigma_alpha})")
    return value


def exact_total_variance(b: np.ndarray, a: np.ndarray, model: NoiseModel) -> float:
    """Closed-form total elementwise variance of the perturbed product."""
    return _three_term_variance(b, a, model, exchanged=False)


def variance_bound(b: np.ndarray, a: np.ndarray, model: NoiseModel) -> float:
    """Three-term bound with the outer-dimension coefficients exchanged.

    Evaluates m*sa^2*||B||^2 + n*sb^2*||A||^2 + m*n*r*sb^2*sa^2.  Reported
    alongside the exact value; equal to it when m == n.
    """
    return _three_term_variance(b, a, model, exchanged=True)


def _scaled_factors(
    m: int, n: int, r: int, norm_b: float, norm_a: float, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian factors rescaled to exact Frobenius norms (zero stays zero)."""
    gen = rng.generator()
    b = gen.standard_normal((m, r))
    a = gen.standard_normal((r, n))
    b = b * (norm_b / linalg.frobenius_norm(b)) if norm_b > 0 else np.zeros((m, r))
    a = a * (norm_a / linalg.frobenius_norm(a)) if norm_a > 0 else np.zeros((r, n))
    return b, a


def sweep(points: list[tuple[str, int, int, int]], model: NoiseModel, n_draws: int,
          rng: RngStream, norm_b: float = 1.0, norm_a: float = 1.0) -> list[SweepRow]:
    """One row per (label, m, n, r) point, as a row of ``config._NOISE_SWEEPS`` gives them.

    Point i draws its factors from ``rng.child(i, 0)`` and its Monte Carlo
    noise from ``rng.child(i, 1)``, at fixed factor norms and noise scales.
    """
    rows = []
    for i, (label, m, n, r) in enumerate(points):
        b, a = _scaled_factors(m, n, r, norm_b, norm_a, rng.child(i, 0))
        # the closed forms first: a scale whose square overflows fails before any draw
        exact, bound = exact_total_variance(b, a, model), variance_bound(b, a, model)
        stats = noise_product_stats(b, a, model, n_draws, rng.child(i, 1))
        rows.append(SweepRow(value=label, mean_diff=stats.mean_diff,
                             std_error=stats.std_error, mc_variance=stats.total_variance,
                             exact_variance=exact, bound=bound))
    return rows
