"""Federated round loop over synthetic regression tasks.

Each round the server samples clients, every sampled client trains a fresh
low-rank factor pair (b, a) against the effective base (frozen weights plus
the accumulated global delta, which the server holds) and releases it
through ``privacy.privatize`` (``IDENTITY_MECHANISM`` in a non-private run),
and the server stacks the released pairs into a dense pseudo-gradient
that one of six aggregation strategies applies.  Broadcast is
fold-and-reset: the dense delta is accumulated server-side and clients draw
fresh pairs, so per-round shapes never grow.  Factor pairs are plain arrays;
the LoRA scale ``lora_scale / rank`` is computed once per round and passed
alongside them.

A round reports one ``Release`` record per sampled client, in ascending id
order: the client's mean training loss over its last local epoch and the
Frobenius norms of its trained B and A, taken before clipping.

Client data lives on one client axis: the task holds every client's rows
as two stacked arrays, x (clients, rows, n) and y (clients, rows, m), so
every client holds the same number of rows and client k's data is x[k] and
y[k].  Local training runs the sampled clients in lockstep along the same
axis: ``local_train`` takes a group's rows x[ids] with its factors stacked
as (k, m, r) and (k, r, n), and each step is one batched matmul over that
axis instead of k interpreted steps.  Equal row counts give the group one
batch schedule, while each client keeps its own shuffling stream; the
results are bit-identical to training each client alone.  Each client's B
and A are views of one parameter row, so a step is five batched matmuls
into buffers made once per call and five in-place updates of the whole
group; the batch losses are reduced once per epoch, and the trained
factors come back as views of the group's parameter array.  The group size
is set by the shape (``_group_size``): a small shape trains a whole round in
one call, and a large one falls back to small groups, down to one client.
A non-finite loss or factor names the client and epoch that training the
clients one by one, in ascending id order, would have named, and
``run_round`` puts its round index before them.

The server step (``_apply_strategy``) updates the accumulators in place,
in row blocks of about 256 KB per operand (``_BLOCK_FLOATS``), and finishes
each block before the next, so no m x n temporary is made.  Each block of
the effective base W + delta_acc is refreshed right after its block of
delta_acc, while that block is still in cache; the effective base is a
derived copy the step keeps current, held across rounds so that no round
allocates a fresh one.  Every entry goes through the same operations, in
the same order, as the whole-matrix formulas, so the results match them bit
for bit.

Three phases run on worker threads at large shapes, through
``linalg._run_in_order``: task generation (one task per client: its draws
and its GEMM against the signal), the base residuals X effective^T - Y of
every group, computed before training (one task per group), and the server
step (one task per row block).  Each task writes arrays no other task
touches, with the same operations on any thread, so every output is
bit-identical at any worker count.  Every phase starts threads only from
``_THREAD_FLOATS`` entries on, which small shapes never reach.
Every generator is made on the calling thread.  Training, clipping, noise
and stacking run on the calling thread, in ascending client id order, so
the ``NumericError`` a run raises and every random stream are the same too.

Each dense matrix a run reads is held once.  The task keeps its target as
two factors, a round takes its metrics before the server step and drops
each per-client array after its last reader, and the end-of-run losses run
after the server's accumulators are freed.  So at its peak a large run
holds the task, the server's accumulators and the round's dense
``delta_t``, which the step applies.

All randomness flows through streams keyed by (round, client, draw kind),
which makes runs bit-reproducible regardless of client scheduling.

The loop reads its settings from a ``RunConfig``, which checked every value
when it was made, and checks none of them again.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .adapters import (
    FactorPair,
    FrozenBase,
    GlobalAdapter,
    aggregate_stack,
    global_delta,
    init_adapter,
)
from .config import RunConfig
from .linalg import RngStream, frobenius_norm
from .noise_stats import NoiseModel, exact_total_variance
from .privacy import IDENTITY_MECHANISM, MechanismParams, privatize

__all__ = [
    "NumericError",
    "SyntheticTask",
    "ServerState",
    "Release",
    "RoundMetrics",
    "LocalTrainResult",
    "ExperimentResult",
    "generate_task",
    "dataset_loss",
    "cosine_lr",
    "local_train",
    "sample_clients",
    "run_round",
    "run_experiment",
]

# Draw-kind tags for stream paths.
_KIND_SAMPLE = 0
_KIND_INIT = 1
_KIND_TRAIN = 2
_KIND_NOISE_B = 3
_KIND_NOISE_A = 4


class NumericError(RuntimeError):
    """Raised when training produces a non-finite loss or factor."""


@dataclass(frozen=True)
class SyntheticTask:
    """Linear regression task y = (W + target_delta) x + noise, split over clients.

    ``x`` and ``y`` are C-contiguous and stacked along a leading client axis:
    client k's inputs are ``x[k]`` and its targets ``y[k]``, and every client
    holds the same number of rows.  The target is held as its two scaled
    factors, so the only m x n array a task holds is ``base.w``;
    ``target_delta`` recomputes their product on each read.
    """

    base: FrozenBase
    target_b: np.ndarray  # (m, r_star)
    target_a: np.ndarray  # (r_star, n)
    x: np.ndarray  # (clients, rows, n)
    y: np.ndarray  # (clients, rows, m)

    @property
    def target_delta(self) -> np.ndarray:
        """The m x n target product, formed anew on each read; only the audit game reads it."""
        return self.target_b @ self.target_a

    @property
    def m(self) -> int:
        return self.base.shape[0]

    @property
    def n(self) -> int:
        return self.base.shape[1]

    @property
    def n_clients(self) -> int:
        return len(self.x)


# Strategies that keep a first moment, and those that also keep a second.
_WITH_MOMENTUM = ("fedavgm", "fedadagrad", "fedyogi", "fedadam")
_ADAPTIVE = ("fedadagrad", "fedyogi", "fedadam")


@dataclass
class ServerState:
    """Server-side accumulators, m x n; unread ones are None.

    ``_apply_strategy`` updates ``delta_acc``, ``momentum`` and
    ``second_moment`` in place, one row block at a time; each stays the same
    array for the whole run.  ``effective`` is not an accumulator: it is the
    derived copy W + delta_acc that clients train against, and the step
    refreshes each of its blocks right after the same block of
    ``delta_acc``, so it stays equal to ``base.w + delta_acc`` bit for bit.
    """

    base: FrozenBase
    delta_acc: np.ndarray
    effective: np.ndarray
    momentum: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    round_index: int = 0

    @classmethod
    def fresh(cls, base: FrozenBase, strategy: str) -> "ServerState":
        shape = base.shape
        delta_acc = np.zeros(shape)
        return cls(
            base=base,
            delta_acc=delta_acc,
            effective=base.w + delta_acc,
            momentum=np.zeros(shape) if strategy in _WITH_MOMENTUM else None,
            second_moment=np.zeros(shape) if strategy in _ADAPTIVE else None,
        )


@dataclass(frozen=True)
class Release:
    """One sampled client's release in a round: its training loss and pre-clip factor norms.

    ``mean_loss`` is the client's mean batch loss over its last local epoch;
    ``norm_b`` and ``norm_a`` are the Frobenius norms of its trained B and A
    taken before clipping, so they can exceed the mechanism's clips.
    """

    client_id: int
    mean_loss: float
    norm_b: float
    norm_a: float


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round observables; without DP, ``expectation_diff`` and ``total_variance`` are 0.

    ``releases`` holds one ``Release`` per sampled client, in ascending client
    id order, with its factor norms taken before clipping.
    ``mean_train_loss`` is the mean of their ``mean_loss``.
    """

    round_index: int
    mean_train_loss: float
    releases: tuple[Release, ...]
    global_delta_norm: float
    expectation_diff: float
    total_variance: float


@dataclass(frozen=True)
class LocalTrainResult:
    """A group's trained factors, stacked along the client axis as ``local_train`` took them."""

    b: np.ndarray  # (k, m, r)
    a: np.ndarray  # (k, r, n)
    mean_loss: np.ndarray  # (k,): each client's mean batch loss over its last epoch
    steps: int  # client-steps: k times each client's steps


@dataclass(frozen=True)
class ExperimentResult:
    rounds: tuple[RoundMetrics, ...]
    initial_loss: float
    final_loss: float
    wall_s: float


# Entries of an m x n operand a phase must stream before its tasks run on
# worker threads: m * n for task generation (one task per client) and for the
# server step (16 row blocks), k * m * n for one group's residual GEMMs.
# Below it a phase runs on the calling thread.  A thread costs far more inside
# a round than its start and join: on a 2-core box (numpy 2.4.6, OpenBLAS, one
# BLAS thread, in-process ``run_experiment``, medians of 11-15 interleaved
# runs) threading the step alone slowed 200 x 300 fedavg from 3.9 to 4.6 ms a
# round and 512 x 512 fedadam from 26.9 to 28.4 ms, and threading the
# residuals alone slowed 512 x 512 (two groups of one client, 13M
# multiply-adds each) from 13.8 to 14.1 ms and 64 x 64 with 20 of 20 clients
# from 33.7 to 35.3 ms, while both phases together took the 1024 x 1024
# ``fl_dense`` run from 1.51 to 1.20 s.
_THREAD_FLOATS = 1 << 19

# Task-generation draw kinds.
_TASK_BASE = 0
_TASK_TARGET = 1
_TASK_CLIENT = 2


def generate_task(
    m: int,
    n: int,
    r_star: int,
    n_clients: int,
    samples_per_client: int,
    sigma_obs: float,
    heterogeneity: float,
    rng: RngStream,
) -> SyntheticTask:
    """Build a realizable low-rank regression task with optional client shift.

    Base entries are N(0, 1/n); the rank-r_star target product is rescaled to
    unit Frobenius norm, and the task keeps it as the factors
    ``target_b = b_star * s`` and ``target_a = a_star * s``, never as the
    product (``SyntheticTask.target_delta`` recomputes it, bit for bit).
    Client k draws inputs from N(mu_k, I) where ||mu_k|| equals the
    heterogeneity parameter; at 0 no shift is drawn or added.  Each client's
    rows are drawn from its own stream straight into its slice of the
    stacked ``x`` and ``y``.  Every client's generator is made on the calling
    thread, in client order; from ``_THREAD_FLOATS`` entries of the signal
    on, the clients' draws and GEMMs are the tasks of
    ``linalg._run_in_order``.  Each client writes only its own slices, with
    the same operations on any thread, so the task is the same at any
    worker count.
    The arguments are not checked here: the ``RunConfig`` they come from
    checked its keys when it was made (1 <= r_star <= min(m, n), positive
    sizes, sigma_obs >= 0, heterogeneity in [0, 1]).
    """
    gen_base = rng.child(_TASK_BASE).generator()
    w = gen_base.standard_normal((m, n)) / math.sqrt(n)

    gen_target = rng.child(_TASK_TARGET).generator()
    b_star = gen_target.standard_normal((m, r_star)) / math.sqrt(r_star)
    a_star = gen_target.standard_normal((r_star, n)) / math.sqrt(r_star)
    product_norm = frobenius_norm(b_star @ a_star)
    scale = 1.0 / math.sqrt(product_norm)
    target_b, target_a = b_star * scale, a_star * scale

    # summed in place: IEEE addition commutes, so signal equals w + target_delta bit for bit
    signal = target_b @ target_a
    signal += w
    x = np.empty((n_clients, samples_per_client, n))
    y = np.empty((n_clients, samples_per_client, m))
    gens = [rng.child(_TASK_CLIENT, k).generator() for k in range(n_clients)]

    def run(k: int) -> None:
        gen_k = gens[k]
        direction = gen_k.standard_normal(n) if heterogeneity > 0 else None
        gen_k.standard_normal(out=x[k])
        if direction is not None:
            x[k] += heterogeneity * direction / np.linalg.norm(direction)
        np.matmul(x[k], signal.T, out=y[k])
        if sigma_obs > 0:
            y[k] += sigma_obs * gen_k.standard_normal((samples_per_client, m))

    workers = linalg._worker_count(n_clients) if m * n >= _THREAD_FLOATS else 1
    linalg._run_in_order(n_clients, run, workers=workers)
    return SyntheticTask(base=FrozenBase(w), target_b=target_b, target_a=target_a, x=x, y=y)


def dataset_loss(model: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Half mean squared prediction error of a dense model over a dataset.

    The error is squared in place: over a whole task at 1024 x 1024 each
    temporary is 8 MB, and this runs at the end of a run, when peak memory
    is read.
    """
    err = x @ model.T
    err -= y
    err *= err
    return float(0.5 * np.sum(err) / x.shape[0])


def cosine_lr(lr_start: float, lr_end: float, round_index: int, rounds: int) -> float:
    """Cosine schedule across rounds, from lr_start at round 0 to lr_end at the last."""
    if rounds <= 1:
        return lr_start
    t = round_index / (rounds - 1)
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * t))


def _sum_sq(t: np.ndarray) -> np.ndarray:
    """Sum of squares of each client's slice of a stacked (k, ...) array."""
    return (t * t).reshape(len(t), -1).sum(axis=1)


def local_train(
    client_ids: list[int],
    x: np.ndarray,
    b: np.ndarray,
    a: np.ndarray,
    scale: float,
    resid: np.ndarray,
    rngs: list[RngStream],
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    prox_mu: float = 0.0,
) -> LocalTrainResult:
    """Mini-batch gradient descent on a group of clients' factor pairs, in lockstep.

    Client ``client_ids[i]`` of the group trains the pair (b[i], a[i]) on its
    rows ``x[i]``: ``x`` is (k, rows, n), ``b`` is (k, m, r) and ``a`` is
    (k, r, n), stacked along a leading client axis, and each step is one
    batched matmul over that axis.  ``rngs[i]`` shuffles client i's
    minibatches.  A stacked ``x`` gives every client of the group the same
    number of rows, so all share one batch schedule; the results equal k
    separate calls with groups of one, bit for bit.  ``scale`` is the LoRA
    scale ``lora_scale / rank``.  ``resid`` is
    the (k, rows, m) base residual R = X effective^T - Y of each client
    against the effective base W + delta_acc, which ``run_round`` computes
    for every group before training (``_base_residuals``).  The loss is half
    the mean squared error of (effective + scale*B@A) against the client's
    targets, plus prox_mu/2 * (||B||^2 + ||A||^2) when ``prox_mu`` > 0.
    No m x n matrix is formed per step: a minibatch of bs rows costs
    O(bs * (m + n) * r) per client:

        xa    = xb @ A.T
        err   = R[batch] + scale * xa @ B.T
        dL/dB = (scale / bs) * err.T @ xa
        dL/dA = (scale / bs) * (err @ B).T @ xb

    These are scale*G@A.T and scale*B.T@G for the batch-mean error outer
    product G = err.T @ xb / bs.

    A step is five ``np.matmul(..., out=...)`` calls, one per line above
    plus err @ B, and five in-place updates, each over the whole group.
    Client i's B and A are reshaped views of row i of one (k, m*r + r*n)
    parameter array, and its gradients of the same row of a gradient array
    of that layout, so scaling, learning rate and update are one call each.
    The buffers are made once per call: the epoch's shuffled rows of ``x``
    and ``resid`` (gathered with ``np.take`` from every epoch's permutations,
    drawn up front), xa and err @ B, one batch deep, and err, which holds
    each batch's error at the batch's own rows.  Each batch's views into them
    are made once too.  The batch losses are reduced from err once per
    epoch, each over the same run of numbers as a sum over that batch
    alone; the fedprox term is taken at each step, before the update.  Every
    entry goes through the same IEEE operations, in the same order, as one
    step at a time with fresh arrays, so the results match that bit for bit.

    Neither ``x``, ``resid`` nor the given factors are mutated.  The trained
    factors come back as views of the group's parameter array (the given
    ones when ``epochs`` is 0), with each client's mean batch loss over the
    last epoch (its loss over all its rows when ``epochs`` is 0).  ``steps``
    counts client-steps: k times each client's steps.
    A non-finite batch loss, or a non-finite factor after the last step,
    raises ``NumericError`` naming the client and epoch the sequential loop
    would have named: the first client of the group with a non-finite loss
    in any epoch, at its first such epoch, unless a client before it ends
    with a non-finite factor.  Both come from one pass over every epoch's
    losses and the final factors after training.  This is the only
    finiteness check between the task and the server step.
    """
    k, n_samples = x.shape[:2]
    batch_size = min(batch_size, n_samples)

    if epochs == 0:
        err = x @ a.transpose(0, 2, 1) @ b.transpose(0, 2, 1)
        err *= scale
        err += resid
        losses = 0.5 * _sum_sq(err) / n_samples
        if prox_mu > 0:
            losses += 0.5 * prox_mu * (_sum_sq(b) + _sum_sq(a))
        return LocalTrainResult(b, a, mean_loss=losses, steps=0)

    m, r = b.shape[1:]
    n = x.shape[2]
    sizes = [min(batch_size, n_samples - start) for start in range(0, n_samples, batch_size)]
    full = n_samples // batch_size  # batches of batch_size rows; a ragged last one follows
    # One parameter row per client, B then A, and one gradient row of the same
    # layout: the step's scaling, learning rate and update are one call each.
    params = np.concatenate([b.reshape(k, -1), a.reshape(k, -1)], axis=1)
    grads = np.empty_like(params)
    b, a = params[:, :m * r].reshape(k, m, r), params[:, m * r:].reshape(k, r, n)
    grad_b, grad_a = grads[:, :m * r].reshape(k, m, r), grads[:, m * r:].reshape(k, r, n)
    b_t, a_t = b.transpose(0, 2, 1), a.transpose(0, 2, 1)

    # Each generator draws only its client's permutations, so all of them can
    # be drawn first; they index the group's rows as one flat (k * rows) axis.
    gens = [rng.generator() for rng in rngs]
    order = np.array([[gen.permutation(n_samples) for gen in gens] for _ in range(epochs)])
    order += n_samples * np.arange(k)[:, np.newaxis]
    x_rows, resid_rows = x.reshape(k * n_samples, n), resid.reshape(k * n_samples, m)

    # Buffers and each batch's views into them, made once: every batch of an
    # epoch writes its error at its own rows of err, whose squares give the
    # epoch's batch losses.
    x_epoch, resid_epoch = np.empty((k, n_samples, n)), np.empty((k, n_samples, m))
    err = np.empty((k, n_samples, m))
    xa, eb = np.empty((k, batch_size, r)), np.empty((k, batch_size, r))
    views = []
    for start, bs in zip(range(0, n_samples, batch_size), sizes):
        rows = slice(start, start + bs)
        views.append((x_epoch[:, rows], xa[:, :bs], err[:, rows], err[:, rows].transpose(0, 2, 1),
                      resid_epoch[:, rows], eb[:, :bs], eb[:, :bs].transpose(0, 2, 1),
                      scale / bs))
    losses = np.empty((epochs, k, len(sizes)))
    prox = np.empty_like(losses) if prox_mu > 0 else None

    # Overflow is not trapped per operation: a non-finite residual or step
    # shows as a non-finite batch loss, and a last step that leaves a
    # non-finite factor is caught after the loop.  A client that goes
    # non-finite trains on; the batched matmuls keep the clients apart.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            # every index is in range; mode="raise" would copy through a buffer
            np.take(x_rows, order[epoch], axis=0, out=x_epoch, mode="clip")
            np.take(resid_rows, order[epoch], axis=0, out=resid_epoch, mode="clip")
            for j, (xb, xa_b, err_b, err_bt, resid_b, eb_b, eb_bt, step_scale) in enumerate(views):
                np.matmul(xb, a_t, out=xa_b)
                np.matmul(xa_b, b_t, out=err_b)
                err_b *= scale
                err_b += resid_b
                if prox is not None:
                    prox[epoch, :, j] = 0.5 * prox_mu * (_sum_sq(b) + _sum_sq(a))
                np.matmul(err_bt, xa_b, out=grad_b)
                np.matmul(err_b, b, out=eb_b)
                np.matmul(eb_bt, xb, out=grad_a)
                grads *= step_scale
                if prox is not None:
                    grads += prox_mu * params
                grads *= lr
                params -= grads
            # each batch's sum of squares runs over that batch's rows alone,
            # in the order a sum over its own error array would take
            err *= err
            sums = losses[epoch]
            err[:, :full * batch_size].reshape(k, full, -1).sum(axis=2, out=sums[:, :full])
            if full < len(sizes):
                err[:, full * batch_size:].reshape(k, -1).sum(axis=1, out=sums[:, full])
        losses *= 0.5
        losses /= sizes
        if prox is not None:
            losses += prox

    bad = ~np.isfinite(losses).all(axis=2)
    first_bad_epoch = np.where(bad.any(axis=0), bad.argmax(axis=0), -1)
    finite = np.isfinite(params).all(axis=1)
    for cid, bad_epoch, ok in zip(client_ids, first_bad_epoch, finite):
        if bad_epoch >= 0:
            raise NumericError(f"client {cid}: non-finite loss at epoch {bad_epoch}")
        if not ok:
            raise NumericError(f"client {cid}: non-finite factors after training")

    return LocalTrainResult(b, a, mean_loss=losses[-1].mean(axis=1),
                            steps=k * epochs * len(sizes))


def sample_clients(n_clients: int, k: int, rng: RngStream) -> list[int]:
    """Uniform sample of k distinct client ids, returned in ascending order."""
    gen = rng.generator()
    return sorted(int(i) for i in gen.choice(n_clients, size=k, replace=False))


# Floats per operand in one row block of the server step (256 KB): a block's
# operands stay in cache across the strategy's passes over it.  Blocks of 8
# and of 128 rows at width 1024 ran slower.
_BLOCK_FLOATS = 32_768


def _apply_strategy(server: ServerState, config: RunConfig, delta_t: np.ndarray) -> None:
    """Apply the round's dense update to the server's accumulators, in place.

    Every strategy updates row blocks of ``_BLOCK_FLOATS // n`` rows (at
    least one), each entry with the same IEEE operations, in the same order,
    as these whole-matrix formulas (d = delta_t, v = momentum,
    s = second_moment; the other names are ``config`` fields):

        fedavg, fedprox   delta_acc += d
        fedavgm     v = mu * v + d;  delta_acc += server_lr * v   (mu = config.momentum)
        adaptive    v = beta1 * v + (1 - beta1) * d
          fedadagrad  s = s + d * d
          fedyogi     s = s - (1 - beta2) * (d * d) * sign(s - d * d)
          fedadam     s = beta2 * s + (1 - beta2) * (d * d)
                    delta_acc += server_lr * v / (sqrt(s) + tau)

    Then that block of ``effective`` is set to W + delta_acc while the block
    is still in cache.  The step consumes ``delta_t``: a block's
    temporaries are written into its own blocks of ``delta_t`` and of
    ``effective``, after their last read and before ``effective``'s
    refresh, so the step allocates no array.  From ``_THREAD_FLOATS``
    entries on, the blocks are the tasks of ``linalg._run_in_order``.  No
    two blocks share an entry, and each goes through the same operations on
    any thread, so the result is the same at any worker count.  Each
    accumulator, and ``effective``, stays the same array.
    """
    strategy = config.strategy
    m, n = delta_t.shape
    rows = max(1, _BLOCK_FLOATS // n)
    starts = range(0, m, rows)
    workers = linalg._worker_count(len(starts)) if m * n >= _THREAD_FLOATS else 1

    def run(i: int) -> None:
        block = slice(starts[i], starts[i] + rows)
        d, acc, eff = delta_t[block], server.delta_acc[block], server.effective[block]
        if strategy == "fedavgm":
            v = server.momentum[block]
            v *= config.momentum
            v += d
            np.multiply(v, config.server_lr, out=d)
        elif strategy in _ADAPTIVE:
            sq = np.multiply(d, d, out=eff)
            v = server.momentum[block]
            v *= config.beta1
            d *= 1.0 - config.beta1
            v += d
            s = server.second_moment[block]
            if strategy == "fedadagrad":
                s += sq
            elif strategy == "fedyogi":
                sign = np.sign(np.subtract(s, sq, out=d), out=d)
                sq *= 1.0 - config.beta2
                sq *= sign
                s -= sq
            else:
                s *= config.beta2
                sq *= 1.0 - config.beta2
                s += sq
            np.multiply(v, config.server_lr, out=d)
            np.sqrt(s, out=eff)
            eff += config.tau
            d /= eff
        acc += d
        np.add(server.base.w[block], acc, out=eff)

    linalg._run_in_order(len(starts), run, workers=workers)


# Factor floats a lockstep group may hold (256 KB): 42 clients at 16 x 8 and
# rank 32, 8 at 64 x 64, 2 at 256 x 256 and 1 at 1024 x 1024 and rank 16.
# Twenty clients in lockstep at 256 x 256 ran slower than one at a time.
_GROUP_FLOATS = 32_768


def _group_size(m: int, n: int, rank: int) -> int:
    """Clients per ``local_train`` call: the most whose (m + n) x rank factors fit the budget.

    Small shapes train a whole round in one call, where a step costs
    interpreter overhead more than arithmetic; large ones fall back to small
    groups, whose factors stay in cache.
    """
    return max(1, _GROUP_FLOATS // ((m + n) * rank))


def _base_residuals(groups: list[list[int]], task: SyntheticTask,
                    effective: np.ndarray) -> list[np.ndarray]:
    """Each group's (k, rows, m) base residual R = X effective^T - Y, one array per group.

    Every array is allocated here.  When a group's GEMMs stream
    ``_THREAD_FLOATS`` entries of the base or more, the groups are the
    tasks of ``linalg._run_in_order``.  Each GEMM writes into its own
    client's slice, with the same operations on any thread, so the
    residuals are the same at any worker count.
    """
    m, n = effective.shape
    resids = [np.empty((len(ids), task.x.shape[1], m)) for ids in groups]
    workers = linalg._worker_count(len(groups)) if len(groups[0]) * m * n >= _THREAD_FLOATS else 1

    def run(g: int) -> None:
        for cid, r in zip(groups[g], resids[g]):
            np.matmul(task.x[cid], effective.T, out=r)
            r -= task.y[cid]

    linalg._run_in_order(len(groups), run, workers=workers)
    return resids


def run_round(
    server: ServerState,
    task: SyntheticTask,
    config: RunConfig,
    rng: RngStream,
    mechanism: MechanismParams = IDENTITY_MECHANISM,
) -> RoundMetrics:
    """One communication round of ``task``: sample, train, privatize, stack, apply, fold.

    ``server`` is updated in place; every accumulator, and ``effective``,
    stays the same array.

    The sampled clients train first (``_train_sampled``), and each one's
    ``Release`` record is made from its mean loss and the norms of its
    trained pair, taken before clipping, in ascending client id order.
    Every client holds the same number of rows, so each stacking weight is a
    data share of 1 / k times the LoRA scale, (1 / k) * (lora_scale / rank).
    A training ``NumericError`` is raised again with the round index before
    its message (``round 3: client 4: non-finite loss at epoch 4``).
    Each trained pair is released through ``mechanism`` by one ``privatize``
    call (B noise on stream (round, cid, 3), A noise on (round, cid, 4)),
    whose clean pair is the reference for ``expectation_diff`` and
    ``total_variance``.  The default, ``IDENTITY_MECHANISM``, returns every
    factor as itself, so both are 0.  Every metric is taken before the
    server step, and each per-client array is dropped after its last reader:
    when the released stacks form the dense ``delta_t`` (``global_delta``)
    they are the only per-client arrays alive, and the step itself meets
    only ``delta_t``.
    """
    round_index = server.round_index
    sampled = sample_clients(task.n_clients, config.sampled_per_round,
                             rng.child(round_index, _KIND_SAMPLE))
    scale = config.lora_scale / config.rank
    try:
        trained, losses = _train_sampled(server, task, config, rng, sampled, scale)
    except NumericError as exc:
        raise NumericError(f"round {round_index}: {exc}") from None
    releases = tuple(Release(cid, loss, frobenius_norm(b), frobenius_norm(a))
                     for cid, loss, (b, a) in zip(sampled, losses, trained))

    # Ascending id order fixes stacking order.  Each weight is the data share
    # times the scale: with equal rows, (1 / k) * scale, rounded as
    # rows / total * scale is; scale / k can differ in the last bit.
    weights = [1 / len(sampled) * scale] * len(sampled)

    clean, released = zip(*[
        privatize(pair, mechanism, rng.child(round_index, cid, _KIND_NOISE_B),
                  rng.child(round_index, cid, _KIND_NOISE_A))
        for cid, pair in zip(sampled, trained)])
    released = aggregate_stack(released, weights)
    expectation_diff, total_variance = _noise_metrics(released, clean, weights, mechanism)
    del trained, clean
    delta_t = global_delta(released)
    del released

    metrics = RoundMetrics(
        round_index=round_index,
        mean_train_loss=float(np.mean(losses)),
        releases=releases,
        global_delta_norm=frobenius_norm(delta_t),
        expectation_diff=expectation_diff,
        total_variance=total_variance,
    )
    _apply_strategy(server, config, delta_t)
    server.round_index += 1
    return metrics


def _train_sampled(server: ServerState, task: SyntheticTask, config: RunConfig,
                   rng: RngStream, sampled: list[int],
                   scale: float) -> tuple[list[FactorPair], list[float]]:
    """The round's trained pairs and mean losses, in ``sampled``'s (ascending id) order.

    Every sampled client trains a fresh factor pair (drawn from its round's
    stream) against the server's held effective base W + delta_acc
    (``server.effective``), which the previous round's strategy step left
    current.  Every group's base residual is computed first
    (``_base_residuals``, on worker threads at large shapes); the sampled
    clients then train in ascending id order, in groups of ``_group_size``
    clients, one ``local_train`` call per group.  The residuals and initial
    pairs die on return.
    """
    round_index = server.round_index
    lr = cosine_lr(config.lr_start, config.lr_end, round_index, config.rounds)
    m, n = server.base.shape
    prox_mu = config.prox_mu if config.strategy == "fedprox" else 0.0

    size = _group_size(m, n, config.rank)
    groups = [sampled[start:start + size] for start in range(0, len(sampled), size)]
    resids = _base_residuals(groups, task, server.effective)
    trained, losses = [], []
    for ids, resid in zip(groups, resids):
        init = [init_adapter(m, n, config.rank, rng.child(round_index, cid, _KIND_INIT))
                for cid in ids]
        result = local_train(ids, task.x[ids], np.stack([b for b, _ in init]),
                             np.stack([a for _, a in init]), scale, resid,
                             [rng.child(round_index, cid, _KIND_TRAIN) for cid in ids],
                             epochs=config.local_epochs, batch_size=config.batch_size,
                             lr=lr, prox_mu=prox_mu)
        trained += zip(result.b, result.a)
        losses += result.mean_loss.tolist()
    return trained, losses


def _noise_metrics(released: GlobalAdapter, clean: tuple[FactorPair, ...], weights: list[float],
                   mechanism: MechanismParams) -> tuple[float, float]:
    """``expectation_diff`` and ``total_variance`` of the release against the clean pairs.

    Each mean entry of a stacked product B @ A is (1^T B)(A 1) / (m n), formed
    without B @ A.  The clean pairs are not stacked: their weighted column
    sums ``(w * b).sum(0)`` and row sums ``a.sum(1)`` are concatenated in
    stacking order and dotted once.
    """
    # the closed form first: a sigma whose square overflows fails before the release's sums
    model = NoiseModel(sigma_beta=mechanism.sigma_b, sigma_alpha=mechanism.sigma_a)
    total_variance = 0.0
    for weight, (b, a) in zip(weights, clean):
        total_variance += weight**2 * exact_total_variance(b, a, model)
    m, n = released.b_stacked.shape[0], released.a_stacked.shape[1]
    clean_b = np.concatenate([(w * b).sum(0) for w, (b, _) in zip(weights, clean)])
    clean_a = np.concatenate([a.sum(1) for _, a in clean])
    released_mean = float(released.b_stacked.sum(0) @ released.a_stacked.sum(1)) / (m * n)
    expectation_diff = released_mean - float(clean_b @ clean_a) / (m * n)
    return expectation_diff, total_variance


def run_experiment(config: RunConfig, task: SyntheticTask, root: RngStream,
                   mechanism: MechanismParams = IDENTITY_MECHANISM) -> ExperimentResult:
    """Run ``config.rounds`` rounds, each releasing through ``mechanism`` (default: no DP).

    The initial and final losses are taken over every client's rows after
    the last round.  They read only W and the effective base, so the server
    state is dropped first and its other accumulators are freed before
    either loss forms its error array.
    """
    t0 = time.perf_counter()
    server = ServerState.fresh(task.base, config.strategy)
    rounds = [run_round(server, task, config, root, mechanism) for _ in range(config.rounds)]
    effective = server.effective
    del server
    # every client's rows as one dataset: views of the stacked arrays, no copy
    x = task.x.reshape(-1, task.n)
    y = task.y.reshape(-1, task.m)
    initial_loss = dataset_loss(task.base.w, x, y)
    final_loss = dataset_loss(effective, x, y)
    return ExperimentResult(
        rounds=tuple(rounds),
        initial_loss=initial_loss,
        final_loss=final_loss,
        wall_s=time.perf_counter() - t0,
    )
