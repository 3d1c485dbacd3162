"""Federated loop: training gradients, strategies, determinism, sampling."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fedlora_dp import attacks, linalg, privacy, runner, simulation
from fedlora_dp.adapters import FrozenBase, aggregate_stack, global_delta, init_adapter
from fedlora_dp.config import STRATEGIES, ConfigError, RunConfig, parse_text
from fedlora_dp.linalg import RngStream, frobenius_norm
from fedlora_dp.privacy import IDENTITY_MECHANISM, MechanismParams
from fedlora_dp.simulation import (
    NumericError,
    Release,
    ServerState,
    cosine_lr,
    dataset_loss,
    generate_task,
    local_train,
    run_experiment,
    run_round,
    sample_clients,
)


def small_config(**overrides) -> RunConfig:
    defaults = dict(
        rounds=5,
        clients=4,
        sampled_per_round=2,
        local_epochs=3,
        batch_size=8,
        lr_start=0.1,
        lr_end=0.01,
        rank=2,
        lora_scale=2.0,
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def small_task(seed=0, **overrides):
    params = dict(m=6, n=4, r_star=2, n_clients=4, samples_per_client=20,
                  sigma_obs=0.0, heterogeneity=0.0)
    params.update(overrides)
    return generate_task(rng=RngStream(seed, (99,)), **params)


class TestGenerateTask:
    def test_homogeneous_means_are_zero(self):
        task = small_task(heterogeneity=0.0)
        for x in task.x:
            # every client draws from a zero-mean input distribution
            assert abs(x.mean()) < 0.2

    def test_target_norm_is_one(self):
        task = small_task()
        assert np.linalg.norm(task.target_delta) == pytest.approx(1.0, rel=1e-12)

    def test_realizable_task_has_zero_optimum(self):
        task = small_task(sigma_obs=0.0)
        model = task.base.w + task.target_delta
        for x, y in zip(task.x, task.y):
            assert dataset_loss(model, x, y) <= 1e-28

    def test_task_holds_the_target_as_factors(self):
        # x, y, W and the two scaled target factors: W is the task's one m x n array,
        # and target_delta is formed anew on each read
        task = small_task(m=9, n=7, r_star=3)
        assert [f.name for f in dataclasses.fields(task)] == ["base", "target_b", "target_a",
                                                              "x", "y"]
        assert task.target_b.shape == (9, 3) and task.target_a.shape == (3, 7)
        assert task.target_delta is not task.target_delta
        assert np.array_equal(task.target_delta, task.target_b @ task.target_a)

    def test_regeneration_is_bit_identical(self):
        t1 = small_task(seed=5, n_clients=20, samples_per_client=100)
        t2 = small_task(seed=5, n_clients=20, samples_per_client=100)
        assert np.array_equal(t1.base.w, t2.base.w)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.y, t2.y)

    @pytest.mark.parametrize("heterogeneity,sigma_obs", [(0.0, 0.0), (0.6, 0.0), (0.0, 0.2),
                                                         (1.0, 0.3)])
    def test_stacked_rows_equal_each_client_drawn_alone(self, heterogeneity, sigma_obs):
        # Oracle: each client drawn into arrays of its own, from its own stream.
        rng = RngStream(4, (99,))
        task = generate_task(6, 4, 2, 5, 7, sigma_obs, heterogeneity, rng)
        for stacked, shape in ((task.x, (5, 7, 4)), (task.y, (5, 7, 6))):
            assert stacked.shape == shape and stacked.flags.c_contiguous
        signal = task.base.w + task.target_delta
        for k in range(5):
            gen = rng.child(simulation._TASK_CLIENT, k).generator()
            mu = np.zeros(4)
            if heterogeneity > 0:
                direction = gen.standard_normal(4)
                mu = heterogeneity * direction / np.linalg.norm(direction)
            x = mu + gen.standard_normal((7, 4))
            y = x @ signal.T
            if sigma_obs > 0:
                y = y + sigma_obs * gen.standard_normal((7, 6))
            assert (task.x[k] == x).all() and (task.y[k] == y).all()


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0.1, 0.01, 0, 100) == 0.1
        assert cosine_lr(0.1, 0.01, 99, 100) == pytest.approx(0.01, abs=1e-15)

    def test_single_round(self):
        assert cosine_lr(0.1, 0.01, 0, 1) == 0.1

    def test_monotone_decreasing(self):
        values = [cosine_lr(0.1, 0.01, t, 50) for t in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def _loss_at(base, delta_acc, b, a, scale, x, y, prox_mu=0.0):
    model = base.w + delta_acc + scale * (b @ a)
    loss = dataset_loss(model, x, y)
    if prox_mu > 0:
        loss += 0.5 * prox_mu * (np.sum(b**2) + np.sum(a**2))
    return loss


def _resid(x, y, effective):
    """The base residuals X effective^T - Y of stacked rows, as ``local_train`` takes them."""
    return np.stack([xk @ effective.T - yk for xk, yk in zip(x, y)])


def _train_one(cid, x, y, b, a, scale, effective, rng, **kwargs):
    """``local_train`` on a group of one client, its result unstacked to (b, a, loss, steps)."""
    result = local_train([cid], x[np.newaxis], b[np.newaxis], a[np.newaxis], scale,
                         _resid(x[np.newaxis], y[np.newaxis], effective), [rng], **kwargs)
    return result.b[0], result.a[0], float(result.mean_loss[0]), result.steps


def _dense_reference_train(x, y, b, a, s, effective, rng, epochs, batch_size, lr,
                           prox_mu=0.0):
    """Oracle for local_train: every step forms the dense model and the dense gradient G."""
    n_samples = x.shape[0]
    batch_size = min(batch_size, n_samples)
    gen = rng.generator()
    steps = 0
    for _ in range(epochs):
        order = gen.permutation(n_samples)
        epoch_losses = []
        for start in range(0, n_samples, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = x[idx], y[idx]
            bs = xb.shape[0]
            err = xb @ (effective + s * (b @ a)).T - yb
            loss = 0.5 * np.sum(err * err) / bs
            if prox_mu > 0:
                loss += 0.5 * prox_mu * (np.sum(b * b) + np.sum(a * a))
            epoch_losses.append(float(loss))
            g = err.T @ xb / bs
            grad_b = s * (g @ a.T)
            grad_a = s * (b.T @ g)
            if prox_mu > 0:
                grad_b = grad_b + prox_mu * b
                grad_a = grad_a + prox_mu * a
            b = b - lr * grad_b
            a = a - lr * grad_a
            steps += 1
    return b, a, float(np.mean(epoch_losses)), steps


def _loop_reference_train(x, y, b, a, s, effective, rng, epochs, batch_size, lr,
                          prox_mu=0.0):
    """Oracle for local_train's bytes: one client, 2-D arrays, the same operations in order.

    Returns the trained pair and every epoch's list of batch losses.
    """
    n_samples = x.shape[0]
    batch_size = min(batch_size, n_samples)
    gen = rng.generator()
    resid = x @ effective.T - y
    losses = []
    for _ in range(epochs):
        order = gen.permutation(n_samples)
        epoch_losses = []
        losses.append(epoch_losses)
        for start in range(0, n_samples, batch_size):
            idx = order[start:start + batch_size]
            xb = x[idx]
            bs = xb.shape[0]
            xa = xb @ a.T
            err = resid[idx] + s * (xa @ b.T)
            loss = 0.5 * np.sum(err * err) / bs
            if prox_mu > 0:
                loss += 0.5 * prox_mu * (np.sum(b * b) + np.sum(a * a))
            epoch_losses.append(float(loss))
            grad_b = (s / bs) * (err.T @ xa)
            grad_a = (s / bs) * ((err @ b).T @ xb)
            if prox_mu > 0:
                grad_b = grad_b + prox_mu * b
                grad_a = grad_a + prox_mu * a
            b = b - lr * grad_b
            a = a - lr * grad_a
    return b, a, losses


def _group_task(gen, k=3, m=6, n=4, samples=20):
    """Clients 10, 11, ...: their stacked rows x and y, and an effective base."""
    draws = [(gen.standard_normal((samples, n)), gen.standard_normal((samples, m)))
             for _ in range(k)]
    x, y = (np.stack(arrays) for arrays in zip(*draws))
    effective = gen.standard_normal((m, n))
    return [10 + i for i in range(k)], x, y, effective


class TestLocalTrain:
    def test_zero_epochs_is_noop(self):
        task = small_task()
        b, a = init_adapter(task.m, task.n, 2, RngStream(1, (0,)))
        b, a = b[np.newaxis], a[np.newaxis]
        x, y = task.x[:1], task.y[:1]
        result = local_train([0], x, b, a, 1.0, _resid(x, y, task.base.w),
                             [RngStream(1, (1,))], epochs=0, batch_size=8, lr=0.1)
        assert result.b is b and result.a is a
        assert result.steps == 0
        assert np.all(result.b[0] @ result.a[0] == 0.0)
        assert result.mean_loss[0] == dataset_loss(task.base.w, x[0], y[0])

    def test_gradients_match_finite_differences(self):
        # central differences with step 1e-5, both factors, prox included
        gen = np.random.default_rng(17)
        h = 1e-5
        for trial in range(10):
            m, n, r = int(gen.integers(2, 5)), int(gen.integers(2, 4)), int(gen.integers(1, 3))
            base = FrozenBase(gen.standard_normal((m, n)))
            delta_acc = 0.1 * gen.standard_normal((m, n))
            b0 = gen.standard_normal((m, r))
            a0 = gen.standard_normal((r, n))
            scale = float(gen.uniform(0.5, 2.0))
            prox = 0.05 if trial % 2 else 0.0
            x = gen.standard_normal((6, n))
            y = gen.standard_normal((6, m))
            lr = 0.01
            b1, a1, _, _ = _train_one(0, x, y, b0, a0, scale, base.w + delta_acc,
                                      RngStream(trial, (2,)), epochs=1, batch_size=6, lr=lr,
                                      prox_mu=prox)
            grad_b = (b0 - b1) / lr
            grad_a = (a0 - a1) / lr

            fd_b = np.zeros_like(b0)
            for i in range(m):
                for j in range(r):
                    bp, bm = b0.copy(), b0.copy()
                    bp[i, j] += h
                    bm[i, j] -= h
                    fd_b[i, j] = (_loss_at(base, delta_acc, bp, a0, scale, x, y, prox)
                                  - _loss_at(base, delta_acc, bm, a0, scale, x, y, prox)) / (2 * h)
            fd_a = np.zeros_like(a0)
            for i in range(r):
                for j in range(n):
                    ap, am = a0.copy(), a0.copy()
                    ap[i, j] += h
                    am[i, j] -= h
                    fd_a[i, j] = (_loss_at(base, delta_acc, b0, ap, scale, x, y, prox)
                                  - _loss_at(base, delta_acc, b0, am, scale, x, y, prox)) / (2 * h)

            assert np.abs(grad_b - fd_b).max() <= 1e-6
            assert np.abs(grad_a - fd_a).max() <= 1e-6

    @pytest.mark.parametrize("case", ["plain", "prox", "epochs", "ragged_batch"])
    def test_matches_dense_reference(self, case):
        gen = np.random.default_rng(23)
        task = small_task(seed=3, sigma_obs=0.1)
        rank = 3
        b0 = 0.3 * gen.standard_normal((task.m, rank))
        a0 = gen.standard_normal((rank, task.n))
        scale = 6.0 / rank
        delta_acc = 0.2 * gen.standard_normal((task.m, task.n))
        prox_mu = 0.05 if case == "prox" else 0.0
        # 20 samples: batches of 5 divide them, batches of 7 leave a last batch of 6
        epochs = 6 if case == "epochs" else 2
        batch_size = 7 if case == "ragged_batch" else 5
        lr = 0.05
        effective = task.base.w + delta_acc

        x, y = task.x[1], task.y[1]
        b, a, loss, steps = _dense_reference_train(x, y, b0, a0, scale, effective,
                                                   RngStream(9, (2,)), epochs, batch_size, lr,
                                                   prox_mu)
        b1, a1, loss1, steps1 = _train_one(4, x, y, b0, a0, scale, effective, RngStream(9, (2,)),
                                           epochs=epochs, batch_size=batch_size, lr=lr,
                                           prox_mu=prox_mu)
        assert steps1 == steps
        np.testing.assert_allclose(b1, b, rtol=1e-10, atol=0)
        np.testing.assert_allclose(a1, a, rtol=1e-10, atol=0)
        assert loss1 == pytest.approx(loss, rel=1e-10)

    @pytest.mark.parametrize("case", ["plain", "prox"])
    def test_group_equals_groups_of_one(self, case):
        # 20 rows in batches of 7 leave a partial last batch of 6
        gen = np.random.default_rng(31)
        ids, x, y, effective = _group_task(gen)
        b0 = 0.3 * gen.standard_normal((3, 6, 2))
        a0 = gen.standard_normal((3, 2, 4))
        streams = [RngStream(5, (2, i)) for i in range(3)]
        settings = dict(epochs=3, batch_size=7, lr=0.05,
                        prox_mu=0.05 if case == "prox" else 0.0)
        group = local_train(ids, x, b0, a0, 1.5, _resid(x, y, effective), streams, **settings)
        assert group.steps == 3 * 3 * 3
        for i, cid in enumerate(ids):
            b, a, loss, steps = _train_one(cid, x[i], y[i], b0[i], a0[i], 1.5, effective,
                                           streams[i], **settings)
            assert np.array_equal(group.b[i], b)
            assert np.array_equal(group.a[i], a)
            assert group.mean_loss[i] == loss
            assert group.steps == 3 * steps
            # and both equal one client's 2-D steps, bit for bit
            ref_b, ref_a, ref_losses = _loop_reference_train(x[i], y[i], b0[i], a0[i], 1.5,
                                                             effective, streams[i],
                                                             **settings)
            assert np.array_equal(b, ref_b) and np.array_equal(a, ref_a)
            assert loss == float(np.mean(ref_losses[-1]))

    def test_group_leaves_inputs_unchanged(self):
        gen = np.random.default_rng(32)
        ids, x, y, effective = _group_task(gen)
        b0 = gen.standard_normal((3, 6, 2))
        a0 = gen.standard_normal((3, 2, 4))
        resid = _resid(x, y, effective)
        inputs = (x, b0, a0, resid)
        before = [array.copy() for array in inputs]
        result = local_train(ids, x, b0, a0, 1.0, resid, [RngStream(0, (i,)) for i in range(3)],
                             epochs=2, batch_size=8, lr=0.05)
        assert all(np.array_equal(old, new) for old, new in zip(before, inputs))
        assert not any(np.shares_memory(factor, array)
                       for factor in (result.b, result.a) for array in (b0, a0, x, resid))

    def test_single_client_converges_to_optimum(self):
        task = small_task(n_clients=1, samples_per_client=60)
        b, a = init_adapter(task.m, task.n, 2, RngStream(2, (0,)))  # small_task's r_star
        _, _, loss, _ = _train_one(0, task.x[0], task.y[0], b, a, 1.0, task.base.w,
                                   RngStream(2, (1,)),
                                   epochs=300, batch_size=60, lr=0.2)
        assert loss <= 1e-3

    def test_nan_loss_aborts_with_diagnostic(self):
        task = small_task()
        b, a = init_adapter(task.m, task.n, 2, RngStream(4, (0,)))
        with pytest.raises(NumericError, match="client 5"):
            _train_one(5, task.x[0] * 1e150, task.y[0], b, a, 1.0, task.base.w, RngStream(4, (1,)),
                       epochs=2, batch_size=8, lr=0.1)

    def test_non_finite_factor_after_last_step_aborts(self):
        # one full-batch step: the loss before it is finite, the step overflows b
        task = small_task()
        b, a = init_adapter(task.m, task.n, 2, RngStream(4, (0,)))
        with pytest.raises(NumericError, match="client 6"):
            _train_one(6, task.x[0], task.y[0], b, a, 100.0, task.base.w, RngStream(4, (1,)),
                       epochs=1, batch_size=task.x.shape[1], lr=1e308)

    @staticmethod
    def _diverging_group(targets):
        """Clients 10, 11, ... on a zero base, b = 0, one full-batch step per epoch, lr 1e308.

        A zero target keeps every gradient exactly 0, so that client stays
        finite; a target of scale 100 leaves the first loss finite and
        overflows b in the first step; a target of scale 1e200 overflows the
        first loss.
        """
        gen = np.random.default_rng(34)
        draws = [(gen.standard_normal((20, 4)), target * gen.standard_normal((20, 6)))
                 for target in targets]
        x, y = (np.stack(arrays) for arrays in zip(*draws))
        k = len(targets)
        return dict(client_ids=[10 + i for i in range(k)], x=x, b=np.zeros((k, 6, 2)),
                    a=gen.standard_normal((k, 2, 4)), scale=1.0,
                    resid=_resid(x, y, np.zeros((6, 4))),
                    rngs=[RngStream(0, (i,)) for i in range(k)], batch_size=20, lr=1e308)

    def test_group_names_the_first_client_the_loop_would(self):
        # client 12 goes non-finite at epoch 0 and client 11 only at epoch 1;
        # one client at a time, client 11 trains and fails first
        group = self._diverging_group([0.0, 100.0, 1e200])
        with pytest.raises(NumericError, match=r"^client 11: non-finite loss at epoch 1$"):
            local_train(**group, epochs=2)
        for i, epoch in ((1, 1), (2, 0)):
            alone = {key: value[i:i + 1] if key in ("client_ids", "x", "b", "a", "resid", "rngs")
                     else value
                     for key, value in group.items()}
            with pytest.raises(NumericError, match=f"^client {10 + i}: non-finite loss at "
                                                   f"epoch {epoch}$"):
                local_train(**alone, epochs=2)

    def test_group_names_a_later_epochs_middle_batch(self):
        # 20 rows in batches of 7, 7 and 6; client 10 has a zero residual and
        # b = 0, so it never moves, client 12 has small inputs and stays
        # finite, and client 11 first goes non-finite in batch 1 of epoch 2
        gen = np.random.default_rng(35)
        draws = [(gen.standard_normal((20, 4)), gen.standard_normal((20, 6))) for _ in range(3)]
        x, y = (np.stack(arrays) for arrays in zip(*draws))
        x[2] *= 0.1
        y[0] = 0.0
        b0 = 0.1 * gen.standard_normal((3, 6, 2))
        b0[0] = 0.0
        a0 = gen.standard_normal((3, 2, 4))
        effective = np.zeros((6, 4))
        streams = [RngStream(0, (i,)) for i in range(3)]
        settings = dict(epochs=4, batch_size=7, lr=0.8)
        first_bad = []
        for i in range(3):
            with np.errstate(over="ignore", invalid="ignore"):
                _, _, losses = _loop_reference_train(x[i], y[i], b0[i], a0[i], 1.0, effective,
                                                     streams[i], **settings)
            first_bad.append(np.argwhere(~np.isfinite(losses))[:1].tolist())
        assert first_bad == [[], [[2, 1]], []]  # (epoch, batch)
        group = dict(client_ids=[10, 11, 12], x=x, b=b0, a=a0, scale=1.0,
                     resid=_resid(x, y, effective), rngs=streams, **settings)
        with pytest.raises(NumericError, match=r"^client 11: non-finite loss at epoch 2$"):
            local_train(**group)
        alone = {key: value[1:2] if key in ("client_ids", "x", "b", "a", "resid", "rngs")
                 else value
                 for key, value in group.items()}
        with pytest.raises(NumericError, match=r"^client 11: non-finite loss at epoch 2$"):
            local_train(**alone)

    def test_group_names_the_lowest_non_finite_factor(self):
        # after one step, clients 11 and 12 end with overflowed factors
        group = self._diverging_group([0.0, 100.0, 100.0])
        with pytest.raises(NumericError, match=r"^client 11: non-finite factors after training$"):
            local_train(**group, epochs=1)
        # a factor that ends non-finite in an earlier client comes before a later loss
        group = self._diverging_group([0.0, 100.0, 1e200])
        with pytest.raises(NumericError, match=r"^client 11: non-finite factors after training$"):
            local_train(**group, epochs=1)


class TestSampleClients:
    def test_ascending_unique(self):
        ids = sample_clients(20, 5, RngStream(0, (1,)))
        assert ids == sorted(set(ids))

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, RngStream(0))

    def test_uniform_frequency(self):
        draws = 100_000
        counts = np.zeros(20)
        root = RngStream(8)
        for i in range(draws):
            for cid in sample_clients(20, 2, root.child(i)):
                counts[cid] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.1) <= 0.005)


def _whole_matrix_strategy(server, config, delta_t):
    """The server step as whole-matrix expressions: the reference for the blocked step."""
    strategy = config.strategy
    if strategy in ("fedavg", "fedprox"):
        server.delta_acc = server.delta_acc + delta_t
    elif strategy == "fedavgm":
        server.momentum = config.momentum * server.momentum + delta_t
        server.delta_acc = server.delta_acc + config.server_lr * server.momentum
    else:
        server.momentum = config.beta1 * server.momentum + (1.0 - config.beta1) * delta_t
        sq = delta_t * delta_t
        if strategy == "fedadagrad":
            server.second_moment = server.second_moment + sq
        elif strategy == "fedyogi":
            server.second_moment = server.second_moment - (1.0 - config.beta2) * sq * np.sign(
                server.second_moment - sq
            )
        elif strategy == "fedadam":
            server.second_moment = config.beta2 * server.second_moment + (1.0 - config.beta2) * sq
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        server.delta_acc = server.delta_acc + config.server_lr * server.momentum / (
            np.sqrt(server.second_moment) + config.tau
        )


class TestApplyStrategy:
    # 16 x 8 is one block; 100 x 1024 is three 32-row blocks and a 4-row one;
    # at n = 40,000 the block budget holds less than a row, so a block is one row.
    @pytest.mark.parametrize("shape", [(16, 8), (100, 1024), (3, 40_000)])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_blocked_step_equals_whole_matrix_step(self, shape, strategy):
        gen = np.random.default_rng(14)
        base = FrozenBase(gen.standard_normal(shape))
        cfg = small_config(strategy=strategy, server_lr=0.3, beta1=0.8, beta2=0.95,
                           tau=1e-2, momentum=0.7)
        server = ServerState.fresh(base, strategy)
        oracle = ServerState.fresh(base, strategy)
        held = [name for name in ("delta_acc", "momentum", "second_moment")
                if getattr(server, name) is not None]
        effective = server.effective
        # Updates that shrink and grow across rounds turn fedyogi's sign both ways.
        for scale in (1.0, 0.1, 3.0, 0.01):
            delta_t = scale * gen.standard_normal(shape)
            arrays = {name: getattr(server, name) for name in held}
            _whole_matrix_strategy(oracle, cfg, delta_t)  # first: the step consumes delta_t
            simulation._apply_strategy(server, cfg, delta_t)
            for name in held:
                assert getattr(server, name) is arrays[name], name
                assert (getattr(server, name) == getattr(oracle, name)).all(), name
            assert server.effective is effective
            assert (server.effective == base.w + server.delta_acc).all()

    def test_fedadam_step_allocates_less_than_one_matrix(self, monkeypatch):
        # 256 x 1024 runs on the calling thread; 1024 x 1024 on two workers
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        for shape in ((256, 1024), (1024, 1024)):
            gen = np.random.default_rng(3)
            server = ServerState.fresh(FrozenBase(gen.standard_normal(shape)), "fedadam")
            delta_t = gen.standard_normal(shape)
            tracemalloc.start()
            try:
                simulation._apply_strategy(server, small_config(strategy="fedadam"), delta_t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < delta_t.nbytes

    @pytest.mark.parametrize("cpu_count", [1, 2, 3])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_step_allocates_under_a_quarter_block(self, monkeypatch, cpu_count, strategy):
        # Each block's temporaries live in its own blocks of delta_t and
        # effective, so no worker allocates an array, at any worker count.
        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpu_count)
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(linalg.threading, "Thread", CountedThread)
        shape = (1024, 1024)
        gen = np.random.default_rng(4)
        server = ServerState.fresh(FrozenBase(gen.standard_normal(shape)), strategy)
        delta_t = gen.standard_normal(shape)
        tracemalloc.start()
        try:
            simulation._apply_strategy(server, small_config(strategy=strategy), delta_t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(started) == cpu_count - 1
        assert peak < simulation._BLOCK_FLOATS * delta_t.itemsize // 4


def _run(config, task, seed=0, mechanism=IDENTITY_MECHANISM):
    return run_experiment(config, task, RngStream(seed, (7,)), mechanism)


class TestRunRound:
    def test_single_client_identity(self):
        # lora_scale = rank trains and folds at unit scale; 3 / 2 scales both
        task = small_task(n_clients=1)
        for lora_scale, scale in ((2.0, 1.0), (3.0, 1.5)):
            cfg = small_config(clients=1, sampled_per_round=1, rounds=1, lora_scale=lora_scale)
            server = ServerState.fresh(task.base, cfg.strategy)
            root = RngStream(0, (7,))
            b, a = init_adapter(task.m, task.n, cfg.rank, root.child(0, 0, 1))
            b, a, loss, _ = _train_one(0, task.x[0], task.y[0], b, a, scale, task.base.w,
                                       root.child(0, 0, 2), epochs=cfg.local_epochs,
                                       batch_size=cfg.batch_size,
                                       lr=cosine_lr(cfg.lr_start, cfg.lr_end, 0, cfg.rounds))
            metrics = run_round(server, task, cfg, root)
            expected = scale * (b @ a)
            assert np.allclose(server.delta_acc, expected, rtol=1e-12, atol=1e-15)
            assert metrics.releases == (Release(0, loss, frobenius_norm(b), frobenius_norm(a)),)

    def test_releases_hold_pre_clip_norms_under_a_binding_clip(self, monkeypatch):
        # Both clips bind on every trained factor; each record still holds its
        # client's loss and trained pair's norms, one record per sampled client
        # in ascending id order.
        losses, trained, clipped = [], [], []
        original_train, original_privatize = simulation.local_train, simulation.privatize

        def recording_train(*args, **kwargs):
            result = original_train(*args, **kwargs)
            losses.extend(result.mean_loss.tolist())
            return result

        def recording_privatize(pair, *args, **kwargs):
            trained.append(pair)
            clean, released = original_privatize(pair, *args, **kwargs)
            clipped.append(clean)
            return clean, released

        monkeypatch.setattr(simulation, "local_train", recording_train)
        monkeypatch.setattr(simulation, "privatize", recording_privatize)
        task = small_task()
        cfg = small_config(rounds=1, sampled_per_round=3)
        mech = MechanismParams(clip_b=1e-3, clip_a=1e-3, sigma_b=0.2, sigma_a=0.3)
        server = ServerState.fresh(task.base, cfg.strategy)
        root = RngStream(5, (7,))
        metrics = run_round(server, task, cfg, root, mech)
        sampled = sample_clients(task.n_clients, cfg.sampled_per_round, root.child(0, 0))
        assert [rel.client_id for rel in metrics.releases] == sampled
        assert len(trained) == len(losses) == len(sampled)
        assert len(set(losses)) == len(losses)
        for rel, loss, (b, a), (cb, ca) in zip(metrics.releases, losses, trained, clipped):
            assert (rel.mean_loss, rel.norm_b, rel.norm_a) == (loss, frobenius_norm(b),
                                                               frobenius_norm(a))
            assert rel.norm_b > mech.clip_b and rel.norm_a > mech.clip_a
            assert frobenius_norm(cb) <= mech.clip_b and frobenius_norm(ca) <= mech.clip_a

    def test_mean_train_loss_is_the_mean_of_the_release_losses(self):
        # mean_train_loss feeds metrics.csv's mean_loss column
        task = small_task()
        cfg = small_config(rounds=3, sampled_per_round=3)
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)
        result = _run(cfg, task, seed=5, mechanism=mech)
        for metrics in result.rounds:
            losses = [rel.mean_loss for rel in metrics.releases]
            assert len(set(losses)) == cfg.sampled_per_round
            assert metrics.mean_train_loss == float(np.mean(losses))

    def test_zero_epoch_round_keeps_delta(self):
        task = small_task()
        cfg = small_config(local_epochs=0, rounds=1)
        server = ServerState.fresh(task.base, cfg.strategy)
        metrics = run_round(server, task, cfg, RngStream(1, (7,)))
        assert np.all(server.delta_acc == 0.0)
        assert metrics.global_delta_norm == 0.0

    def test_non_private_round_draws_no_noise(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a non-private round drew noise")

        monkeypatch.setattr(linalg, "sample_gaussian", no_draws)
        monkeypatch.setattr(privacy, "sample_gaussian", no_draws)
        task = small_task()
        cfg = small_config(rounds=2)
        server = ServerState.fresh(task.base, cfg.strategy)
        root = RngStream(3, (7,))
        for _ in range(cfg.rounds):
            metrics = run_round(server, task, cfg, root)
            assert metrics.expectation_diff == 0.0
            assert metrics.total_variance == 0.0
        assert np.any(server.delta_acc != 0.0)

    def test_rerun_bit_identical(self):
        task = small_task()
        cfg = small_config(rounds=3)
        r1 = _run(cfg, task, seed=2)
        r2 = _run(cfg, task, seed=2)
        for m1, m2 in zip(r1.rounds, r2.rounds):
            assert m1.mean_train_loss == m2.mean_train_loss
            assert m1.global_delta_norm == m2.global_delta_norm
            assert m1.releases == m2.releases


    @pytest.mark.parametrize("strategy,private", [("fedavg", True), ("fedprox", False),
                                                  ("fedadam", True)])
    def test_group_size_leaves_rounds_unchanged(self, monkeypatch, strategy, private):
        # one client per local_train call, then the whole round in one call
        task = small_task()
        cfg = small_config(rounds=3, sampled_per_round=3, batch_size=7, strategy=strategy)
        mech = (MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3) if private
                else IDENTITY_MECHANISM)
        runs = []
        for size in (1, cfg.sampled_per_round):
            monkeypatch.setattr(simulation, "_group_size", lambda m, n, rank, size=size: size)
            result = _run(cfg, task, seed=5, mechanism=mech)
            runs.append((result.rounds, result.final_loss))
        assert runs[0] == runs[1]

    def test_one_release_call_per_client_on_its_noise_streams(self, monkeypatch):
        calls = []

        def spy(pair, mechanism, stream_b, stream_a, count=None):
            calls.append((stream_b.stream_path, stream_a.stream_path, count))
            return privacy.privatize(pair, mechanism, stream_b, stream_a, count)

        monkeypatch.setattr(simulation, "privatize", spy)
        task = small_task()
        cfg = small_config(rounds=2, sampled_per_round=3)
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)
        result = _run(cfg, task, seed=5, mechanism=mech)
        assert calls == [((7, r.round_index, rel.client_id, 3),
                          (7, r.round_index, rel.client_id, 4), None)
                         for r in result.rounds for rel in r.releases]

    @pytest.mark.parametrize("strategy", ["fedavg", "fedadam"])
    def test_round_allocates_less_than_two_matrices(self, strategy):
        # The round's one m x n allocation is global_delta's; the effective
        # base is held across rounds and refreshed by the step in place.
        task = generate_task(256, 1024, 4, 4, 16, 0.0, 0.0, RngStream(8, (99,)))
        cfg = small_config(strategy=strategy, rank=4, lora_scale=4.0, local_epochs=1,
                           lr_start=1e-3, lr_end=1e-3)
        server = ServerState.fresh(task.base, strategy)
        root = RngStream(2, (7,))
        run_round(server, task, cfg, root)
        tracemalloc.start()
        try:
            run_round(server, task, cfg, root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * task.base.w.nbytes

    def test_group_size_falls_back_at_large_shapes(self):
        assert simulation._group_size(16, 8, 32) >= 20
        assert simulation._group_size(1024, 1024, 16) == 1
        assert simulation._group_size(4096, 4096, 64) == 1


ORACLE_MECH = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)


def release_oracle():
    """400 private rounds of fixed trained pairs under ``ORACLE_MECH``, seen from outside.

    Training is replaced by a fixed pair per client, some factors outside their
    clips, and each round's released pairs are taken from what ``aggregate_stack``
    receives.  Returns each round's sampled ids (rounds, k), the residuals of B
    (rounds, k, m, r) and of A (rounds, k, r, n) against ``clip_pair`` of the
    fixed pairs, and those clipped pairs.  Called under a patch, it sees the
    release the patched code makes.
    """
    task = small_task()  # four clients at 6 x 4
    cfg = small_config(rounds=400, sampled_per_round=3)  # rank 2
    gen = np.random.default_rng(41)
    fixed = []
    # per client, the norms of B and A: B outside its clip, A, both, neither
    for norm_b, norm_a in [(2.0, 0.5), (0.3, 3.0), (1.5, 2.5), (0.4, 0.8)]:
        b = gen.standard_normal((task.m, cfg.rank))
        a = gen.standard_normal((cfg.rank, task.n))
        fixed.append((b * (norm_b / frobenius_norm(b)), a * (norm_a / frobenius_norm(a))))
    sampled, released = [], []

    def fixed_training(server, task, config, rng, ids, scale):
        sampled.append(ids)
        return [fixed[cid] for cid in ids], [0.0] * len(ids)

    def recording_stack(pairs, weights):
        released.append(pairs)
        return aggregate_stack(pairs, weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_train_sampled", fixed_training)
        patch.setattr(simulation, "aggregate_stack", recording_stack)
        _run(cfg, task, seed=11, mechanism=ORACLE_MECH)
    clipped = [privacy.clip_pair(pair, ORACLE_MECH) for pair in fixed]
    residuals = [np.array([[pair[f] - clipped[cid][f] for cid, pair in zip(ids, pairs)]
                           for ids, pairs in zip(sampled, released)]) for f in (0, 1)]
    return np.array(sampled), *residuals, clipped


class TestReleaseOracle:
    """The round's release seen from outside (``release_oracle``).

    A release minus ``clip_pair`` of its client's fixed pair must be fresh
    N(0, sigma^2) noise in every entry: mean 0, variance sigma_b^2 on B and
    sigma_a^2 on A, uncorrelated across a round's clients, across rounds and
    between B and A.  Each bound is 5 Monte Carlo standard errors, and no stream
    key is pinned.
    """

    MECH = ORACLE_MECH
    Z = 5.0

    @pytest.fixture(scope="class")
    def release(self):
        return release_oracle()

    def _factors(self, release):
        _, res_b, res_a, _ = release
        return (res_b, self.MECH.sigma_b), (res_a, self.MECH.sigma_a)

    def test_residual_has_mean_zero_for_each_client(self, release):
        ids = release[0]
        for res, sigma in self._factors(release):
            for cid in range(4):
                own = res[ids == cid]
                assert np.abs(own.mean(axis=0)).max() < self.Z * sigma / np.sqrt(len(own)), cid

    def test_residual_variance_is_sigma_squared_in_every_entry(self, release):
        for res, sigma in self._factors(release):
            entries = res.reshape(-1, *res.shape[2:])
            variance = (entries * entries).mean(axis=0)
            assert np.abs(variance / sigma**2 - 1).max() < self.Z * np.sqrt(2 / len(entries))

    def test_residuals_uncorrelated_across_a_rounds_clients(self, release):
        for res, sigma in self._factors(release):
            k = res.shape[1]
            products = np.array([res[:, i] * res[:, j] for i in range(k) for j in range(i)])
            assert abs(products.mean() / sigma**2) < self.Z / np.sqrt(products.size)

    def test_residuals_uncorrelated_across_rounds(self, release):
        # each client's releases in round order, against its next one
        ids = release[0]
        for res, sigma in self._factors(release):
            products = np.concatenate([(own[1:] * own[:-1]).ravel()
                                       for own in (res[ids == cid] for cid in range(4))])
            assert abs(products.mean() / sigma**2) < self.Z / np.sqrt(products.size)

    def test_b_and_a_residuals_uncorrelated(self, release):
        _, res_b, res_a, _ = release
        b = res_b.reshape(-1, res_b[0, 0].size) / self.MECH.sigma_b
        a = res_a.reshape(-1, res_a[0, 0].size) / self.MECH.sigma_a
        assert np.abs(b.T @ a / len(b)).max() < self.Z / np.sqrt(len(b))

    def test_each_client_releases_around_a_pair_within_the_clips(self, release):
        # a release's mean over a client's rounds is its clipped pair plus noise of
        # norm about sigma * sqrt(entries / releases); twice that bounds it
        ids, res_b, res_a, clipped = release
        clips = (self.MECH.clip_b, self.MECH.clip_a)
        for f, (res, sigma) in enumerate(self._factors(release)):
            for cid in range(4):
                own = res[ids == cid]
                centre = clipped[cid][f] + own.mean(axis=0)
                slack = 2 * sigma * np.sqrt(own[0].size / len(own))
                assert frobenius_norm(centre) <= clips[f] + slack, (f, cid)


def _a_unnoised(release):
    def privatize(pair, mechanism, stream_b, stream_a, count=None):
        return release(pair, dataclasses.replace(mechanism, sigma_a=0.0), stream_b, stream_a,
                       count)
    return privatize


def _a_noised_from_b_stream(release):
    def privatize(pair, mechanism, stream_b, stream_a, count=None):
        return release(pair, mechanism, stream_b, stream_b, count)
    return privatize


def _given_pair_noised(release):
    # the clean reference is still the clipped pair; the noise lands on the pair as given
    def privatize(pair, mechanism, stream_b, stream_a, count=None):
        unclipped = dataclasses.replace(mechanism, clip_b=math.inf, clip_a=math.inf)
        return (privacy.clip_pair(pair, mechanism),
                release(pair, unclipped, stream_b, stream_a, count)[1])
    return privatize


def _sigma_halved(calibrate):
    return lambda c, budget: calibrate(c, budget) / 2


def _a_unclipped(clip_pair):
    return lambda pair, mechanism: (clip_pair(pair, mechanism)[0], pair[1])


def _noise_rekeyed(rekey):
    """run_round's noise streams, their keys (..., round, client, kind) rewritten by ``rekey``."""
    def make(release):
        def privatize(pair, mechanism, stream_b, stream_a, count=None):
            b, a = (RngStream(s.root_seed, rekey(s.stream_path)) for s in (stream_b, stream_a))
            return release(pair, mechanism, b, a, count)
        return privatize
    return make


def _defect(name, make, *modules):
    """Inject a defect: ``privacy.<name>`` becomes ``make(original)`` where ``modules`` bind it."""
    def inject(monkeypatch):
        replacement = make(getattr(privacy, name))
        for module in modules:
            monkeypatch.setattr(module, name, replacement)
    return inject


def _calibration_formula():
    """A calibrated mechanism's sigmas are c sqrt(2 ln(1.25 / delta)) / epsilon."""
    mech = runner._calibrated(RunConfig(epsilon=2.0, delta=1e-5), 0.5, 3.0)
    for clip, sigma in ((0.5, mech.sigma_b), (3.0, mech.sigma_a)):
        assert sigma == pytest.approx(clip * math.sqrt(2 * math.log(1.25 / 1e-5)) / 2.0, rel=1e-12)


def _verify_dp_bound():
    """Fast verify's dp_bound check passes on the default config."""
    [check] = [c for c in runner.verify_checks(RunConfig(verify_fast=True))
               if c.name == "dp_bound"]
    assert check.passed, check.detail


def _oracle(check):
    """A ``TestReleaseOracle`` statistic, on a fresh ``release_oracle`` run."""
    return lambda: getattr(TestReleaseOracle(), check)(release_oracle())


_RELEASE_BINDINGS = (privacy, simulation, attacks)

# Each privacy defect, injected where it lives, and the semantic checks it must fail:
# never a golden digest, a pinned row or a stream key.
DEFECTS = {
    "privatize_adds_no_noise_to_a": (
        _defect("privatize", _a_unnoised, *_RELEASE_BINDINGS),
        [_oracle("test_residual_variance_is_sigma_squared_in_every_entry")]),
    "privatize_draws_a_noise_from_b_stream": (
        _defect("privatize", _a_noised_from_b_stream, *_RELEASE_BINDINGS),
        [_oracle("test_b_and_a_residuals_uncorrelated")]),
    "privatize_noises_the_unclipped_pair": (
        _defect("privatize", _given_pair_noised, *_RELEASE_BINDINGS),
        [_oracle("test_residual_has_mean_zero_for_each_client"),
         _oracle("test_each_client_releases_around_a_pair_within_the_clips")]),
    "calibrate_sigma_halves_sigma": (
        _defect("calibrate_sigma", _sigma_halved, privacy, runner),
        [_calibration_formula, _verify_dp_bound]),
    "clip_pair_leaves_a_unclipped": (
        _defect("clip_pair", _a_unclipped, privacy, attacks),
        [_oracle("test_each_client_releases_around_a_pair_within_the_clips")]),
    "run_round_shares_one_noise_key_across_clients": (
        _defect("privatize", _noise_rekeyed(lambda path: (*path[:-2], 0, path[-1])), simulation),
        [_oracle("test_residuals_uncorrelated_across_a_rounds_clients")]),
    "run_round_reuses_one_noise_key_every_round": (
        _defect("privatize", _noise_rekeyed(lambda path: (*path[:-3], 0, *path[-2:])), simulation),
        [_oracle("test_residuals_uncorrelated_across_rounds")]),
}


class TestDefectTable:
    """Each row of ``DEFECTS`` passes its checks on the unchanged code and fails them under
    its defect: a privacy defect fails a check of what the mechanism must do, not only a
    byte digest."""

    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_defect_fails_its_named_checks(self, monkeypatch, defect):
        inject, checks = DEFECTS[defect]
        for check in checks:
            check()  # the unchanged code passes
        inject(monkeypatch)
        for check in checks:
            with pytest.raises(AssertionError):
                check()


class TestRunExperiment:
    def test_zero_rounds(self):
        task = small_task()
        result = _run(small_config(rounds=0), task)
        assert result.rounds == ()
        assert result.final_loss == result.initial_loss

    def test_base_stays_frozen(self):
        task = small_task()
        before = task.base.w.copy()
        _run(small_config(rounds=4), task)
        assert np.array_equal(task.base.w, before)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_server_holds_only_what_its_strategy_reads(self, strategy):
        server = ServerState.fresh(small_task().base, strategy)
        held = {name for name in ("momentum", "second_moment") if getattr(server, name) is not None}
        expected = {"fedavg": set(), "fedprox": set(),
                    "fedavgm": {"momentum"}}.get(strategy, {"momentum", "second_moment"})
        assert held == expected

    def test_final_losses_read_the_stacked_rows_in_place(self):
        # 20 clients x 50 rows at 256 x 256, no round: the two losses need the
        # server's arrays and one (N, m) error array at a time, and no copy of the rows.
        task = generate_task(256, 256, 4, 20, 50, 0.0, 0.0, RngStream(8, (99,)))
        cfg = small_config(rounds=0, clients=20)
        tracemalloc.start()
        try:
            _run(cfg, task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        server_bytes = 2 * task.base.w.nbytes  # fedavg's delta_acc and effective
        assert peak < server_bytes + 1.5 * task.y.nbytes

    def test_final_losses_run_without_the_accumulators(self, monkeypatch):
        # The losses read W and the effective base only: fedadam's other three
        # m x n accumulators are freed before either loss forms its error array.
        task = generate_task(256, 256, 4, 20, 10, 0.0, 0.0, RngStream(8, (99,)))
        cfg = small_config(strategy="fedadam", rounds=1, clients=20, rank=4, lora_scale=4.0,
                           local_epochs=1)
        peaks = []

        def traced_loss(*args):
            tracemalloc.reset_peak()
            loss = dataset_loss(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return loss

        monkeypatch.setattr(simulation, "dataset_loss", traced_loss)
        tracemalloc.start()
        try:
            _run(cfg, task)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        assert max(peaks) < 4 * task.base.w.nbytes

    def test_all_strategies_improve(self):
        task = generate_task(16, 8, 4, 8, 40, 0.0, 0.0, RngStream(6, (99,)))
        for strategy in STRATEGIES:
            cfg = small_config(rounds=30, clients=8, sampled_per_round=2, rank=4,
                               lora_scale=4.0, strategy=strategy, local_epochs=5,
                               prox_mu=0.01 if strategy == "fedprox" else 0.0)
            result = _run(cfg, task, seed=3)
            assert result.final_loss < result.initial_loss, strategy

    def test_dp_with_zero_sigma_and_loose_clip_matches_plain(self):
        task = small_task()
        loose = MechanismParams(clip_b=1e9, clip_a=1e9, sigma_b=0.0, sigma_a=0.0)
        cfg = small_config(rounds=4)
        plain = _run(cfg, task, seed=4)
        dp = _run(cfg, task, seed=4, mechanism=loose)
        for m1, m2 in zip(plain.rounds, dp.rounds):
            assert m1.mean_train_loss == m2.mean_train_loss
            assert m1.global_delta_norm == m2.global_delta_norm
            assert m1.expectation_diff == m2.expectation_diff == 0.0
            assert m1.total_variance == m2.total_variance == 0.0
        assert plain.final_loss == dp.final_loss

    def test_dp_metrics_track_noise(self):
        task = small_task()
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.2)
        result = _run(small_config(rounds=2), task, seed=7, mechanism=mech)
        for metrics in result.rounds:
            assert metrics.total_variance > 0.0
            assert np.isfinite(metrics.expectation_diff)

    def test_expectation_diff_matches_dense_formula(self, monkeypatch):
        # run_round takes the mean of delta_t - clean_delta from factor sums; the
        # dense product of the released stack and the weighted dense products
        # of the clipped pairs are the reference.
        stacks, clipped = [], []
        original_stack, original_privatize = simulation.aggregate_stack, simulation.privatize

        def recording_stack(pairs, weights):
            stacks.append(original_stack(pairs, weights))
            return stacks[-1]

        def recording_privatize(*args, **kwargs):
            clean, released = original_privatize(*args, **kwargs)
            clipped.append(clean)
            return clean, released

        monkeypatch.setattr(simulation, "aggregate_stack", recording_stack)
        monkeypatch.setattr(simulation, "privatize", recording_privatize)
        task = small_task()
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)
        cfg = small_config(rounds=3, sampled_per_round=3)
        result = _run(cfg, task, seed=8, mechanism=mech)
        k = cfg.sampled_per_round
        assert len(stacks) == cfg.rounds  # the released pairs only
        assert len(clipped) == k * cfg.rounds
        weight = 1 / k * (cfg.lora_scale / cfg.rank)
        for i, (metrics, released) in enumerate(zip(result.rounds, stacks)):
            clean = sum(weight * (b @ a) for b, a in clipped[i * k:(i + 1) * k])
            dense = np.mean(global_delta(released) - clean)
            assert metrics.expectation_diff != 0.0
            assert metrics.expectation_diff == pytest.approx(dense, rel=1e-9)


class TestConfigValidation:
    """The loop's settings are checked once, when the config is made; a parsed one names
    the offending line."""

    def _error(self, text):
        with pytest.raises(ConfigError) as info:
            parse_text(text)
        return str(info.value)

    def test_sample_bounds(self):
        message = self._error("clients = 4\nsampled_per_round = 9\n")
        assert message.startswith("line 2: sampled_per_round (9) cannot exceed clients (4)")

    def test_lr_order(self):
        message = self._error("lr_start = 0.001\nrounds = 3\nlr_end = 0.01\n")
        assert message.startswith("line 3: lr_end (0.01) cannot exceed lr_start (0.001)")

    def test_task_rank_bound(self):
        message = self._error("task_m = 6\ntask_n = 4\ntask_rank = 5\n")
        assert message.startswith("line 3: task_rank (5) cannot exceed min(task_m, task_n)")

    def test_unknown_strategy(self):
        message = self._error("rounds = 3\nstrategy = sgd\n")
        assert message.startswith("line 2: strategy must be one of")


class TestRoundWorkers:
    """Base residuals and server-step blocks on worker threads: same bytes, and no thread
    at small shapes."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(count):
            monkeypatch.setattr(linalg, "_cpu_count", lambda: count)
        return force

    @pytest.fixture
    def started(self, monkeypatch):
        threads = []

        class CountedThread(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(linalg.threading, "Thread", CountedThread)
        return threads

    @staticmethod
    def _rounds(strategy, private, rounds=2):
        # 700 x 1024 at rank 32: one client per group, so three groups of
        # residuals, and 21 row blocks of 32 rows, the last one of 28.
        task = generate_task(700, 1024, 2, 4, 16, 0.1, 0.0, RngStream(12, (99,)))
        cfg = small_config(strategy=strategy, clients=4, sampled_per_round=3, rounds=rounds,
                           rank=32, lora_scale=4.0, local_epochs=1, lr_start=1e-3, lr_end=1e-3)
        mech = (MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.01, sigma_a=0.02) if private
                else IDENTITY_MECHANISM)
        server = ServerState.fresh(task.base, strategy)
        metrics = [run_round(server, task, cfg, RngStream(6, (7,)), mech) for _ in range(rounds)]
        held = {name: getattr(server, name) for name in
                ("delta_acc", "effective", "momentum", "second_moment")}
        return metrics, held

    @pytest.mark.parametrize("strategy,private", [("fedadam", True), ("fedyogi", False),
                                                  ("fedavgm", False)])
    def test_round_bit_identical_at_any_worker_count(self, cpus, started, strategy, private):
        runs = []
        for count in (1, 2, 3):
            cpus(count)
            runs.append(self._rounds(strategy, private))
        # generating the four-client task starts count - 1 threads, and each of
        # two rounds count - 1 in each of its two phases
        assert len(started) == sum(5 * (count - 1) for count in (1, 2, 3))
        (metrics, held), *others = runs
        for other_metrics, other_held in others:
            assert other_metrics == metrics
            for name, array in held.items():
                assert (array is None) == (other_held[name] is None), name
                assert array is None or np.array_equal(array, other_held[name]), name

    def test_more_workers_than_cpus_under_fast_switching(self, cpus):
        # a block or group run twice or skipped changes the bytes
        cpus(1)
        expected = self._rounds("fedyogi", True)
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            metrics, held = self._rounds("fedyogi", True)
        finally:
            sys.setswitchinterval(interval)
        assert metrics == expected[0]
        for name, array in held.items():
            assert array is None or np.array_equal(array, expected[1][name]), name

    @pytest.mark.parametrize("heterogeneity,sigma_obs", [(0.0, 0.0), (0.6, 0.2)])
    def test_generation_bit_identical_at_any_worker_count(self, cpus, started, heterogeneity,
                                                          sigma_obs):
        # 700 x 1024 is above the cut-off: five clients' draws and GEMMs on up to three workers
        tasks = []
        for count in (1, 2, 3):
            cpus(count)
            tasks.append(generate_task(700, 1024, 3, 5, 12, sigma_obs, heterogeneity,
                                       RngStream(13, (99,))))
        assert len(started) == sum(count - 1 for count in (1, 2, 3))
        first, *others = tasks
        for other in others:
            for name in ("x", "y", "target_b", "target_a"):
                assert np.array_equal(getattr(other, name), getattr(first, name)), name
            assert np.array_equal(other.base.w, first.base.w)

    def test_round_peak_is_delta_t_and_the_released_stacks(self, cpus):
        # Every metric is taken before the step, and each per-client array dies after
        # its last reader: the stacks global_delta multiplies are the last ones alive.
        cpus(2)
        task = generate_task(700, 1024, 2, 4, 16, 0.1, 0.0, RngStream(12, (99,)))
        cfg = small_config(strategy="fedadam", clients=4, sampled_per_round=3, rank=32,
                           lora_scale=4.0, local_epochs=1, lr_start=1e-3, lr_end=1e-3)
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.01, sigma_a=0.02)
        server = ServerState.fresh(task.base, cfg.strategy)
        root = RngStream(6, (7,))
        run_round(server, task, cfg, root, mech)
        tracemalloc.start()
        try:
            run_round(server, task, cfg, root, mech)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one released pair per client, and a quarter more for the round's small arrays
        stacks = cfg.sampled_per_round * (task.m + task.n) * cfg.rank * 8
        assert peak < task.base.w.nbytes + 1.25 * stacks

    def test_small_shapes_start_no_thread(self, cpus, started):
        cpus(2)
        # the default 16 x 8 config, private, and 64 x 64 with all 20 clients a round;
        # each task is generated in the counted region too
        default = RunConfig(rounds=3)
        task = runner.build_task(default, RngStream(default.seed))
        mech = MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.2, sigma_a=0.3)
        run_experiment(default, task, RngStream(1), mech)
        full = RunConfig(rounds=3, task_m=64, task_n=64, sampled_per_round=20)
        run_experiment(full, runner.build_task(full, RngStream(0)), RngStream(1))
        # and a server step of two row blocks, below the cut-off
        wide = RunConfig(rounds=3, task_m=200, task_n=300, rank=4, strategy="fedadam")
        run_experiment(wide, runner.build_task(wide, RngStream(0)), RngStream(1))
        assert started == []
