"""Membership-inference game, ROC assembly, and the privacy-bound check."""

import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from fedlora_dp import attacks, runner
from fedlora_dp.attacks import (
    RocCurve,
    check_dp_bound,
    roc_curve,
    run_game,
    trained_update,
)
from fedlora_dp.adapters import FrozenBase
from fedlora_dp.config import RunConfig
from fedlora_dp.linalg import RngStream, frobenius_norm
from fedlora_dp.privacy import (
    MechanismParams,
    PrivacyBudget,
    calibrate_sigma,
    clip_pair,
    privatize,
)


def _record(gen, n=3, m=2):
    return gen.standard_normal(n), gen.standard_normal(m)


def _dataset(seed=0, size=4, n=3, m=2):
    gen = np.random.default_rng(seed)
    x, y = zip(*(_record(gen, n, m) for _ in range(size)))
    return np.stack(x), np.stack(y)


def _neighbors(dataset, replacement):
    """The dataset and a copy with row 0 replaced: the game's two neighboring datasets."""
    x, y = dataset
    x_prime, y_prime = x.copy(), y.copy()
    x_prime[0], y_prime[0] = replacement
    return (x, y), (x_prime, y_prime)


@dataclasses.dataclass(frozen=True)
class Game:
    """One client's training (base, ``mia_*`` keys, stream) and the mechanism under attack."""

    base: FrozenBase
    config: RunConfig
    mechanism: MechanismParams
    stream: RngStream


def _game_config(seed=0, m=2, n=3, sigma=0.5, clip=1.0, epochs=2) -> Game:
    gen = np.random.default_rng(seed + 100)
    return Game(
        base=FrozenBase(gen.standard_normal((m, n))),
        config=RunConfig(mia_rank=1, mia_epochs=epochs, mia_batch_size=4, mia_lr=0.01),
        mechanism=MechanismParams(clip_b=clip, clip_a=clip, sigma_b=sigma, sigma_a=sigma),
        stream=RngStream(seed, (50,)),
    )


def trained_means(datasets, game: Game):
    """The two un-noised mean updates the game is played on, clipped with the game's clip."""
    return tuple(clip_pair(trained_update(x, y, game.base, game.config, game.stream),
                           game.mechanism)
                 for x, y in datasets)


def flat(mean) -> np.ndarray:
    b, a = mean
    return np.concatenate([b.ravel(), a.ravel()])


def unit_direction(mean0, mean1) -> np.ndarray:
    """The flattened difference of two means, at unit norm."""
    direction = flat(mean1) - flat(mean0)
    return direction / np.linalg.norm(direction)


def score_update(release, unit: np.ndarray) -> float:
    """Per-release oracle: projection of the flattened pair (b, a) onto the mean difference."""
    return float(flat(release) @ unit)


def roc_curve_loop(bits: np.ndarray, scores: np.ndarray) -> RocCurve:
    """Reference threshold sweep: walk the scores from the highest down, one tie group at a time."""
    n_pos = int(bits.sum())
    n_neg = len(bits) - n_pos
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = bits[order]
    thresholds, fpr, tpr = [math.inf], [0.0], [0.0]
    tp = fp = 0
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and scores[j] == scores[i]:
            tp += int(labels[j])
            fp += 1 - int(labels[j])
            j += 1
        thresholds.append(float(scores[i]))
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        i = j
    return RocCurve(tuple(thresholds), tuple(fpr), tuple(tpr))


class TestAdversarialGame:
    def test_neighbors_differ_only_in_row_0_by_the_input_scale(self, monkeypatch):
        calls = []
        original = attacks.trained_update

        def spy(x, y, base, config, stream):
            calls.append((x.copy(), y.copy(), stream.stream_path))
            return original(x, y, base, config, stream)

        monkeypatch.setattr(attacks, "trained_update", spy)
        config = RunConfig(task_m=6, task_n=4, task_rank=2, mia_dataset_size=5,
                           mia_input_scale=10.0)
        runner.build_adversarial_game(config, RngStream(7))
        assert len(calls) == 2
        (x, y, path), (x_prime, y_prime, path_prime) = calls
        assert path == path_prime
        assert x.shape == x_prime.shape == (5, 4) and y.shape == y_prime.shape == (5, 6)
        assert np.array_equal(x[1:], x_prime[1:]) and np.array_equal(y[1:], y_prime[1:])
        assert np.array_equal(x_prime[0], x[0] * config.mia_input_scale)
        assert not np.array_equal(y_prime[0], y[0])

    def test_game_client_is_a_one_client_run_the_runner_builds_and_calibrates(self, monkeypatch):
        # The audit must run the calibration a run deploys, so the game's task and
        # mechanism come from runner.build_task and runner._calibrated, wherever bound.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        layers = importlib.import_module("layers")
        tracer = importlib.import_module("tracer")
        calls = {}
        patched = []
        for name in ("build_task", "_calibrated"):
            def recording(*args, _fn=getattr(runner, name), _name=name):
                calls[_name] = (args, _fn(*args))
                return calls[_name][1]
            patched += tracer.patch_everywhere(layers.package_modules(), getattr(runner, name),
                                               recording)
        config = RunConfig(task_m=6, task_n=4, task_rank=2, clients=5, sampled_per_round=3,
                           samples_per_client=30, heterogeneity=0.5, epsilon=9.0, epsilon_b=3.0,
                           mia_dataset_size=5, mia_epsilon=0.5)
        try:
            mean0, mean1, mechanism = runner.build_adversarial_game(config, RngStream(7))
        finally:
            tracer.restore(patched)

        (game, stream), task = calls["build_task"]
        assert (game.clients, game.sampled_per_round, game.samples_per_client,
                game.heterogeneity) == (1, 1, 5, 0.0)
        assert game.resolved_epsilon_b() == game.resolved_epsilon_a() == 0.5
        assert stream == RngStream(7).child(runner._STREAM_MIA)
        assert task.x.shape == (1, 5, 4)
        (calibrated_for, clip_b, clip_a), built = calls["_calibrated"]
        assert calibrated_for is game and built is mechanism
        assert clip_b == max(frobenius_norm(mean0[0]), frobenius_norm(mean1[0]))
        assert clip_a == max(frobenius_norm(mean0[1]), frobenius_norm(mean1[1]))


class TestRunGame:
    def test_deterministic_given_seed(self):
        pair = _neighbors(_dataset(3), _record(np.random.default_rng(4)))
        cfg = _game_config(3)
        bits1, scores1, acc1 = run_game(*trained_means(pair, cfg), cfg.mechanism, 200,
                                        RngStream(5, (1,)))
        bits2, scores2, acc2 = run_game(*trained_means(pair, cfg), cfg.mechanism, 200,
                                        RngStream(5, (1,)))
        assert np.array_equal(bits1, bits2)
        assert np.array_equal(scores1, scores2)
        assert acc1 == acc2

    def test_huge_noise_near_chance(self):
        pair = _neighbors(_dataset(6), _record(np.random.default_rng(7)))
        cfg = _game_config(6, sigma=1e6)
        _, scores, acc = run_game(*trained_means(pair, cfg), cfg.mechanism, 2000,
                                  RngStream(8, (1,)))
        assert abs(acc - 0.5) <= 3 / math.sqrt(len(scores))

    def test_no_noise_perfect_separation(self):
        pair = _neighbors(_dataset(9), (np.array([10.0, -8.0, 6.0]), np.array([4.0, -4.0])))
        cfg = _game_config(9, sigma=0.0)
        _, _, acc = run_game(*trained_means(pair, cfg), cfg.mechanism, 1000, RngStream(10, (1,)))
        assert acc >= 0.99

    def test_score_distributions_gaussian_mean_gap(self):
        # two-sample moment check: equal variances, mean gap = ||mu1 - mu0||
        pair = _neighbors(_dataset(11), (np.array([5.0, 5.0, -5.0]), np.array([2.0, -2.0])))
        cfg = _game_config(11, sigma=0.3)
        mean0, mean1 = trained_means(pair, cfg)
        bits, scores, _ = run_game(mean0, mean1, cfg.mechanism, 4000, RngStream(12, (1,)))
        gap = float(np.linalg.norm(flat(mean1) - flat(mean0)))
        s0 = scores[bits == 0]
        s1 = scores[bits == 1]
        observed_gap = s1.mean() - s0.mean()
        se = math.sqrt(s0.var() / len(s0) + s1.var() / len(s1))
        assert abs(observed_gap - gap) <= 5 * se
        assert s0.std() == pytest.approx(s1.std(), rel=0.15)
        assert s0.std() == pytest.approx(0.3, rel=0.15)

    def test_minimum_trials(self):
        pair = _neighbors(_dataset(1), _record(np.random.default_rng(2)))
        cfg = _game_config(1)
        with pytest.raises(ValueError, match="trials"):
            run_game(*trained_means(pair, cfg), cfg.mechanism, 10, RngStream(0))

    def test_coinciding_means_rejected(self):
        mean = (np.ones((2, 1)), np.ones((1, 2)))
        mech = MechanismParams(clip_b=1.0, clip_a=1.0, sigma_b=0.5, sigma_a=0.5)
        with pytest.raises(ValueError, match="coincide"):
            run_game(mean, (mean[0].copy(), mean[1].copy()), mech, 100, RngStream(0))

    # Means far outside the clip sphere: clipping moves both, and their midpoint.
    far0 = (np.array([[6.0], [2.0]]), np.array([[3.0, -1.0]]))
    far1 = (np.array([[-4.0], [5.0]]), np.array([[0.5, 4.0]]))

    def test_binding_clip_without_noise_is_perfect(self):
        mech = MechanismParams(clip_b=1.0, clip_a=0.5, sigma_b=0.0, sigma_a=0.0)
        assert min(frobenius_norm(f) for f in (*self.far0, *self.far1)) > mech.clip_b
        _, _, acc = run_game(self.far0, self.far1, mech, 500, RngStream(16, (1,)))
        assert acc == 1.0

    def test_accuracy_is_the_midpoint_rule_on_the_clipped_means(self):
        mech = MechanismParams(clip_b=1.0, clip_a=0.5, sigma_b=0.4, sigma_a=0.3)
        bits, scores, acc = run_game(self.far0, self.far1, mech, 3000, RngStream(17, (1,)))

        def midpoint_rule(mean0, mean1):
            threshold = unit_direction(mean0, mean1) @ (flat(mean0) + flat(mean1)) / 2.0
            return int(np.count_nonzero((scores > threshold) == (bits == 1))) / len(scores)

        clipped = [clip_pair(mean, mech) for mean in (self.far0, self.far1)]
        assert acc == midpoint_rule(*clipped)
        # the unclipped means' midpoint is a threshold in other coordinates
        assert acc != midpoint_rule(self.far0, self.far1)


class TestRocCurve:
    def test_endpoints(self):
        curve = roc_curve(np.array([0, 1, 0, 1]), np.array([0.1, 0.9, 0.2, 0.8]))
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_perfect_classifier(self):
        curve = roc_curve(np.repeat([1, 0], 5), np.repeat([1.0, 0.0], 5))
        assert (0.0, 1.0) in zip(curve.fpr, curve.tpr)

    def test_tied_scores_grouped(self):
        curve = roc_curve(np.array([0, 1, 0, 1]), np.array([0.5, 0.5, 0.1, 0.9]))
        assert all(b >= a for a, b in zip(curve.fpr, curve.fpr[1:]))
        assert all(b >= a for a, b in zip(curve.tpr, curve.tpr[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_curve(np.ones(10, dtype=np.int64), np.full(10, 0.5))

    def test_matches_loop_oracle_with_ties(self):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            size = int(gen.integers(2, 2000))
            # scores on a coarse grid so most of them tie
            scores = gen.integers(-40, 40, size=size) / 8.0
            bits = gen.integers(0, 2, size=size)
            bits[:2] = (0, 1)
            assert roc_curve(bits, scores) == roc_curve_loop(bits, scores)


class TestCheckDpBound:
    def test_diagonal_curve_passes_any_epsilon(self):
        curve = RocCurve(
            thresholds=(math.inf, 0.5, 0.0),
            fpr=(0.0, 0.5, 1.0),
            tpr=(0.0, 0.5, 1.0),
        )
        for eps in (0.0, 0.5, 2.0):
            assert check_dp_bound(curve, eps, 1e-5, 10_000).passed

    def test_boundary_curve_at_ln2(self):
        # upper boundary of the two-sided (eps, delta) region: the forward line
        # tpr = e^eps * fpr + delta until it meets the reverse line
        # 1 - fpr = e^eps * (1 - tpr) + delta, endpoints pinned for RocCurve
        eps, delta = math.log(2.0), 1e-5
        fpr = np.linspace(0, 1, 101)
        tpr = np.minimum.reduce([
            np.ones_like(fpr),
            math.exp(eps) * fpr + delta,
            1.0 - math.exp(-eps) * (1.0 - fpr - delta),
        ])
        tpr[0], tpr[-1] = 0.0, 1.0

        def check_curve(tpr):
            curve = RocCurve(
                thresholds=tuple(math.inf for _ in fpr), fpr=tuple(fpr), tpr=tuple(tpr),
            )
            return check_dp_bound(curve, eps, delta, 10_000)

        check = check_curve(tpr)
        assert abs(check.max_violation) <= 1e-12
        assert check.passed

        # one interior point lifted above the boundary, later points raised to keep it monotone
        lift = 2 * check.mc_tolerance
        lifted = tpr.copy()
        lifted[25] += lift
        lifted = np.maximum.accumulate(lifted)
        lifted_check = check_curve(lifted)
        assert lifted_check.max_violation == pytest.approx(lift, abs=1e-12)
        assert not lifted_check.passed

    def test_violating_curve_fails(self):
        curve = RocCurve(
            thresholds=(math.inf, 1.0, 0.0),
            fpr=(0.0, 0.1, 1.0),
            tpr=(0.0, 0.9, 1.0),
        )
        check = check_dp_bound(curve, 0.5, 1e-5, 10_000)
        assert not check.passed

    def test_reverse_orientation_checked(self):
        # forward direction fine, reverse direction (swap classes) violated
        curve = RocCurve(
            thresholds=(math.inf, 1.0, 0.0),
            fpr=(0.0, 0.9, 1.0),
            tpr=(0.0, 0.1, 1.0),
        )
        check = check_dp_bound(curve, 0.1, 1e-5, 10_000)
        assert check.max_violation >= (1 - 0.9) - math.exp(0.1) * (1 - 0.1) - 1e-5


    def test_huge_epsilon_leaves_only_the_edges(self):
        # e^1000 overflows a float.  In the closed form every point with fpr > 0 meets the
        # forward line and every point with tpr < 1 the reverse one, so the violation is the
        # fpr = 0 edge's tpr - delta or the tpr = 1 edge's 1 - fpr - delta.
        delta = 1e-5
        fpr = (0.0, 0.0, 1e-4, 0.2, 0.6, 1.0)
        tpr = (0.0, 0.3, 0.5, 0.9999, 1.0, 1.0)
        curve = RocCurve(thresholds=tuple(math.inf for _ in fpr), fpr=fpr, tpr=tpr)
        check = check_dp_bound(curve, 1000.0, delta, 10_000)
        edges = ([t - delta for f, t in zip(fpr, tpr) if f == 0]
                 + [1 - f - delta for f, t in zip(fpr, tpr) if t == 1])
        assert check.max_violation == max(edges) == 0.4 - delta
        inside = RocCurve(thresholds=(math.inf,) * 3, fpr=(0.0, 1e-4, 1.0),
                          tpr=(0.0, 0.9999, 1.0))
        assert check_dp_bound(inside, 1000.0, delta, 10_000).max_violation == -delta


class TestDirectGame:
    def test_calibrated_antipodal_pair_passes_at_half(self):
        eps, delta = 0.5, 1e-5
        clip = 1.0
        sigma = calibrate_sigma(clip, PrivacyBudget(eps, delta))
        mech = MechanismParams(clip_b=clip, clip_a=clip, sigma_b=sigma, sigma_a=sigma)
        u = np.ones((2, 1)) / math.sqrt(2)
        v = np.ones((1, 2)) / math.sqrt(2)
        bits, scores, _ = run_game((u, v), (-u, v), mech, 10_000, RngStream(13, (1,)))
        check = check_dp_bound(roc_curve(bits, scores), eps, delta, 10_000)
        assert check.passed

    def test_undercalibrated_noise_detected(self):
        eps, delta = 0.5, 1e-5
        clip = 1.0
        sigma = calibrate_sigma(clip, PrivacyBudget(eps, delta)) / 2.0
        mech = MechanismParams(clip_b=clip, clip_a=clip, sigma_b=sigma, sigma_a=sigma)
        u = np.ones((2, 1)) / math.sqrt(2)
        v = np.ones((1, 2)) / math.sqrt(2)
        bits, scores, _ = run_game((u, v), (-u, v), mech, 10_000, RngStream(14, (1,)))
        check = check_dp_bound(roc_curve(bits, scores), eps, delta, 10_000)
        assert not check.passed

    def test_monotone_privacy_in_sigma(self):
        clip = 1.0
        u = np.ones((2, 2)) / 2.0
        v = np.eye(2) / math.sqrt(2)
        sigma_star = calibrate_sigma(clip, PrivacyBudget(25.0, 1e-5))
        accs = []
        for i, scale in enumerate((0.0, 1.0, 10.0)):
            mech = MechanismParams(clip_b=clip, clip_a=clip,
                                   sigma_b=sigma_star * scale, sigma_a=sigma_star * scale)
            accs.append(run_game((u, v), (-u, v), mech, 1000, RngStream(15, (i,)))[2])
        se = 2 * math.sqrt(0.25 / 1000)
        assert accs[0] >= accs[1] - se >= accs[2] - 2 * se


class TestBlockLayout:
    """Trials run in blocks of ``attacks._block_size``, one stacked draw per bit and factor."""

    clip = 1.0
    gen = np.random.default_rng(21)
    # 16x4 and 4x16 factors: 64-entry blocks, so a few hundred trials span several blocks
    mean0 = (gen.standard_normal((16, 4)), gen.standard_normal((4, 16)))
    mean1 = (gen.standard_normal((16, 4)), gen.standard_normal((4, 16)))
    mech = MechanismParams(clip_b=clip, clip_a=2 * clip, sigma_b=0.3, sigma_a=0.7)

    def block(self):
        return attacks._block_size(self.mean0[0].size, self.mean0[1].size)

    def test_block_size_fixed_by_shapes(self):
        assert self.block() == 65_536 // 64

    def test_partial_last_block(self):
        trials = 3 * self.block() + 37
        bits, scores, _ = run_game(self.mean0, self.mean1, self.mech, trials, RngStream(22))
        assert len(bits) == len(scores) == trials
        assert set(bits[-37:].tolist()) == {0, 1}

    def test_first_trial_of_each_block_matches_single_releases(self):
        block = self.block()
        trials = 2 * block + 100
        rng = RngStream(23, (4,))
        bits, scores, _ = run_game(self.mean0, self.mean1, self.mech, trials, rng)
        means = [clip_pair(mean, self.mech) for mean in (self.mean0, self.mean1)]
        unit = unit_direction(*means)
        for k, start in enumerate(range(0, trials, block)):
            for bit in (0, 1):
                first = start + int(np.flatnonzero(bits[start:start + block] == bit)[0])
                _, release = privatize(means[bit], self.mech, rng.child(k, 1, bit),
                                       rng.child(k, 2, bit))
                expected = score_update(release, unit)
                assert scores[first] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_one_release_call_per_block_and_bit_present(self, monkeypatch):
        calls = []

        def spy(pair, mechanism, stream_b, stream_a, count=None):
            calls.append((stream_b.stream_path, stream_a.stream_path, count))
            return privatize(pair, mechanism, stream_b, stream_a, count)

        monkeypatch.setattr(attacks, "privatize", spy)
        block = self.block()
        trials = 2 * block + 100
        bits, _, _ = run_game(self.mean0, self.mean1, self.mech, trials, RngStream(25, (4,)))
        expected = []
        for k, start in enumerate(range(0, trials, block)):
            chunk = bits[start:start + block]
            expected += [((4, k, 1, bit), (4, k, 2, bit), int(np.count_nonzero(chunk == bit)))
                         for bit in (0, 1) if (chunk == bit).any()]
        assert calls == expected

    def test_generators_per_block(self, monkeypatch):
        calls = []
        original = RngStream.generator

        def counting(stream):
            calls.append(stream.stream_path)
            return original(stream)

        monkeypatch.setattr(RngStream, "generator", counting)
        block = self.block()
        trials = 5 * block + 1
        bits, _, _ = run_game(self.mean0, self.mean1, self.mech, trials, RngStream(24))
        # per block: one for the bits, then one each for B and A per bit present
        expected = sum(1 + 2 * len(set(bits[start:start + block].tolist()))
                       for start in range(0, trials, block))
        assert len(calls) == expected <= 5 * math.ceil(trials / block)
        assert len(set(calls)) == len(calls)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            run_game(self.mean0, (self.mean1[0][:8], self.mean1[1]), self.mech, 100,
                            RngStream(0))

