"""Experiment orchestration: run directories, CSV tables, verify suite, sweeps.

Every mode writes into ``<output_dir>/<experiment_name>/``: each but
``report`` the canonical ``config.snapshot`` and a human-readable
``summary.txt``, and besides them

- ``run``: ``metrics.csv``, one row per round;
- ``sweep_epsilon``, ``sweep_clip``: ``sweep.csv``, one row per point, and
  a ``run`` directory per point (``eps_5/``, ``clip_0p1/``);
- ``sweep_rank``, ``sweep_size``: ``noise_stats.csv``, one row per point;
- ``mia``: ``trials_<level>.csv`` and ``roc_<level>.csv`` for each noise
  level (``sigma_0``, ``sigma_calibrated``, ``sigma_10x``) of a game against
  the client of a one-client run (``build_adversarial_game``), and in
  ``summary.txt`` each level's accuracy, as ``attacks.run_game`` scores it
  from the clipped means, and its privacy-bound check;
- ``verify``: ``verify_report.csv``, one row per check.

``report`` reads every run beneath a run directory (a run is a directory
holding a ``config.snapshot``; ``report/`` holds none) and writes
``report/``: ``loss_vs_round.csv`` and ``noise_summary.csv``, each row led by
its run, copies of each run's ROC and verify tables at their relative paths,
and ``summary.txt``.  Every table is written by ``_write_csv``, with floats
at 17 significant digits so byte-level comparisons of repeated runs are
meaningful, and read back by ``_read_csv``.

Exit codes: 0 success, 1 validation error, 2 runtime or numeric failure,
3 verify-suite failure.
"""

import csv
import hashlib
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import starmap
from pathlib import Path

import numpy as np

from . import attacks, noise_stats
from .adapters import FactorPair
from .config import RunConfig, sweep_label
from .linalg import RngStream, frobenius_norm
from .privacy import IDENTITY_MECHANISM, MechanismParams, PrivacyBudget, compose_budget
from .simulation import (ExperimentResult, ServerState, SyntheticTask, generate_task,
                         run_experiment, run_round)

__all__ = [
    "METRICS_HEADER",
    "NOISE_HEADER",
    "VerifyCheck",
    "fmt",
    "cmd_run",
    "cmd_verify",
    "cmd_sweep",
    "cmd_mia",
    "cmd_report",
    "build_task",
    "build_mechanism",
    "build_adversarial_game",
    "verify_checks",
]

METRICS_HEADER = "round,strategy,dp_enabled,epsilon,clip,mean_loss,global_delta_norm,expectation_diff,total_variance,wall_ms"
NOISE_HEADER = "sweep_key,sweep_value,mean_diff,std_error,mc_variance,exact_variance,paper_bound"
TRIALS_HEADER = "trial,true_bit,score"
ROC_HEADER = "threshold,fpr,tpr"
VERIFY_HEADER = "check,passed,detail"

# Top-level stream branches per seed.
_STREAM_TASK = 0
_STREAM_CALIBRATE = 1
_STREAM_EXPERIMENT = 2
_STREAM_MIA = 3
_STREAM_VERIFY = 4
_STREAM_SWEEP = 5


_FLOAT_SPEC = ".17g"  # 17 significant digits: every float reads back from its string


def fmt(value: float) -> str:
    """Render a float with 17 significant digits (round-trip stable)."""
    return format(value, _FLOAT_SPEC)


def _write(path: Path, lines: list[str]) -> None:
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc


def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> list[str]:
    """Write a table, ``header`` and then one line per row; return the lines written.

    Each column's format is chosen once, from its first row, so each column
    holds one type: a float column prints as ``fmt`` does, any other as
    ``str``.  Every row then goes through one format string, with no Python
    call per value.  The caller quotes a cell that may hold a comma (``_csv_cell``).
    """
    rows = list(rows)
    line = ",".join("{:" + _FLOAT_SPEC + "}" if isinstance(value, float) else "{}"
                    for value in rows[0]) if rows else ""
    lines = [header, *starmap(line.format, rows)]
    _write(path, lines)
    return lines


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field: quoted, with inner quotes doubled, if it holds , " or a newline."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _read_csv(path: Path, header: str) -> list[dict[str, str]]:
    """The rows of a table headed ``header``, keyed by column name; other headers are errors."""
    names = header.split(",")
    with path.open(newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != names:
            raise ValueError(f"{path}: expected the header {header!r}")
        return [dict(zip(names, row)) for row in reader]


def _open_run_dir(config: RunConfig, out_override: str | None) -> Path:
    """Create ``config``'s run directory and write the ``config.snapshot`` that reproduces it."""
    out_dir = run_directory(config, out_override)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "config.snapshot", config.snapshot().splitlines())
    return out_dir


def run_directory(config: RunConfig, out_override: str | None = None) -> Path:
    base = Path(out_override) if out_override else Path(config.output_dir)
    return base / config.experiment_name


def build_task(config: RunConfig, root: RngStream) -> SyntheticTask:
    return generate_task(
        m=config.task_m,
        n=config.task_n,
        r_star=config.task_rank,
        n_clients=config.clients,
        samples_per_client=config.samples_per_client,
        sigma_obs=config.sigma_obs,
        heterogeneity=config.heterogeneity,
        rng=root.child(_STREAM_TASK),
    )


def resolve_clips(config: RunConfig, task: SyntheticTask, root: RngStream) -> tuple[float, float]:
    """Clip thresholds: fixed values, or a norm quantile from a short dry run.

    The dry run plays the first ``calibration_rounds`` rounds of ``config``
    itself, at the run's own learning rates, without DP
    (``IDENTITY_MECHANISM``), on the calibration stream; the thresholds are
    quantiles of its ``client_norms``, the pre-clipping factor norms of every
    sampled client.
    """
    if config.clip_mode == "absolute":
        return config.clip_value, config.clip_value
    server = ServerState.fresh(task.base, config.strategy, task.n_clients)
    stream = root.child(_STREAM_CALIBRATE)
    rounds = [run_round(server, task, config, stream) for _ in range(config.calibration_rounds)]
    _, b_norms, a_norms = zip(*(norms for r in rounds for norms in r.client_norms))
    clip_b = float(np.quantile(b_norms, config.clip_quantile))
    clip_a = float(np.quantile(a_norms, config.clip_quantile))
    floor = 1e-12
    return max(clip_b, floor), max(clip_a, floor)


def _calibrated(config: RunConfig, clip_b: float, clip_a: float) -> MechanismParams:
    """Mechanism at the given clips, each factor's sigma calibrated to the config's budget."""
    return MechanismParams.calibrated(
        clip_b=clip_b,
        clip_a=clip_a,
        budget_b=PrivacyBudget(config.resolved_epsilon_b(), config.delta),
        budget_a=PrivacyBudget(config.resolved_epsilon_a(), config.delta),
    )


def build_mechanism(config: RunConfig, task: SyntheticTask, root: RngStream) -> MechanismParams:
    return _calibrated(config, *resolve_clips(config, task, root))


def _persist_run(config: RunConfig, out_override: str | None, result: ExperimentResult,
                 mechanism: MechanismParams) -> None:
    out_dir = _open_run_dir(config, out_override)
    dp = "true" if config.dp_enabled else "false"
    epsilon = config.resolved_epsilon_b() if config.dp_enabled else 0.0
    clip = mechanism.clip_b if config.dp_enabled else 0.0
    # wall_ms is pinned to 0 in the CSV so repeated runs are byte-identical;
    # real timings live in summary.txt.
    _write_csv(out_dir / "metrics.csv", METRICS_HEADER,
               [(r.round_index, config.strategy, dp, epsilon, clip, r.mean_train_loss,
                 r.global_delta_norm, r.expectation_diff, r.total_variance, 0)
                for r in result.rounds])
    summary = [
        f"experiment: {config.experiment_name}",
        f"config_hash: {hashlib.sha256(config.snapshot().encode()).hexdigest()}",
        f"strategy: {config.strategy}",
        f"dp_enabled: {dp}",
        f"rounds: {len(result.rounds)}",
        f"initial_loss: {fmt(result.initial_loss)}",
        f"final_loss: {fmt(result.final_loss)}",
    ]
    if result.rounds:
        summary.append(f"final_mean_train_loss: {fmt(result.rounds[-1].mean_train_loss)}")
    if config.dp_enabled:
        summary += [
            f"clip_b: {fmt(mechanism.clip_b)}",
            f"clip_a: {fmt(mechanism.clip_a)}",
            f"sigma_b: {fmt(mechanism.sigma_b)}",
            f"sigma_a: {fmt(mechanism.sigma_a)}",
        ]
        if config.rounds > 0:
            naive = compose_budget(config.resolved_epsilon_b(), config.resolved_epsilon_a(),
                                   config.rounds)
            summary.append(f"naive_composed_epsilon: {fmt(naive)}")
    summary.append(f"wall_time_s: {result.wall_s:.3f}")
    _write(out_dir / "summary.txt", summary)


def cmd_run(config: RunConfig, out_override: str | None = None) -> int:
    """Run one experiment and persist metrics plus a summary."""
    root = RngStream(config.seed)
    task = build_task(config, root)
    mechanism = build_mechanism(config, task, root) if config.dp_enabled else IDENTITY_MECHANISM
    result = run_experiment(config, task, root.child(_STREAM_EXPERIMENT), mechanism)
    _persist_run(config, out_override, result, mechanism)
    return 0


# ---------------------------------------------------------------------------
# Verify suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def _check_noise_product(root: RngStream, instances: int, draws: int
                         ) -> tuple[VerifyCheck, VerifyCheck]:
    """``unbiasedness`` and ``variance_oracle``, both read off one Monte Carlo pass per instance.

    Instance i draws its shape (each side 1-6), factors and noise scales from
    ``root.child(0)`` and its noise from ``root.child(1, i)``.  Unbiasedness
    holds while every |mean_diff| stays within 5 standard errors, and the
    variance oracle while every Monte Carlo total variance lies within 3% of
    ``exact_total_variance``.
    """
    gen = root.child(0).generator()
    ratios, rel_errs = [], []
    for i in range(instances):
        m, n, r = (int(gen.integers(1, 7)) for _ in range(3))
        b = gen.standard_normal((m, r))
        a = gen.standard_normal((r, n))
        model = noise_stats.NoiseModel(float(gen.uniform(0.1, 2.0)), float(gen.uniform(0.1, 2.0)))
        stats = noise_stats.noise_product_stats(b, a, model, draws, root.child(1, i))
        exact = noise_stats.exact_total_variance(b, a, model)
        ratios.append(abs(stats.mean_diff) / (5 * stats.std_error))
        rel_errs.append(abs(stats.total_variance - exact) / exact)
    ratio, rel = float(np.max(ratios)), float(np.max(rel_errs))  # np.max keeps a NaN: it fails
    return (VerifyCheck("unbiasedness", ratio <= 1.0, f"worst |mean|/5SE ratio {ratio:.3f}"),
            VerifyCheck("variance_oracle", rel <= 0.03, f"worst MC rel err {rel:.4f}"))


def _check_rank_linearity(root: RngStream, draws: int) -> VerifyCheck:
    """Monte Carlo total variance doubles (within 1.8-2.2) with each doubling of the rank."""
    model = noise_stats.NoiseModel(1.0, 1.0)
    mc = [row.mc_variance for row in noise_stats.rank_sweep([8, 16, 32, 64, 128], 8, 8, model,
                                                            draws, root)]
    ratios = [hi / lo for lo, hi in zip(mc, mc[1:])]
    low, high = float(np.min(ratios)), float(np.max(ratios))
    return VerifyCheck("rank_linearity", 1.8 <= low and high <= 2.2,
                       f"MC doubling ratios {low:.3f}-{high:.3f}")


def build_adversarial_game(config: RunConfig, root: RngStream
                           ) -> tuple[FactorPair, FactorPair, MechanismParams]:
    """Trained means of two neighboring datasets, and the mechanism the game attacks.

    The game's client is a one-client run of ``config`` (``mia_dataset_size``
    rows, no heterogeneity, ``mia_epsilon`` on each factor), so its task and
    mechanism come from ``build_task`` and ``_calibrated``, as a run's do.
    Its datasets are the client's ``(x, y)`` and a copy whose row 0 is the
    input-scaled record ``x[0] * mia_input_scale`` with its noiseless target.
    Each is trained once, on one training stream.  The clip thresholds are
    the larger of the two means' factor norms, so clipping is honest but
    mild, leaves both means unchanged, and the pair's separation stays well
    inside the worst case.
    """
    game = replace(config, clients=1, sampled_per_round=1,
                   samples_per_client=config.mia_dataset_size, heterogeneity=0.0,
                   epsilon=config.mia_epsilon, epsilon_b=0.0, epsilon_a=0.0)
    stream = root.child(_STREAM_MIA)
    # the task comes from stream.child(_STREAM_TASK), the 0 that pinned game outputs rely on
    task = build_task(game, stream)
    x, y = task.x[0], task.y[0]
    x_prime, y_prime = x.copy(), y.copy()
    x_prime[0] *= config.mia_input_scale
    # target_delta forms the game task's m x n target from its factors, as generation did
    y_prime[0] = (task.base.w + task.target_delta) @ x_prime[0]

    mean0 = attacks.trained_update(x, y, task.base, game, stream.child(1))
    mean1 = attacks.trained_update(x_prime, y_prime, task.base, game, stream.child(1))
    mechanism = _calibrated(game, max(frobenius_norm(mean0[0]), frobenius_norm(mean1[0])),
                            max(frobenius_norm(mean0[1]), frobenius_norm(mean1[1])))
    return mean0, mean1, mechanism


def _check_dp_bound(config: RunConfig, root: RngStream, trials: int,
                    sigma_scale: float = 1.0) -> VerifyCheck:
    """Empirical (epsilon, delta) trade-off at eps = 0.5 on two pairs.

    Checks the trained adversarial neighbor pair of the run's config at
    ``mia_epsilon = 0.5``, and a synthetic pair of the trained means' shapes
    on the clip sphere, antipodal in B and equal in A.  That pair separates B
    only (at 16x8, seed 0: mu = 2 c_b / sigma_b = 0.206, where a pair
    antipodal in both factors reaches 0.292), so it is not the sharpest pair
    the clipping admits.
    """
    eps = 0.5
    mean0, mean1, mech = build_adversarial_game(replace(config, mia_epsilon=eps), root)
    mech = replace(mech, sigma_b=mech.sigma_b * sigma_scale, sigma_a=mech.sigma_a * sigma_scale)
    direction_b, direction_a = (np.ones(f.shape) / math.sqrt(f.size) for f in mean0)
    worst0 = (mech.clip_b * direction_b, mech.clip_a * direction_a)
    worst1 = (-mech.clip_b * direction_b, mech.clip_a * direction_a)
    checks = []
    for i, pair in enumerate(((mean0, mean1), (worst0, worst1))):
        bits, scores, _ = attacks.run_game(*pair, mech, trials, root.child(_STREAM_VERIFY, i))
        checks.append(attacks.check_dp_bound(attacks.roc_curve(bits, scores), eps, config.delta,
                                             trials))
    trained, worst = checks
    detail = (
        f"trained pair violation {trained.max_violation:.4f}, "
        f"worst-case violation {worst.max_violation:.4f}, tolerance {trained.mc_tolerance:.4f}"
    )
    return VerifyCheck("dp_bound", trained.passed and worst.passed, detail)


def verify_checks(config: RunConfig, sigma_scale: float = 1.0) -> list[VerifyCheck]:
    """The statistical oracles, with sample sizes reduced under verify_fast.

    Verify reports Monte Carlo verdicts only.  Exact identities are unit
    tests in ``tests/test_noise_stats.py``: ``variance_bound`` equals
    ``exact_total_variance`` at square shapes, and the exact variance is
    linear in the rank.  So are the deterministic contracts (clipping,
    calibration, stacking).
    """
    fast = config.verify_fast
    instances = 8 if fast else 50
    draws = 20_000 if fast else 100_000
    trials = 2_000 if fast else 10_000

    root = RngStream(config.seed).child(_STREAM_VERIFY)
    return [
        *_check_noise_product(root.child(3), instances, draws),
        _check_rank_linearity(root.child(5), draws),
        _check_dp_bound(config, RngStream(config.seed), trials, sigma_scale=sigma_scale),
    ]


def cmd_verify(config: RunConfig, out_override: str | None = None,
               sigma_scale: float = 1.0) -> int:
    """Run the invariant suite; exit 0 only if every check passes."""
    t0 = time.perf_counter()
    checks = verify_checks(config, sigma_scale=sigma_scale)
    out_dir = _open_run_dir(config, out_override)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    _write_csv(out_dir / "verify_report.csv", VERIFY_HEADER,
               [(c.name, str(c.passed).lower(), f'"{c.detail}"') for c in checks])
    _write(out_dir / "summary.txt",
           [f"verify checks: {sum(c.passed for c in checks)}/{len(checks)} passed",
            f"wall_time_s: {time.perf_counter() - t0:.3f}"])
    return 0 if all(c.passed for c in checks) else 3


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def cmd_sweep(config: RunConfig, out_override: str | None = None) -> int:
    """Dispatch one of the four sweep modes."""
    out_dir = _open_run_dir(config, out_override)
    root = RngStream(config.seed)

    if config.mode in ("sweep_rank", "sweep_size"):
        model = noise_stats.NoiseModel(config.noise_sigma_beta, config.noise_sigma_alpha)
        stream = root.child(_STREAM_SWEEP)
        if config.mode == "sweep_rank":
            rows = noise_stats.rank_sweep(
                list(config.sweep_ranks), config.task_m, config.task_n, model,
                config.noise_draws, stream, config.sweep_norm_b, config.sweep_norm_a,
            )
        else:
            rows = noise_stats.size_sweep(
                [tuple(p) for p in config.sweep_sizes], config.rank, model,
                config.noise_draws, stream, config.sweep_norm_b, config.sweep_norm_a,
            )
        _write_csv(out_dir / "noise_stats.csv", NOISE_HEADER,
                   [(r.key, r.value, r.mean_diff, r.std_error, r.mc_variance, r.exact_variance,
                     r.bound) for r in rows])
        _write(out_dir / "summary.txt", [f"{config.mode}: {len(rows)} points"])
        return 0

    task = build_task(config, root)
    # (label, swept value, point settings, clip_b, clip_a); every point is a private
    # run whose config.snapshot reruns it under ``run``.  Only sweep_epsilon
    # overrides the per-factor budgets; sweep_clip keeps the config's, and each of
    # its points is an absolute threshold at which sigma is recalibrated.
    if config.mode == "sweep_epsilon":
        clip_b, clip_a = resolve_clips(config, task, root)
        key = "epsilon"
        points = [(f"eps_{sweep_label(eps)}", eps,
                   replace(config, epsilon=eps, epsilon_b=0.0, epsilon_a=0.0), clip_b, clip_a)
                  for eps in config.sweep_epsilons]
    else:
        key = "clip"
        points = [(f"clip_{sweep_label(c)}", c,
                   replace(config, clip_mode="absolute", clip_value=c), c, c)
                  for c in config.sweep_clips]

    rows = []
    for label, value, point, cb, ca in points:
        point_config = replace(point, experiment_name=f"{config.experiment_name}/{label}",
                               mode="run", dp_enabled=True)
        mechanism = _calibrated(point_config, cb, ca)
        result = run_experiment(point_config, task, root.child(_STREAM_EXPERIMENT), mechanism)
        _persist_run(point_config, out_override, result, mechanism)
        final_train = result.rounds[-1].mean_train_loss if result.rounds else result.initial_loss
        rows.append((key, value, result.final_loss, final_train))

    table = _write_csv(out_dir / "sweep.csv",
                       "sweep_key,sweep_value,final_loss,final_mean_train_loss", rows)
    _write(out_dir / "summary.txt", [f"{config.mode}: {len(points)} points", *table])
    return 0


# ---------------------------------------------------------------------------
# Membership-inference mode
# ---------------------------------------------------------------------------


def cmd_mia(config: RunConfig, out_override: str | None = None) -> int:
    """Play the distinguishing game at three noise levels and emit score/ROC CSVs."""
    out_dir = _open_run_dir(config, out_override)
    root = RngStream(config.seed)
    mean0, mean1, mech = build_adversarial_game(config, root)
    summary = []
    for tag, scale in (("sigma_0", 0.0), ("sigma_calibrated", 1.0), ("sigma_10x", 10.0)):
        scaled = replace(mech, sigma_b=mech.sigma_b * scale, sigma_a=mech.sigma_a * scale)
        bits, scores, accuracy = attacks.run_game(mean0, mean1, scaled, config.mia_trials,
                                                  root.child(_STREAM_MIA, 9, int(scale * 10)))
        curve = attacks.roc_curve(bits, scores)
        check = attacks.check_dp_bound(curve, config.mia_epsilon, config.delta, config.mia_trials)
        _write_csv(out_dir / f"trials_{tag}.csv", TRIALS_HEADER,
                   zip(range(len(bits)), bits.tolist(), scores.tolist()))
        _write_csv(out_dir / f"roc_{tag}.csv", ROC_HEADER,
                   zip(curve.thresholds, curve.fpr, curve.tpr))
        summary.append(
            f"{tag}: accuracy {fmt(accuracy)}, max_violation {fmt(check.max_violation)}, "
            f"tolerance {fmt(check.mc_tolerance)}, bound {'PASS' if check.passed else 'FAIL'}"
        )
        print(summary[-1])
    _write(out_dir / "summary.txt", summary)
    return 0


# ---------------------------------------------------------------------------
# Report mode
# ---------------------------------------------------------------------------


def cmd_report(config: RunConfig, out_override: str | None = None) -> int:
    """Reshape a completed run directory into plot-ready CSVs and a text summary."""
    run_dir = run_directory(config, out_override)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    runs = sorted(path.parent for path in run_dir.rglob("config.snapshot"))
    metrics_files, noise_files, roc_files, verify_files = (
        sorted(path for run in runs for path in run.glob(pattern))
        for pattern in ("metrics.csv", "noise_stats.csv", "roc_*.csv", "verify_report.csv"))
    if not (metrics_files or noise_files or roc_files or verify_files):
        raise FileNotFoundError(f"no metrics found under {run_dir} (expected metrics.csv,"
                                " noise_stats.csv, roc_*.csv or verify_report.csv)")

    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)
    summary = []

    if metrics_files:
        loss_rows = []
        finals = []  # (dp_enabled, final mean_loss) of each run
        for path in metrics_files:
            label = str(path.parent.relative_to(run_dir))
            rows = _read_csv(path, METRICS_HEADER)
            loss_rows += [(_csv_cell(label), r["round"], r["strategy"], r["dp_enabled"],
                           r["mean_loss"]) for r in rows]
            if rows:
                last = rows[-1]
                summary.append(f"{label}: strategy {last['strategy']}, dp {last['dp_enabled']},"
                               f" final mean_loss {last['mean_loss']}")
                finals.append((last["dp_enabled"], float(last["mean_loss"])))
        _write_csv(report_dir / "loss_vs_round.csv", "run,round,strategy,dp_enabled,mean_loss",
                   loss_rows)
        if len(finals) == 2 and finals[0][0] != finals[1][0]:
            loss = dict(finals)
            summary.append(f"dp_minus_plain: {fmt(loss['true'] - loss['false'])}")

    if noise_files:
        noise_rows = []
        for path in noise_files:
            label = str(path.parent.relative_to(run_dir))
            rows = _read_csv(path, NOISE_HEADER)
            noise_rows += [(_csv_cell(label), r["sweep_value"], r["mean_diff"],
                            r["mc_variance"]) for r in rows]
            summary.append(f"noise sweep points: {len(rows)}")
        _write_csv(report_dir / "noise_summary.csv", "run,sweep_value,expectation,variance",
                   noise_rows)

    def copy(table: Path) -> Path:
        """Copy ``table`` into ``report/`` at its path relative to ``run_dir``; return it."""
        relative = table.relative_to(run_dir)
        (report_dir / relative.parent).mkdir(parents=True, exist_ok=True)
        (report_dir / relative).write_bytes(table.read_bytes())
        return relative

    for roc in roc_files:
        summary.append(f"roc points copied: {copy(roc)}")

    for path in verify_files:
        checks = _read_csv(path, VERIFY_HEADER)
        run = copy(path).parent
        lead = f"{run}: " if run.parts else ""  # a top-level verify run's line has no label
        passed = sum(check["passed"] == "true" for check in checks)
        summary.append(f"{lead}verify checks: {passed}/{len(checks)} passed")

    if not summary:
        summary.append("nothing to report")
    _write(report_dir / "summary.txt", summary)
    for line in summary:
        print(line)
    return 0
