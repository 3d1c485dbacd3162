"""Layers of ``fedlora_dp`` as the traced run sees them, and the per-layer metrics.

The traced run wraps every public function (``__all__``) of the modules in
``TRACED_MODULES`` plus ``RngStream.generator``.  ``runner.fmt`` is left
unwrapped on purpose: number formatting is what ``runner.cmd_<mode>.self_ms``
measures, so it must stay inside the command's self time.

``LAYER_METRICS`` is the per-layer table of ``BENCHMARK.json``.  Each entry
records which end-to-end metric it should move on which workload; later
changes cite these by name.  A layer that does not run on a workload reports
0 there.
"""

import importlib
import inspect
import sys
from dataclasses import dataclass

import numpy as np

from tracer import Counter, Spans, Tracer

TRACED_MODULES = ("linalg", "privacy", "adapters", "simulation", "noise_stats",
                  "attacks", "runner", "config")
NOT_TRACED = frozenset({"runner.fmt"})
MIN_BEYOND_TAIL = 10


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_local_train(args, kwargs, result) -> dict[str, float]:
    return {"steps": result.steps}


def _count_clip(args, kwargs, result) -> dict[str, float]:
    return {"clipped": float(result is not _arg(args, kwargs, 0, "m"))}


def _count_sample_gaussian(args, kwargs, result) -> dict[str, float]:
    sigma = _arg(args, kwargs, 2, "sigma")
    return {"samples": float(result.size) if sigma > 0 else 0.0}


def _count_global_delta(args, kwargs, result) -> dict[str, float]:
    g = _arg(args, kwargs, 0, "g")
    m, total_rank = g.b_stacked.shape
    return {"gflop": 2.0 * m * g.a_stacked.shape[1] * total_rank / 1e9}


def _count_noise_product(args, kwargs, result) -> dict[str, float]:
    m, r = np.shape(_arg(args, kwargs, 0, "b"))
    n = np.shape(_arg(args, kwargs, 1, "a"))[1]
    model = _arg(args, kwargs, 2, "model")
    draws = _arg(args, kwargs, 3, "n_draws")
    noisy = model.sigma_beta > 0 or model.sigma_alpha > 0
    samples = draws * (m * r * (model.sigma_beta > 0) + r * n * (model.sigma_alpha > 0))
    return {
        "draws": float(draws),
        "gaussian_samples": float(samples),
        "matmul_gflop": 2.0 * m * r * n * draws / 1e9 if noisy else 0.0,
    }


COUNTERS: dict[str, Counter] = {
    "simulation.local_train": _count_local_train,
    "privacy.clip_frobenius": _count_clip,
    "linalg.sample_gaussian": _count_sample_gaussian,
    "adapters.global_delta": _count_global_delta,
    "noise_stats.noise_product_stats": _count_noise_product,
}


def package_modules() -> list[object]:
    """Every loaded ``fedlora_dp`` module: the namespaces that may bind a traced function."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "fedlora_dp" or name.startswith("fedlora_dp.")]


def traced_functions() -> list[tuple[str, object]]:
    """(layer name, function) for every function the traced run wraps."""
    out = []
    for module_name in TRACED_MODULES:
        module = importlib.import_module(f"fedlora_dp.{module_name}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{module_name}.{attr}"
            own = inspect.isfunction(fn) and fn.__module__ == module.__name__
            if own and name not in NOT_TRACED:
                out.append((name, fn))
    rng_stream = importlib.import_module("fedlora_dp.linalg").RngStream
    out.append(("linalg.RngStream.generator", rng_stream.generator))
    return out


def install_tracer(tracer: Tracer) -> None:
    """Wrap every traced function wherever the package binds it."""
    rng_stream = importlib.import_module("fedlora_dp.linalg").RngStream
    namespaces = package_modules() + [rng_stream]
    for name, fn in traced_functions():
        tracer.install(namespaces, name, fn, COUNTERS.get(name))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    expect: str
    exact: bool = False  # a count: must repeat exactly for a given seed


_TRAIN = ("train_steps_per_s on fl_dense (about 65% of the run) and fl_small (per-step "
          "overhead); none on noise_sweep, mia_game")
_ROUND = "wall_s on fl_dense (strategy step); negligible on fl_small"
_STACK = ("wall_s and train_steps_per_s on fl_dense; runs twice per round under DP "
          "(released and clean pairs)")
_MC = "mc_draws_per_s (work_per_s) on noise_sweep, and peak_rss_mb there (chunks in flight)"
_RNG = "game_trials_per_s (work_per_s) on mia_game and wall_s on fl_small; none on noise_sweep"
_VALIDATE = "wall_s on fl_small (per-call validation overhead)"
_PRIV = "work_per_s on mia_game and wall_s on fl_small"
_GAME = "game_trials_per_s (work_per_s) on mia_game"
_SETUP = "setup_s on the workloads that call it"
_CMD = "wall_s: output formatting and writes; matters on mia_game (18k trial and ROC rows)"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("simulation.local_train.calls", "count", "lower", _TRAIN, exact=True),
    LayerMetric("simulation.local_train.steps", "count", "higher", _TRAIN, exact=True),
    LayerMetric("simulation.local_train.ms", "ms", "lower", _TRAIN),
    LayerMetric("simulation.local_train.us_per_step", "us", "lower", _TRAIN),
    LayerMetric("simulation.run_round.calls", "count", "higher",
                _ROUND + "; sample count of ms_tail", exact=True),
    LayerMetric("simulation.run_round.ms_p50", "ms", "lower", _ROUND),
    LayerMetric("simulation.run_round.ms_tail", "ms", "lower", _ROUND),
    LayerMetric("simulation.run_round.tail_pct", "%", "higher",
                "percentile of ms_tail: the highest with at least 10 rounds beyond it", exact=True),
    LayerMetric("simulation.run_round.self_ms", "ms", "lower",
                _ROUND + "; mostly the strategy step"),
    LayerMetric("adapters.aggregate_stack.calls", "count", "lower", _STACK, exact=True),
    LayerMetric("adapters.aggregate_stack.ms", "ms", "lower", _STACK),
    LayerMetric("adapters.global_delta.calls", "count", "lower", _STACK, exact=True),
    LayerMetric("adapters.global_delta.ms", "ms", "lower", _STACK),
    LayerMetric("adapters.global_delta.gflop", "GFLOP", "lower",
                _STACK + "; 2*m*n*R_total per call", exact=True),
    LayerMetric("noise_stats.noise_product_stats.calls", "count", "lower", _MC, exact=True),
    LayerMetric("noise_stats.noise_product_stats.ms", "ms", "lower", _MC),
    LayerMetric("noise_stats.noise_product_stats.draws", "count", "higher", _MC, exact=True),
    LayerMetric("noise_stats.noise_product_stats.gaussian_samples", "count", "higher", _MC,
                exact=True),
    LayerMetric("noise_stats.noise_product_stats.matmul_gflop", "GFLOP", "lower", _MC, exact=True),
    LayerMetric("noise_stats.noise_product_stats.samples_per_s", "1/s", "higher", _MC),
    LayerMetric("linalg.RngStream.generator.calls", "count", "lower", _RNG, exact=True),
    LayerMetric("linalg.RngStream.generator.ms", "ms", "lower", _RNG),
    LayerMetric("linalg.sample_gaussian.calls", "count", "lower", _RNG, exact=True),
    LayerMetric("linalg.sample_gaussian.ms", "ms", "lower", _RNG),
    LayerMetric("linalg.sample_gaussian.samples", "count", "higher", _RNG, exact=True),
    LayerMetric("linalg.as_matrix.calls", "count", "lower", _VALIDATE, exact=True),
    LayerMetric("linalg.as_matrix.ms", "ms", "lower", _VALIDATE),
    LayerMetric("privacy.privatize.calls", "count", "lower", _PRIV, exact=True),
    LayerMetric("privacy.privatize.ms", "ms", "lower", _PRIV),
    LayerMetric("privacy.clip_frobenius.calls", "count", "lower", _PRIV, exact=True),
    LayerMetric("privacy.clip_frobenius.ms", "ms", "lower", _PRIV),
    LayerMetric("privacy.clip_frobenius.clipped_frac", "ratio", "lower",
                _PRIV + "; share of calls that did not return their input", exact=True),
    *(
        LayerMetric(f"attacks.{fn}.{stat}", unit, "lower", _GAME, exact=(stat == "calls"))
        for fn in ("run_game", "clipped_update", "score_update", "roc_curve", "check_dp_bound")
        for stat, unit in (("calls", "count"), ("ms", "ms"))
    ),
    LayerMetric("attacks.run_game.self_ms", "ms", "lower", _GAME),
    LayerMetric("simulation.generate_task.ms", "ms", "lower", _SETUP),
    LayerMetric("runner.build_task.ms", "ms", "lower", _SETUP),
    LayerMetric("runner.build_mechanism.ms", "ms", "lower",
                _SETUP + "; fl_small's clip-calibration dry run"),
    LayerMetric("runner.build_adversarial_game.ms", "ms", "lower", _SETUP),
    LayerMetric("config.parse_config.ms", "ms", "lower", _SETUP),
    LayerMetric("runner.cmd_run.self_ms", "ms", "lower", _CMD),
    LayerMetric("runner.cmd_sweep.self_ms", "ms", "lower", _CMD),
    LayerMetric("runner.cmd_mia.self_ms", "ms", "lower", _CMD),
    LayerMetric("tracer.overhead_ratio", "ratio", "lower",
                "none: median traced wall_s over median untraced wall_s in the same run"),
)


def tail_percentile(values: np.ndarray) -> tuple[float, float]:
    """(pct, value) at the highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is given.
    """
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - pct) / 100.0 >= MIN_BEYOND_TAIL:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.percentile(values, 50))


def job_layer_values(spans: Spans) -> dict[str, float]:
    """Every per-layer metric of one traced job except ``tracer.overhead_ratio``."""
    summary = spans.summary()
    counters = spans.counters

    def stat(layer: str, key: str) -> float:
        if key in ("calls", "ms", "self_ms"):
            return float(summary.get(layer, {}).get(key, 0))
        return float(counters.get(f"{layer}.{key}", 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rounds_ms = spans.durations("simulation.run_round") * 1e3
    tail_pct, tail_ms = tail_percentile(rounds_ms) if len(rounds_ms) else (0.0, 0.0)
    derived = {
        "simulation.local_train.us_per_step": ratio(
            stat("simulation.local_train", "ms") * 1e3, stat("simulation.local_train", "steps")),
        "simulation.run_round.ms_p50": float(np.median(rounds_ms)) if len(rounds_ms) else 0.0,
        "simulation.run_round.ms_tail": tail_ms,
        "simulation.run_round.tail_pct": tail_pct,
        "noise_stats.noise_product_stats.samples_per_s": ratio(
            stat("noise_stats.noise_product_stats", "gaussian_samples"),
            stat("noise_stats.noise_product_stats", "ms") / 1e3),
        "privacy.clip_frobenius.clipped_frac": ratio(
            stat("privacy.clip_frobenius", "clipped"), stat("privacy.clip_frobenius", "calls")),
    }
    values = {}
    for metric in LAYER_METRICS:
        if metric.name == "tracer.overhead_ratio":
            continue
        layer, _, key = metric.name.rpartition(".")
        values[metric.name] = derived[metric.name] if metric.name in derived else stat(layer, key)
    return values


def combine_jobs(per_job: list[dict[str, float]]) -> tuple[dict[str, float], list[tuple[int, str]]]:
    """Per-layer values of a run: counts from the first job, times as medians.

    Also returns (job index, problem) for every count that differs from the
    first job's, since counts must repeat exactly for a given seed.
    """
    values, problems = {}, []
    if not per_job:
        return values, problems
    for metric in LAYER_METRICS:
        if metric.name == "tracer.overhead_ratio":
            continue
        column = [job[metric.name] for job in per_job]
        if metric.exact:
            values[metric.name] = column[0]
            problems += [(i, f"{metric.name} is {v} in traced job {i}, {column[0]} in job 0")
                         for i, v in enumerate(column) if v != column[0]]
        else:
            values[metric.name] = float(np.median(column))
    return values, problems
