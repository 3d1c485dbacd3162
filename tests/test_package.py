"""Every name a module exports resolves, and the names the benchmark hooks into are bound."""

import importlib
import importlib.metadata
import inspect
import math
import pkgutil
import re
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

import fedlora_dp
from fedlora_dp import attacks, cli, linalg, noise_stats, privacy, runner, simulation
from fedlora_dp.config import RunConfig
from fedlora_dp.linalg import RngStream

MODULES = ["fedlora_dp"] + [
    f"fedlora_dp.{info.name}" for info in pkgutil.iter_modules(fedlora_dp.__path__)
]
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_exports_only_what_it_defines(name):
    # perfbench traces a function only under the module that defines it, so a
    # re-exported function in an __all__ would drop out of the per-layer table.
    module = importlib.import_module(name)
    if name == "fedlora_dp":
        assert not hasattr(module, "__all__")
    foreign = [attr for attr in getattr(module, "__all__", ())
               if getattr(getattr(module, attr), "__module__", name) != name]
    assert foreign == []


def test_benchmark_hooks_are_exported_and_shared():
    # perfbench wraps every __all__ function wherever the package binds it, and
    # stamps the end of set-up at the first call of a main loop.
    hooks = [(simulation, "run_round"), (simulation, "local_train"),
             (noise_stats, "noise_product_stats"), (attacks, "run_game")]
    assert [name for module, name in hooks if name not in module.__all__] == []
    assert attacks.local_train is simulation.local_train
    assert attacks.privatize is simulation.privatize is privacy.privatize
    assert attacks.clip_pair is privacy.clip_pair
    assert runner.generate_task is simulation.generate_task


def test_benchmark_counters_read_real_calls(monkeypatch):
    # A traced benchmark run hands every call of these functions to its COUNTERS
    # hook; a renamed parameter or a result without the field a hook reads
    # would make every traced job fail.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    originals = {name: getattr(importlib.import_module(f"fedlora_dp.{name.split('.')[0]}"),
                               name.split(".")[1]) for name in layers.COUNTERS}
    calls = {}
    patched = []
    for name, fn in originals.items():
        def recording(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            calls.setdefault(_name, (args, kwargs, result))
            return result
        patched += tracer.patch_everywhere(layers.package_modules(), fn, recording)
    try:
        config = RunConfig(rounds=2, clients=3, sampled_per_round=2, local_epochs=1,
                           batch_size=4, lr_start=0.05, lr_end=0.01, rank=2, lora_scale=2.0,
                           task_m=6, task_n=4, task_rank=2, samples_per_client=8)
        root = RngStream(0)
        mechanism = privacy.MechanismParams(clip_b=0.5, clip_a=0.5, sigma_b=0.1, sigma_a=0.1)
        simulation.run_experiment(config, runner.build_task(config, root), root, mechanism)
        noise_stats.sweep([("1", 4, 3, 1), ("2", 4, 3, 2)], noise_stats.NoiseModel(1.0, 1.0), 200,
                          root)
    finally:
        tracer.restore(patched)

    assert sorted(calls) == sorted(layers.COUNTERS)
    for name, (args, kwargs, result) in calls.items():
        count = layers.COUNTERS[name]
        values = count(args, kwargs, result)
        named = inspect.signature(originals[name]).bind(*args, **kwargs).arguments
        assert count((), dict(named), result) == values, name
        assert values and all(math.isfinite(v) for v in values.values()), name
    args, kwargs, result = calls["simulation.local_train"]
    assert layers.COUNTERS["simulation.local_train"](args, kwargs, result) == {
        "steps": result.steps}


def test_cli_runs_each_command_by_its_module_level_name(monkeypatch, tmp_path):
    # A traced benchmark run rebinds runner.cmd_run wherever the package binds it;
    # a dispatch table of function objects made at import would keep the unwrapped one.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    original = runner.cmd_run
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patched = tracer.patch_everywhere(layers.package_modules(), original, wrapper)
    try:
        config = tmp_path / "run.cfg"
        config.write_text("rounds = 1\nclients = 2\ntask_m = 4\ntask_n = 3\ntask_rank = 1\n"
                          "rank = 2\nlocal_epochs = 1\nsamples_per_client = 4\n")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tracer.restore(patched)
    assert len(calls) == 1


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # The benchmark's tracer keeps one span stack, so every function it wraps must
    # run on the thread that called the package; only untraced helpers may run on
    # the workers of a threaded generation, round or Monte Carlo wave.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(linalg.threading, "Thread", CountedThread)
    threads = []
    patched = []
    for _, fn in layers.traced_functions():
        def recording(*args, _fn=fn, **kwargs):
            threads.append(threading.get_ident())
            return _fn(*args, **kwargs)
        patched += tracer.patch_everywhere(layers.package_modules() + [RngStream], fn, recording)
    try:
        # 700 x 1024 at rank 32, as the round worker tests run it: generation and
        # both phases of each round go through the worker pool
        task = simulation.generate_task(700, 1024, 2, 4, 16, 0.1, 0.0, RngStream(12, (99,)))
        config = RunConfig(strategy="fedadam", clients=4, sampled_per_round=3, rounds=2,
                           local_epochs=1, batch_size=8, lr_start=1e-3, lr_end=1e-3, rank=32,
                           lora_scale=4.0)
        mechanism = privacy.MechanismParams(clip_b=0.5, clip_a=1.0, sigma_b=0.01, sigma_a=0.02)
        server = simulation.ServerState.fresh(task.base, config.strategy)
        for _ in range(2):
            simulation.run_round(server, task, config, RngStream(6, (7,)), mechanism)
        gen = np.random.default_rng(18)
        b, a = gen.standard_normal((100, 2)), gen.standard_normal((2, 100))
        noise_stats.noise_product_stats(b, a, noise_stats.NoiseModel(0.7, 1.3), 230,
                                        RngStream(21))  # five chunks of 50 draws
    finally:
        tracer.restore(patched)
    assert started
    assert threads and set(threads) == {threading.get_ident()}


def _python_floor(spec: str) -> tuple[int, int]:
    """(major, minor) of a ``>=X.Y`` Requires-Python specifier."""
    match = re.fullmatch(r">=\s*(\d+)\.(\d+)(\.\d+)?", spec.strip())
    assert match, f"not a plain >=X.Y floor: {spec!r}"
    return int(match[1]), int(match[2])


def test_declared_python_floor_is_not_below_numpys():
    # The golden digests were recorded on the installed numpy; a Python below
    # its own floor could not install it.
    with (ROOT / "pyproject.toml").open("rb") as f:
        declared = tomllib.load(f)["project"]["requires-python"]
    numpy_floor = importlib.metadata.metadata("numpy")["Requires-Python"]
    assert _python_floor(declared) >= _python_floor(numpy_floor)
