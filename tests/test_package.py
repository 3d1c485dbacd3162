"""Every name a module exports resolves, and the names the benchmark hooks into are bound."""

import importlib
import pkgutil

import pytest

import fedlora_dp
from fedlora_dp import attacks, noise_stats, privacy, runner, simulation

MODULES = ["fedlora_dp"] + [
    f"fedlora_dp.{info.name}" for info in pkgutil.iter_modules(fedlora_dp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_hooks_are_exported_and_shared():
    # perfbench wraps every __all__ function wherever the package binds it, and
    # stamps the end of set-up at the first call of a main loop.
    hooks = [(simulation, "run_round"), (simulation, "local_train"),
             (noise_stats, "noise_product_stats"), (attacks, "run_game")]
    assert [name for module, name in hooks if name not in module.__all__] == []
    assert attacks.local_train is simulation.local_train
    assert attacks.privatize is simulation.privatize is privacy.privatize
    assert runner.generate_task is simulation.generate_task
