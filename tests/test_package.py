"""Every name a module exports resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import fedlora_dp

MODULES = ["fedlora_dp"] + [
    f"fedlora_dp.{info.name}" for info in pkgutil.iter_modules(fedlora_dp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
