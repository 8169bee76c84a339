"""Every name a module of the package exports must exist."""

import importlib
import pkgutil

import pytest

import opscale

MODULES = ["opscale"] + [
    f"opscale.{info.name}" for info in pkgutil.iter_modules(opscale.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
