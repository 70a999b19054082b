"""The public surface: every exported name exists."""
import importlib
import pkgutil

import pytest

import shiftdecon

MODULES = ["shiftdecon", *(f"shiftdecon.{info.name}"
                           for info in pkgutil.iter_modules(shiftdecon.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
