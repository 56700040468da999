import importlib
import pkgutil

import pytest

import hamsym

MODULES = ["hamsym"] + [f"hamsym.{m.name}" for m in pkgutil.iter_modules(hamsym.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
