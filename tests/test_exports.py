"""Every name that a kposet module lists in __all__ resolves in it."""

import importlib
import pkgutil

import pytest

import kposet

MODULES = ["kposet"] + sorted(f"kposet.{m.name}" for m in pkgutil.iter_modules(kposet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
