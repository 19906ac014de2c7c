"""Every name that a kposet module, or the tests' constructions module,
lists in __all__ resolves in it, and every kposet module parses as the
oldest Python the package supports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import kposet

MODULES = (["kposet"] + sorted(f"kposet.{m.name}" for m in pkgutil.iter_modules(kposet.__path__))
           + ["constructions"])


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", sorted(pathlib.Path(kposet.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    """pyproject.toml says requires-python >= 3.10. This checks the grammar
    only (syntax newer than 3.10 fails to parse), not the standard-library
    API: a call to a function added after 3.10 still passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
