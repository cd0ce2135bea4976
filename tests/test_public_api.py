"""Every public name the package declares resolves.

A name left in a module's ``__all__`` after its definition is gone breaks
``from module import *`` only; a name ``unbcount/__init__.py`` re-exports
must be the module's own object.
"""

import ast
import importlib
from pathlib import Path

import pytest

import unbcount


@pytest.mark.parametrize("name", ["datasets", "distributions", "estimation",
                                  "regression", "specfun"])
def test_all_names_resolve(name):
    module = importlib.import_module(f"unbcount.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(unbcount.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"unbcount.{module_name}")
        assert getattr(unbcount, name) is getattr(module, name)
