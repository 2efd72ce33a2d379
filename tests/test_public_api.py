"""Every exported name exists: `__all__` of the package and of each submodule."""

import importlib
import pkgutil

import pytest

import infercost

MODULES = ["infercost"] + [f"infercost.{m.name}"
                           for m in pkgutil.iter_modules(infercost.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_without_duplicates(module_name):
    # A name left in __all__ after its deletion breaks only `import *`.
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(module, n)] == []
