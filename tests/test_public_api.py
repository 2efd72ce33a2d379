"""Every exported name exists: `__all__` of the package and of each submodule.

The package's `__all__` is the seven module lists joined, so each public name
is declared once, by the module that defines it.
"""

import importlib
import inspect
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


SUBMODULES = [importlib.import_module(f"infercost.{name}") for name in
              ("arch", "costmodel", "estimator", "hardware", "kvsim", "servesim", "workload")]


def test_package_exports_are_the_module_lists():
    # A name in two module lists shows up as a duplicate in the package's list.
    joined = [name for module in SUBMODULES for name in module.__all__]
    assert infercost.__all__ == ["__version__", *joined]
    for module in SUBMODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(infercost, name) is obj
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_package_binds_only_modules_outside_all():
    extra = [n for n, obj in vars(infercost).items() if not n.startswith("_")
             and n not in infercost.__all__ and not inspect.ismodule(obj)]
    assert extra == []
