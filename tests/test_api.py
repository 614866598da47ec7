"""The public names: every module's ``__all__`` names what it holds, and
the package re-exports only names that its modules declare public."""

import importlib
import pkgutil
import types

import perilps

MODULES = {
    info.name: importlib.import_module(f"perilps.{info.name}")
    for info in pkgutil.iter_modules(perilps.__path__)
}


def test_every_module_all_names_exist():
    assert set(MODULES) >= {"analytic", "driver", "model", "quadrature", "solver"}
    for name, module in MODULES.items():
        names = getattr(module, "__all__", None)
        assert names is not None, name
        assert len(set(names)) == len(names), name
        assert [k for k in names if not hasattr(module, k)] == [], name


def test_package_reexports_only_declared_names():
    exported = [
        k
        for k, obj in vars(perilps).items()
        if not k.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert exported
    undeclared = [
        k
        for k in exported
        if not any(
            k in getattr(module, "__all__", ()) and getattr(module, k) is getattr(perilps, k)
            for module in MODULES.values()
        )
    ]
    assert undeclared == []
