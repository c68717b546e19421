"""Every exported name resolves: ``__all__`` of the package and of each of
its modules lists only names that exist, each once, and a module exports
only names it defines."""

import importlib
import pkgutil

import pytest

import aces

MODULES = ["aces"] + [f"aces.{m.name}" for m in pkgutil.iter_modules(aces.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [x for x in exported if not hasattr(module, x)] == []
    assert sorted(x for x in set(exported) if exported.count(x) > 1) == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_no_module_re_exports_another_modules_name(name):
    module = importlib.import_module(name)
    foreign = []
    for x in getattr(module, "__all__", ()):
        owner = getattr(getattr(module, x), "__module__", name)
        if owner.startswith("aces.") and owner != name:
            foreign.append(f"{x} from {owner}")
    assert foreign == []
