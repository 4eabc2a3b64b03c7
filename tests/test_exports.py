"""Every name in a module's ``__all__`` exists in that module, and every
function or class it exports is its own or an error it raises."""

import importlib
import inspect
import pkgutil

import pytest

import spintrap

MODULES = sorted(info.name for info in pkgutil.iter_modules(spintrap.__path__))


def test_modules_found():
    assert {"blochsim", "seqlang", "spincore", "trapdyn"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spintrap.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_exports_defined_in_module(name):
    """A function or class in ``__all__`` is defined in the module, or is an
    error class, which the README says is "re-exported by the module that
    raises it".  Constants are exempt."""
    module = importlib.import_module(f"spintrap.{name}")
    exports = [getattr(module, export) for export in getattr(module, "__all__", ())]
    foreign = [obj.__name__ for obj in exports if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ not in (module.__name__, "spintrap.errors")]
    assert foreign == []
