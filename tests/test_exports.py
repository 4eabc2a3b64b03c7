"""Every name in a module's ``__all__`` exists in that module."""

import importlib
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
