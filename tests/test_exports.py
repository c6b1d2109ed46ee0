"""Every name a bseries module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bseries

MODULES = [m.name for m in pkgutil.iter_modules(bseries.__path__, "bseries.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_modules_are_found():
    assert "bseries.evaluator" in MODULES
