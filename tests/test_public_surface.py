"""The package's public surface: every exported name resolves, and every public name is exported."""

import importlib
import types

import pytest

import pdinfer

MODULES = ["core", "sampling", "estimation", "hypothesis", "dataio", "classify", "experiment"]


def test_star_import_binds_all():
    namespace = {}
    exec("from pdinfer import *", namespace)
    assert set(pdinfer.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    module = importlib.import_module(f"pdinfer.{module}")
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_root_public_names_are_exported():
    bound = {
        name
        for name, value in vars(pdinfer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(pdinfer.__all__) == set()
