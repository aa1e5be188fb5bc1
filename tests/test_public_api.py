"""Public surface: every name a module exports in __all__ resolves."""

import importlib

import pytest

import ctcsim

MODULES = ["ctcsim.qmath", "ctcsim.circuits", "ctcsim.deutsch", "ctcsim.measures",
           "ctcsim.experiments", "ctcsim.selftest"]


@pytest.mark.parametrize("name", ["ctcsim"] + MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_come_from_the_modules():
    modules = [importlib.import_module(m) for m in MODULES]
    for name in ctcsim.__all__:
        if name != "__version__":
            assert any(name in m.__all__ and getattr(m, name) is getattr(ctcsim, name)
                       for m in modules), name
