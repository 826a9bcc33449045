"""Every name a package exports resolves, so a deletion leaves no stale
entry in __all__."""

import importlib

import pytest


@pytest.mark.parametrize("package",
                         ["rrbandit", "rrbandit.qsim", "rrbandit.harness"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
