from __future__ import annotations

import importlib
import pkgutil

import pytest

import slicefock

MODULES = ["slicefock"] + ["slicefock." + m.name for m in pkgutil.iter_modules(slicefock.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in %s.__all__" % name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, "%s.__all__ names undefined attributes: %s" % (name, missing)
