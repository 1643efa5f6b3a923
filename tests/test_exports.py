"""Every name a vexint module exports through `__all__` resolves."""

import importlib
import pkgutil

import pytest

import vexint

MODULES = ["vexint"] + [f"vexint.{m.name}" for m in pkgutil.iter_modules(vexint.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    assert [x for x in exported if not hasattr(module, x)] == []
