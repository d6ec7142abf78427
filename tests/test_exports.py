"""Every exported name resolves, so a deleted function cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import holosim

MODULES = ["holosim", *(f"holosim.{info.name}" for info in pkgutil.iter_modules(holosim.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)

