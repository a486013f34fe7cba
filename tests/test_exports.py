"""Every exported name resolves, so ``from pg4q.<module> import *`` works."""

import importlib

import pytest

MODULES = ["pg4q", "pg4q.gf", "pg4q.pg", "pg4q.quadric", "pg4q.families", "pg4q.quasi"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
