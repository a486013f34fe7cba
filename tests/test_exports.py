"""
Every exported name resolves, so ``from pg4q.<module> import *`` works,
and every exported name has a caller outside the tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["pg4q", "pg4q.gf", "pg4q.pg", "pg4q.quadric", "pg4q.families", "pg4q.quasi"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)


ROOT = Path(__file__).resolve().parent.parent
# exported for the work a ROADMAP item or an acceptance criterion plans,
# before any program path calls them
UNUSED_EXPORTS = {
    "apply_collineation": "ROADMAP item 6 builds the symmetry group from it",
    "verify_converse_lemma": "acceptance criterion 7 checks the converse count with it",
}


def _references(path: Path) -> set:
    """Names a file reads: loaded names, attributes, and getattr/hasattr string arguments."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def test_every_export_has_a_program_caller():
    # definitions, import lines and __all__ strings are not loads, so a
    # name counts only where the package or perfbench actually uses it
    files = [*(ROOT / "src" / "pg4q").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(_references, files))
    exported = {n for m in MODULES for n in getattr(importlib.import_module(m), "__all__", ())}
    assert sorted(exported - used - set(UNUSED_EXPORTS)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(used & set(UNUSED_EXPORTS)) == []
