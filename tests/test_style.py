"""
Source layout: no line of the package over 100 characters, none with
trailing whitespace, every import at module level, and no import cycle
inside the package.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pg4q").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_line_length_and_trailing_whitespace(path):
    lines = path.read_text().split("\n")
    long = [n for n, line in enumerate(lines, 1) if len(line) > 100]
    trailing = [n for n, line in enumerate(lines, 1) if line != line.rstrip()]
    assert not long, f"{path.name}: lines over 100 characters: {long}"
    assert not trailing, f"{path.name}: trailing whitespace on lines: {trailing}"


def test_imports_at_module_level_and_acyclic():
    nested, graph = set(), {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
        # from .m import x depends on m, from . import m on m
        graph[path.stem] = {
            node.module or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
        }
    assert not nested, f"imports inside a function or class body: {sorted(nested)}"

    def reach(module, seen):
        for dep in graph.get(module, ()):
            if dep not in seen:
                seen.add(dep)
                reach(dep, seen)
        return seen

    cyclic = sorted(m for m in graph if m in reach(m, set()))
    assert not cyclic, f"modules on an import cycle: {cyclic}"
