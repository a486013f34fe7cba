"""Source layout: no line of the package over 100 characters, none with trailing whitespace."""

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
