"""Checks on the library source itself."""

import ast
from pathlib import Path

import periform

SOURCES = sorted(Path(periform.__file__).resolve().parent.glob("*.py"))


def test_no_assert_in_library():
    """python -O strips assert statements, so no check may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
