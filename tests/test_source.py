"""Source-level checks on the package: invariants are raised exceptions.

An `assert` statement vanishes under `python -O`, so a check written as one
would silently stop guarding the numbers.
"""

import ast
from pathlib import Path

import symlow

SOURCES = sorted(Path(symlow.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "constants.py", "petersson.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src (raise an exception instead): {found}"
