"""Source-level checks on the package: invariants are raised exceptions.

An `assert` statement vanishes under `python -O`, so a check written as one
would silently stop guarding the numbers.  The unused-import check covers
the test modules too.
"""

import ast
from pathlib import Path

import symlow

SOURCES = sorted(Path(symlow.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def test_package_root_imports_nothing():
    # Each name has one import path, the module that defines it.
    path = Path(symlow.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"import statements in {path.name} at lines {found}"


def test_no_unused_imports():
    found = []
    for path in SOURCES + TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"imported names never used: {found}"


def test_no_blas_products():
    # Evaluation is single-threaded: numpy hands `@`, dot, matmul, tensordot,
    # inner, vdot and linalg to BLAS, which may run on its own threads, and
    # an einsum told to optimize may route through tensordot.
    blas = {"dot", "matmul", "tensordot", "inner", "vdot", "linalg"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in blas
        or isinstance(node, ast.keyword) and node.arg == "optimize"
    ]
    assert not found, f"BLAS products in src (use np.einsum without optimize): {found}"
