"""Source-level checks on the package: invariants are raised exceptions, and
every definition has a caller.

An `assert` statement vanishes under `python -O`, so a check written as one
would silently stop guarding the numbers.  The unused-import check covers
the test modules too.  A function or class that the console script never
reaches is test-only API unless UNREACHED_API names it with a reason; the
reach is by name over the syntax trees, so a name read anywhere on the way
from cli.main counts as a call.
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


# Library API that no command reaches, each kept for its stated reason.
# Every other top-level function and class of src/, and every method that is
# not a dunder, must be reached from the console script's entry point.
UNREACHED_API = {
    "petersson.kloosterman_sums": "README's import example; the one-modulus Kloosterman block",
    "constants.c_sym_even_completed": "criterion 04 bounds it; c_pnt is to be completed the same way",
    "constants.c_pnt": "criterion 03 checks it; compute_constants takes its sums in its own one sieve pass",
    "constants.c_sym_even": "criterion 04's truncation route; compute_constants takes its sum in its own one sieve pass",
    "petersson.old_part_terms": "criterion 10 checks it; predict may come to read it",
    "petersson.old_part_sum": "criterion 10 checks it; predict may come to read it",
    "forms.gamma_shifts": "the exact shifts that c_gamma's closed form sums; criterion 05 sums them again",
    "forms.SyntheticForm.angle": "bench/tracer.py wraps it by name",
    "forms.SyntheticForm.flipped": "criterion 09 and the flip-parity tests take the reflected form",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def definitions(sources) -> dict[str, ast.AST]:
    """Map "module.name" of each top-level function, class and assigned name,
    and "module.Class.method" of each method that is not a dunder, to its node."""
    found: dict[str, ast.AST] = {}
    for path in sources:
        module = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{module}.{node.name}"] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        found[f"{module}.{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            found[f"{module}.{name.id}"] = node
    return found


def referenced_names(node: ast.AST) -> set[str]:
    """Every name and attribute that node reads.  A class reads its bases,
    decorators, fields and dunders; its other methods are nodes of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = node.bases + node.decorator_list + [
            item for item in node.body
            if not isinstance(item, ast.FunctionDef) or item.name.startswith("__")
        ]
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for part in parts
        for sub in ast.walk(part)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def reached(defs: dict[str, ast.AST], roots) -> set[str]:
    """The definitions reachable from roots, where a node reaches every
    definition whose last name component it reads, in any module of src/."""
    by_name: dict[str, list[str]] = {}
    for key in defs:
        by_name.setdefault(key.rpartition(".")[2], []).append(key)
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(k for name in referenced_names(defs[key]) for k in by_name.get(name, ()))
    return seen


def unreached(sources) -> list[str]:
    """Functions, classes and methods of sources that neither cli.main nor
    UNREACHED_API reaches."""
    defs = definitions(sources)
    seen = reached(defs, ["cli.main", *UNREACHED_API])
    return [
        key for key, node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and key not in seen
    ]


def test_every_definition_is_reached_from_the_cli():
    # Test-only API belongs in tests/ (oracles.py, sampled_kernel.py).
    found = unreached(SOURCES)
    assert not found, f"unreached from cli.main and not on UNREACHED_API: {found}"


def test_unreached_api_is_current():
    # An entry that names nothing, or that cli.main reaches anyway, is stale.
    defs = definitions(SOURCES)
    from_cli = reached(defs, ["cli.main"])
    stale = [key for key in UNREACHED_API if key not in defs or key in from_cli]
    assert not stale, f"stale UNREACHED_API entries: {stale}"


def test_unreached_definition_is_found(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def helper():\n    return 1\n")
    assert unreached([*SOURCES, planted]) == ["planted.helper"]
