"""Source-level checks on the package: invariants are raised exceptions,
every definition has a caller, each module imports only the modules that
ALLOWED_IMPORTS lets its layer read, and numpy computes no elementary
function that is not named here.

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


# The modules of src/ that each module may import from: the exact layer and
# forms stand alone, the constants and the trace layer read forms alone, the
# prime side reads the constants and forms, and the front end reads any.
ALLOWED_IMPORTS = {
    "__init__": set(),
    "chebyshev": set(),
    "forms": set(),
    "constants": {"forms"},
    "petersson": {"forms"},
    "explicit": {"constants", "forms"},
    "cli": {"chebyshev", "constants", "explicit", "forms", "petersson"},
}


def package_imports(path: Path) -> set[str]:
    """The modules of the package that the source at path imports, relatively
    (``from .forms import``, ``from . import forms``) or by name (``symlow.forms``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = f"symlow.{node.module or ''}".rstrip(".") if node.level else node.module or ""
            names = [f"{module}.{alias.name}" for alias in node.names] if module == "symlow" else [module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("symlow."))
    return found


def disallowed_imports(sources) -> list[str]:
    """"module -> module" for every import of sources that ALLOWED_IMPORTS does not list."""
    return [
        f"{path.stem} -> {name}"
        for path in sources
        for name in sorted(package_imports(path) - ALLOWED_IMPORTS.get(path.stem, set()))
    ]


def test_module_graph():
    assert {path.stem for path in SOURCES} == set(ALLOWED_IMPORTS)
    found = disallowed_imports(SOURCES)
    assert not found, f"imports outside the module graph: {found}"


def test_module_graph_edge_is_found(tmp_path):
    planted = tmp_path / "constants.py"
    planted.write_text(
        "from .forms import is_prime\n"
        "from .petersson import kloosterman_sums\n"
        "from . import chebyshev\n"
        "import symlow.explicit\n"
        "from symlow import cli\n"
    )
    assert disallowed_imports([planted]) == [
        "constants -> chebyshev", "constants -> cli", "constants -> explicit", "constants -> petersson"
    ]


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
    "constants.c_sym_even_completed": "criterion 04 bounds it; ROADMAP item 2 puts it in the constants bundle",
    "petersson.old_part_terms": "criterion 10 checks it; predict may come to read it",
    "petersson.old_part_sum": "criterion 10 checks it; predict may come to read it",
    "forms.SyntheticForm.angle": "bench/tracer.py wraps it by name",
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


# numpy's elementary functions, whose last bits follow numpy's CPU dispatch
# rather than the C library that _libm and the math module call.  np.sqrt is
# not among them: IEEE 754 rounds it correctly in both.  Array ** is numpy's
# power too, but an operator has no name to find; README's table of
# elementary-function calls lists it, and this check does not police it.
NUMPY_ELEMENTARY = {
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "hypot",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh", "sinc",
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "logaddexp", "logaddexp2",
    "power", "float_power", "cbrt",
}

# Each numpy elementary function that a definition of src/ names, with its
# reason.  Every other elementary value comes from the C library.
NUMPY_ELEMENTARY_ALLOWED = {
    ("forms._root_block", "sin"): "Newton's proposal; math.sin at two adjacent floats certifies every root",
    ("forms._root_block", "cos"): "Newton's proposal; math.sin at two adjacent floats certifies every root",
    ("forms._bisect_block", "sin"): "every comparison within BISECTION_MARGIN of a tie is redone with math.sin",
    ("constants._ExactSums.feed", "log"): "the constants' logs; one library for them waits for ROADMAP item 2",
    ("constants._pnt_leaf", "log"): "the constants' logs; one library for them waits for ROADMAP item 2",
}


def numpy_elementary_names(sources) -> list[tuple[str, str]]:
    """(definition, function) for every name of NUMPY_ELEMENTARY that sources
    read from numpy or import from it, where definition is the top-level
    "module.function" or "module.Class.method" around it, or the module."""
    found = []
    for path in sources:
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        scopes = [(module, tree)]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scopes.append((f"{module}.{node.name}", node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        scopes.append((f"{module}.{node.name}.{item.name}", item))
        owner = {}  # node -> innermost listed scope, as later scopes are nested deeper
        for name, scope in scopes:
            for node in ast.walk(scope):
                owner[node] = name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in NUMPY_ELEMENTARY
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                found.append((owner[node], node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [(owner[node], a.name) for a in node.names if a.name in NUMPY_ELEMENTARY]
    return sorted(set(found))


def unnamed_numpy_elementary(sources) -> list[tuple[str, str]]:
    """The (definition, function) pairs of sources that NUMPY_ELEMENTARY_ALLOWED lacks."""
    return [key for key in numpy_elementary_names(sources) if key not in NUMPY_ELEMENTARY_ALLOWED]


def test_numpy_elementary_functions_are_named():
    # A value that reaches a document takes its elementary functions from the
    # C library (forms._libm), unless NUMPY_ELEMENTARY_ALLOWED says why not.
    found = unnamed_numpy_elementary(SOURCES)
    assert not found, f"numpy elementary functions in src (take them through forms._libm): {found}"


def test_numpy_elementary_allowlist_is_current():
    found = set(numpy_elementary_names(SOURCES))
    stale = [key for key in NUMPY_ELEMENTARY_ALLOWED if key not in found]
    assert not stale, f"stale NUMPY_ELEMENTARY_ALLOWED entries: {stale}"


def test_numpy_elementary_bypass_is_found(tmp_path):
    # An allowed function name in another module is a bypass too; np.sqrt is not.
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as xp\n"
        "from numpy import log1p\n"
        "class Kernel:\n"
        "    def value(self, x):\n"
        "        return xp.exp(x) + xp.sqrt(x)\n"
        "def _root_block(x):\n"
        "    return xp.sin(x)\n"
    )
    assert unnamed_numpy_elementary([*SOURCES, planted]) == [
        ("planted", "log1p"),
        ("planted.Kernel.value", "exp"),
        ("planted._root_block", "sin"),
    ]
