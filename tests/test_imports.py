"""Every name a stmodcat module or a test file imports is used in that
file, and every private module-level definition of the engine is
referenced somewhere.

`__init__` re-exports the public names, so it is left out of the import
check.  A name counts as used when it is read anywhere in the module, as
a bare name or as the base of an attribute, annotations included.  A
private function, class or constant counts as referenced when a
top-level statement other than its own definition, in any engine module,
names it (as a bare name, an attribute or an imported name).

The trusted constructor `FpMatrix._of` skips the modulus check and the
reduction, so neither the session parser (`cli.py`) nor any test names it.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "stmodcat"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# engine modules by bare name, test files as tests/<name>
SCANNED = {**{m: SRC / m for m in MODULES},
           **{f"tests/{p.name}": p for p in TESTS.glob("*.py")}}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0]


def test_modules_found():
    assert "linalg.py" in MODULES and "adams.py" in MODULES
    assert "tests/conftest.py" in SCANNED and "tests/test_toda.py" in SCANNED


@pytest.mark.parametrize("module", sorted(SCANNED))
def test_every_import_is_used(module):
    tree = ast.parse(SCANNED[module].read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{module} imports {unused} without using them"


def _private_names(stmt):
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_definition_is_referenced():
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    defined = [(module, name, stmt) for module, stmt in stmts
               for name in _private_names(stmt)]
    assert len(defined) > 30  # the walk found the engine's private helpers
    unreferenced = sorted(
        f"{module}:{name}" for module, name, own in defined
        if not any(name in _referenced(stmt) for _, stmt in stmts if stmt is not own))
    assert not unreferenced, f"private definitions nobody references: {unreferenced}"


def _names_trusted_constructor(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "_of")
            or (isinstance(node, ast.Name) and node.id == "_of")]


def test_the_walk_finds_the_trusted_constructor():
    assert _names_trusted_constructor(SRC / "linalg.py")
    assert _names_trusted_constructor(SRC / "stcat.py")


@pytest.mark.parametrize("module", ["cli.py"] + sorted(m for m in SCANNED if "/" in m))
def test_parsed_and_test_input_never_reaches_the_trusted_constructor(module):
    # FpMatrix._of skips the modulus check and the reduction: session files
    # and test data go through the checked constructor
    lines = _names_trusted_constructor(SCANNED[module])
    assert not lines, f"{module} names FpMatrix._of at lines {lines}"
