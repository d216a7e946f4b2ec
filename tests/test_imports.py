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

Every named parameter of an engine function (methods and lambdas
included, `self` and `cls` aside) is read in its body, but for the named
exceptions in `UNREAD_PARAMETERS`, each with its reason.  Star parameters
are left out: the immutability guards take `*args` only to refuse them.

`modrep.memo` is the engine's one cache: no engine module binds a
module-level name to an empty container (`{}`, `[]`, `dict()`, `list()`,
`set()`), a store a function could fill, or uses `functools.lru_cache` or
`functools.cache`.  Literal constant tables are allowed.
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


_CACHE_DECORATORS = {"lru_cache", "cache"}
_EMPTY_CALLS = {"dict", "list", "set"}


def _empty_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _EMPTY_CALLS and not value.args and not value.keywords)


def _second_caches(tree):
    """(line, what) of every module-level empty container and every
    functools cache decorator in a module."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _empty_container(stmt.value):
            out.append((stmt.lineno, "module-level empty container"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            out.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, f"functools.{a.name}") for a in node.names
                    if a.name in _CACHE_DECORATORS]
    return out


def test_the_cache_walk_finds_a_second_cache():
    planted = """
import functools
from functools import cache
_TOWERS = {}
_SEEN: set = set()
_TABLE = {"a": (1, 2)}
_PRIMES = {2, 3}
@functools.lru_cache(maxsize=None)
def f(x):
    return x
"""
    assert [what for _, what in _second_caches(ast.parse(planted))] == [
        "module-level empty container", "module-level empty container",
        "functools.cache", "functools.lru_cache"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_memo_is_the_only_cache(module):
    found = _second_caches(ast.parse((SRC / module).read_text(encoding="utf-8")))
    assert not found, f"{module} keeps a cache besides memo: {found}"


# (module, function, parameter) an engine function keeps without reading it
UNREAD_PARAMETERS = {
    ("heller.py", "heller_check", "cap"):
        "the benchmark's workloads pass it, and the benchmark is fixed",
    ("toda.py", "indeterminacy_basis", "f2"):
        "it keeps the bracket triple's signature (f3, f2, f1)",
}


def _unread_parameters(tree):
    """(function, parameter) of every named parameter its body never reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            out += [(getattr(node, "name", "<lambda>"), a.arg)
                    for a in args.posonlyargs + args.args + args.kwonlyargs
                    if a.arg not in read and a.arg not in ("self", "cls")]
    return out


def test_the_parameter_walk_finds_an_unread_parameter():
    planted = """
def f(x, y, *rest, z=1, **kw):
    def g(u):
        return x + z
    return lambda v, w: v
class C:
    def m(self, q):
        return self
"""
    assert _unread_parameters(ast.parse(planted)) == [
        ("f", "y"), ("g", "u"), ("m", "q"), ("<lambda>", "w")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_every_parameter_is_read(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    found = {(module, fn, arg) for fn, arg in _unread_parameters(tree)}
    unread = sorted(found - set(UNREAD_PARAMETERS))
    assert not unread, f"{module} keeps parameters it never reads: {unread}"
    stale = sorted(k for k in UNREAD_PARAMETERS if k[0] == module and k not in found)
    assert not stale, f"{module} now reads the allowed parameters {stale}"
