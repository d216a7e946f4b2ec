"""Every name a stmodcat module imports is used in that module.

`__init__` re-exports the public names, so it is left out.  A name
counts as used when it is read anywhere in the module, as a bare name or
as the base of an attribute, annotations included.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stmodcat"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{module} imports {unused} without using them"
