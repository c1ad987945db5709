"""Every module of the package reads each name it imports.

No linter runs on this code, so a deletion can leave a dead import behind.
The check parses the sources with the standard library's ``ast`` only.
``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperseq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The name each import binds, mapped to its line; ``__future__`` binds none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(source):
    tree = ast.parse(source)
    reads = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in reads)


def test_the_package_has_modules_to_check():
    assert {"exactnum.py", "identities.py", "opcalc.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, lcm as least\n"
              "print(least(2, 3))\n")
    assert unread_imports(source) == [(2, "os"), (3, "gcd")]
