"""Every module of the package reads each name it imports, and builds a
``Fraction`` from an integer pair only through ``exactnum.reduced``.

No linter runs on this code, so a deletion can leave a dead import behind,
and a new kernel can call ``Fraction(p, q)`` where ``reduced(p, q)`` does
the same without ``Fraction.__new__``'s type dispatch.  The checks parse
the sources with the standard library's ``ast`` only.  ``__init__.py`` is
left out of the import check: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperseq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))

#: The names the package binds ``fractions.Fraction`` to.
FRACTION_NAMES = {"Fraction", "F", "_F"}


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


def pair_constructions(source):
    """(line, name) of each call of a ``Fraction`` name with two arguments,
    or with an argument it unpacks, since that may be two."""
    return sorted(
        (node.lineno, node.func.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in FRACTION_NAMES
        and (len(node.args) + len(node.keywords) >= 2
             or any(isinstance(a, ast.Starred) for a in node.args)
             or any(k.arg is None for k in node.keywords))
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_integer_pairs_become_fractions_only_through_reduced(path):
    assert pair_constructions(path.read_text(encoding="utf-8")) == []


def test_a_pair_construction_is_found():
    source = ("from fractions import Fraction\n"
              "F = _F = Fraction\n"
              "a = F(1, 2) + Fraction(3) + _F(*divmod(7, 2))\n"
              "b = Fraction(numerator=1, denominator=n)\n"
              "c = reduced(1, n) * _F(x) * F(**kw)\n"
              "d = _F(\n    1,\n    n)\n")
    assert pair_constructions(source) == [
        (3, "F"), (3, "_F"), (4, "Fraction"), (5, "F"), (6, "_F")]
