"""Rules on the library source itself."""

import ast
from pathlib import Path

import grifcalc

SRC = Path(__file__).resolve().parent.parent / "src" / "grifcalc"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # silently disappears; the library signals failure by return value or
    # exception instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []


def test_library_imports_no_private_name_from_a_sibling_module():
    # a private helper another module needs gets a public name instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not (alias.name.startswith("__")
                               and alias.name.endswith("__"))]
    assert found == []


def test_public_names_resolve_and_are_listed_once():
    # a name dropped from the library must leave __all__ with it
    names = grifcalc.__all__
    assert [n for n in names if not hasattr(grifcalc, n)] == []
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
