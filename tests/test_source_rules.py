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


def _module(name):
    path = SRC / ("%s.py" % name)
    return ast.parse(path.read_text(), filename=str(path))


def test_only_rref_and_row_reducer_take_a_field():
    # the field of fractions is the one field; rref and RowReducer keep the
    # parameter only for callers outside the library that pass it
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                if "field" in names:
                    found.append(prefix + child.name)
                visit(child, prefix + child.name + ".")

    visit(_module("linalg"), "")
    assert sorted(found) == ["RowReducer.__init__", "rref"]


def test_only_linalg_reads_the_fraction_field():
    # elsewhere the field is only passed on: units and zeros are Fraction
    # literals
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (isinstance(value, ast.Name) and value.id == "FRACTION_FIELD"
                    or isinstance(value, ast.Attribute)
                    and value.attr == "FRACTION_FIELD"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _private_definitions(tree):
    # (name, node) for each private name a module binds at its top level
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node


def test_every_private_module_name_is_used_in_its_module():
    # a private helper nothing in its module reads is dead code
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, definition in _private_definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(definition)}
            if not any(isinstance(n, ast.Name) and n.id == name
                       and isinstance(n.ctx, ast.Load) and id(n) not in inside
                       for n in ast.walk(tree)):
                unused.append("%s %s" % (path.name, name))
    assert unused == []


def test_every_top_level_import_is_read_in_its_module():
    # an import left behind by a deleted use is dead; __init__ re-exports
    # its imports and __future__ imports are compiler directives
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unread += ["%s %s" % (path.name, name) for name in (
                    (a.asname or a.name).split(".")[0] for a in node.names)
                    if name not in read]
    assert unread == []


def test_only_run_command_picks_json_or_text():
    # each command handler returns (code, payload, lines); run_command
    # alone reads --json and renders the payload
    tree = _module("cli")
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "run_command":
            inside = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "json"
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_dump"):
            found.append(node.lineno)
    assert inside
    assert found == []
