"""Rules on the library source itself."""

import ast
import json
import os
import subprocess
import sys
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


_LOADED = """
import json, sys
def loaded():
    return sorted(m[len("grifcalc."):] for m in sys.modules
                  if m.startswith("grifcalc."))
import grifcalc
out = [loaded()]
import grifcalc.jacobian, grifcalc.hodge
out.append(loaded())
namespace = {}
exec("from grifcalc import *", namespace)
out.append(sorted(set(grifcalc.__all__) - set(namespace)))
try:
    grifcalc.no_such_name
    out.append(False)
except AttributeError:
    out.append(True)
print(json.dumps(out))
"""


def test_the_package_loads_a_module_on_first_use():
    # a fresh interpreter, so that no test has imported a module before
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _LOADED], env=env,
                         capture_output=True, text=True, check=True).stdout
    bare, jring, unbound, unknown_raises = json.loads(out)
    assert bare == ["_version"]
    assert jring == ["_version", "errors", "hodge", "jacobian", "linalg",
                     "scalar"]
    assert unbound == []
    assert unknown_raises


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


def test_only_the_q_boundary_of_scalar_calls_fraction():
    # polynomials live in Z[params]; a Fraction is built only where a value
    # leaves for Q or enters from it
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, (name + "." if name else "") + child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "Fraction"):
                found.add(name or "<module>")
            visit(child, name)

    visit(_module("scalar"), "")
    assert sorted(found) == ["ParamPolynomial.constant_value",
                             "ParamPolynomial.evaluate", "exact"]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_only_scalar_exact_tests_for_float_or_bool():
    # scalar.exact alone decides that a float or a bool is no exact value;
    # every other entry asks it or tests for the exact types it accepts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set()
        if path.name == "scalar.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "exact":
                    skip = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                tested = _names(node.args[1]) if len(node.args) > 1 else set()
            elif isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "type" for n in ast.walk(node)):
                tested = _names(node)
            else:
                continue
            if tested & {"float", "bool"}:
                found.append("%s:%d" % (path.name, node.lineno))
        assert path.name != "scalar.py" or skip
    assert found == []
