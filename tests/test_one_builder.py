"""The package's construction boundaries, read from its source.

One builder of linear systems: nothing in the package constructs a
`LinearSystem` except `gradedmod.graded_map_system`.  Every other system
(a retraction, a section, a trace preimage) is the system of a graded map
between modules, restrictions to g0 among them, plus its own constraints.

Validate once, where data come in: the validating constructors
`make_module` and `make_map` (and `check_map`) are called only where
outside data enter, and a `Rep` is checked only where it is read from a
file.  A map or module the library solves for or writes in
closed form is assembled, and the tests check it.

One matrix format: only `linalg` knows how a `Matrix` stores its entries
and runs the elimination kernel; every other module goes through public
`Matrix` operations."""

import ast
import os

import superstable


def _calls(tree, names):
    """(enclosing function name, called name, line) of each call
    `name(...)` or `<module>.name(...)` in the tree with name in `names`;
    "<module>" at the top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in names:
                found.append((where, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def _package_trees():
    """(file name, parsed source) of each module of the package."""
    pkg = os.path.dirname(superstable.__file__)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                yield fname, ast.parse(fh.read(), fname)


def _package_calls(names):
    """(file, enclosing function, called name, line) of each such call in
    the package's source."""
    return [(fname, where, name, line)
            for fname, tree in _package_trees() for where, name, line in _calls(tree, names)]


def test_only_graded_map_system_constructs_a_linear_system():
    calls = _package_calls({"LinearSystem"})
    assert [(f, w) for f, w, _, _ in calls] == [("gradedmod.py", "graded_map_system")], calls


# the functions that may call a validating constructor: each takes data
# from outside (a file) or is a constructor itself, but for the two whose
# comments say why
VALIDATING_CALLERS = {
    ("gradedmod.py", "make_map"),  # shapes, then check_map
    ("serialize.py", "_graded_from_json"),  # modules and rigid complexes
    ("serialize.py", "map_from_json"),
    # L_of re-validates a valid module's signed family: dropping it waits
    # on a benchmark whose peak RSS does not grow with its pass count
    # (ROADMAP item 1)
    ("rigid.py", "L_of"),
    # the map check is the command's answer: Ind(Q) and Coind(Q) compared
    ("projstable.py", "frobenius_check"),
}


def test_validating_constructors_run_only_where_data_come_in():
    calls = _package_calls({"make_module", "make_map", "check_map"})
    sites = {(f, w) for f, w, _, _ in calls}
    assert sites == VALIDATING_CALLERS, sorted(c for c in calls if c[:2] not in VALIDATING_CALLERS)


def test_a_rep_is_checked_only_where_it_comes_in():
    # every `.check()` call in the package is `Rep.check`
    calls = _package_calls({"check"})
    assert [(f, w) for f, w, _, _ in calls] == [("serialize.py", "rep_from_json")], calls


def test_only_linalg_knows_the_matrix_format():
    # outside linalg.py: no attribute `.data` (the dense rows) or `._of`
    # (the unchecked constructor, handed rows), and no name `gauss_jordan`,
    # imported or called
    found = []
    for fname, tree in _package_trees():
        if fname == "linalg.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("data", "_of", "gauss_jordan")
                    or isinstance(node, ast.Name) and node.id == "gauss_jordan"
                    or isinstance(node, ast.alias) and node.name == "gauss_jordan"):
                found.append((fname, node.lineno))
    assert found == []
