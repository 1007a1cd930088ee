"""One builder of linear systems: nothing in the package constructs a
`LinearSystem` except `gradedmod.graded_map_system`.  Every other system
(a retraction, a section, a trace preimage) is the system of a graded map
between modules, restrictions to g0 among them, plus its own constraints."""

import ast
import os

import superstable


def _linear_system_calls(tree):
    """(enclosing function name, line) of each call `LinearSystem(...)` or
    `<module>.LinearSystem(...)` in the tree; "<module>" at the top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "LinearSystem":
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_graded_map_system_constructs_a_linear_system():
    pkg = os.path.dirname(superstable.__file__)
    calls = []
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            calls += [(fname, where, line) for where, line in _linear_system_calls(tree)]
    assert [(f, w) for f, w, _ in calls] == [("gradedmod.py", "graded_map_system")], calls
