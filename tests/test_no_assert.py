"""Result checks in the package must survive ``python -O``, so they cannot
be ``assert`` statements."""

import ast
import pathlib

import bccover

# (module file, enclosing function) pairs still allowed an assert: none
ALLOWED = set()


def _asserts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Assert):
            found.append((path.name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_assert_statements_in_package():
    package = pathlib.Path(bccover.__file__).parent
    found = [a for path in sorted(package.glob("*.py")) for a in _asserts(path)]
    unexpected = [a for a in found if a[:2] not in ALLOWED]
    assert unexpected == []
    assert {a[:2] for a in found} == ALLOWED
