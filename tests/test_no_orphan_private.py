"""Every private module-level function or class in the package is used by
code in the package: a helper whose last caller is gone goes with it."""

import ast
import pathlib

import bccover


def _private_definitions(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }


def _references(tree):
    """Names read or imported by code: ``ast.Name`` ids, ``ast.Attribute``
    attributes and import aliases.  A mention in a docstring does not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_private_helper_is_referenced():
    package = pathlib.Path(bccover.__file__).parent
    defined, referenced = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= {(path.name, name) for name in _private_definitions(tree)}
        referenced |= _references(tree)
    assert len(defined) >= 40
    assert sorted(d for d in defined if d[1] not in referenced) == []
