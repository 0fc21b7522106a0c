"""The package runs on the standard library alone: every module it imports,
inside a function too, is a standard-library module or part of ``bccover``."""

import ast
import pathlib
import sys

import bccover


def _outside_modules(tree):
    """(top-level module, line) for each absolute import of a module that is
    neither in the standard library nor ``bccover``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "bccover" and top not in sys.stdlib_module_names:
                found.append((top, node.lineno))
    return found


def test_the_package_imports_only_the_standard_library():
    package = pathlib.Path(bccover.__file__).parent
    modules, outside = 0, []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules += 1
        outside += ["%s:%d %s" % (path.name, line, top)
                    for top, line in _outside_modules(tree)]
    assert modules >= 10
    assert outside == []


def test_an_import_inside_a_function_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import time\n"
        "from .graph import Graph\n"
        "from bccover.ranking import bfs\n"
        "def inertia(masks):\n"
        "    import numpy as np\n"
        "    from networkx.algorithms import clique\n"
        "    return np, clique\n"
    )
    assert _outside_modules(tree) == [("numpy", 6), ("networkx", 7)]
