"""Every name a package module imports is used by code in that module: an
import whose last reader is gone goes with it.  ``__init__.py`` is left
out, as its imports are the package's public names."""

import ast
import pathlib

import bccover


def _imported(tree):
    """(name bound, line) for each import outside ``__future__``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found.append((alias.asname or alias.name, node.lineno))
    return found


def _read_names(tree):
    """Names read by code; a mention in a docstring does not count."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_every_imported_name_is_used():
    package = pathlib.Path(bccover.__file__).parent
    checked, unused = 0, []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        for name, line in _imported(tree):
            checked += 1
            if name not in read:
                unused.append("%s:%d %s" % (path.name, line, name))
    assert checked >= 40
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from .ranking import _require_ranks, bfs\n"
        "import numpy as np\n"
        "def f(adj):\n"
        "    return bfs(adj, 0)\n"
    )
    read = _read_names(tree)
    assert [name for name, _ in _imported(tree) if name not in read] == [
        "_require_ranks", "np",
    ]
