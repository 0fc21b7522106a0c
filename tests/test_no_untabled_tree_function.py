"""Every public function of the package with a parameter named ``tree`` is
run on the table of malformed trees in
``test_ranking.test_optimal_ranking_rejects_what_is_not_one_tree``, so a new
tree function cannot skip it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bccover"
TABLE = ("test_ranking.py", "test_optimal_ranking_rejects_what_is_not_one_tree")


def _tree_functions():
    """``module.function`` -> function name, for each public module-level
    function of the package with a parameter named ``tree``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        for fn in module.body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and any(a.arg == "tree" for a in fn.args.args)):
                found["%s.%s" % (path.stem, fn.name)] = fn.name
    return found


def _table_names():
    """Names read in the table test's body."""
    name, test = TABLE
    module = ast.parse((ROOT / "tests" / name).read_text())
    (fn,) = [f for f in module.body
             if isinstance(f, ast.FunctionDef) and f.name == test]
    return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


def test_every_tree_function_is_in_the_malformed_tree_table():
    functions = _tree_functions()
    assert len(functions) >= 12
    table = _table_names()
    assert sorted(q for q, name in functions.items() if name not in table) == []
