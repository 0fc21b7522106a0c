"""Every property defined in the package is read somewhere: by the package,
its tests, the demos or the benchmark.  A property nobody reads goes."""

import ast
import pathlib

import bccover

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _properties(tree):
    """(class name, property name) for each ``@property`` in the module."""
    return {
        (cls.name, fn.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "property"
                for d in fn.decorator_list)
    }


def _attribute_reads(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_property_has_a_reader():
    package = pathlib.Path(bccover.__file__).parent
    defined = set()
    for path in sorted(package.glob("*.py")):
        defined |= _properties(ast.parse(path.read_text(), filename=str(path)))
    read = set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= _attribute_reads(ast.parse(path.read_text(), filename=str(path)))
    assert len(defined) >= 8
    assert sorted(p for p in defined if p[1] not in read) == []
