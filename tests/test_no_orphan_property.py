"""Every property and public method defined in the package is read
somewhere: by the package, its tests, the demos or the benchmark.  One that
nobody reads goes."""

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


def _public_methods(tree):
    """(class name, method name) for each public method in the module that
    is not a property."""
    return {
        (cls.name, fn.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    } - _properties(tree)


def _attribute_reads(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _package_definitions(find):
    package = pathlib.Path(bccover.__file__).parent
    defined = set()
    for path in sorted(package.glob("*.py")):
        defined |= find(ast.parse(path.read_text(), filename=str(path)))
    return defined


def _reads():
    read = set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= _attribute_reads(ast.parse(path.read_text(), filename=str(path)))
    return read


def test_every_property_has_a_reader():
    defined = _package_definitions(_properties)
    read = _reads()
    assert len(defined) >= 8
    assert sorted(p for p in defined if p[1] not in read) == []


def test_every_public_method_has_a_reader():
    # a public method of a package class that no code reads as an
    # attribute goes, as an unread property does
    defined = _package_definitions(_public_methods)
    read = _reads()
    assert len(defined) >= 8
    assert sorted(m for m in defined if m[1] not in read) == []
