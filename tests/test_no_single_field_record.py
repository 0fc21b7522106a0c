"""No record in the package wraps a single value.  A ``Record`` or
``FrozenRecord`` subclass with one field checks and hides nothing its
callers do not unwrap at once: pass the value itself."""

import ast
import pathlib

import bccover

BASES = {"Record", "FrozenRecord"}


def _declared_slots(cls):
    """The names in the class body's ``__slots__`` assignment, or ()."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            slots = ast.literal_eval(stmt.value)
            return (slots,) if isinstance(slots, str) else tuple(slots)
    return ()


def _records(path):
    """(class name, declared slots) of each class in the module deriving
    directly from one of the record base classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (cls.name, _declared_slots(cls))
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id in BASES for b in cls.bases)
    ]


def test_every_record_has_two_or_more_fields():
    package = pathlib.Path(bccover.__file__).parent
    found = []
    thin = []
    for path in sorted(package.glob("*.py")):
        for name, slots in _records(path):
            if path.name == "_record.py" and name in BASES:
                continue  # the base classes themselves
            found.append(name)
            if len(slots) < 2:
                thin.append("%s.%s %r" % (path.stem, name, slots))
    assert len(found) >= 5
    assert thin == []
