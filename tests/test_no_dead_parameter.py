"""Every optional parameter of a function in the package is set by some call
in ``src/``, ``tests/``, ``demos/`` or ``bench/``: a default that no caller
overrides is a constant, and the parameter goes with it.

Calls are matched to functions by name alone (``f(...)``, ``obj.f(...)``,
and ``Name(...)`` for ``Name.__init__``), so a call to any function of the
same name counts; a call with ``*args`` or ``**kwargs`` counts as setting
every parameter it could reach.  A record's ``__init__`` is exempt: copy and
pickle rebuild a record by calling its class on every field."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bccover"
TREES = ("src", "tests", "demos", "bench")
RECORD_BASES = {"Record", "FrozenRecord"}


def _functions(module):
    """(called name, def, offset) for every function of ``module``, nested
    ones included.  A method's name is its own, ``__init__``'s is its
    class's, and ``offset`` is 1 where the first parameter is ``self`` or
    ``cls``.  Record ``__init__``s are left out."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                offset = 1 if cls is not None and not static else 0
                name = child.name
                if name == "__init__":
                    if any(isinstance(b, ast.Name) and b.id in RECORD_BASES
                           for b in cls.bases):
                        continue
                    name = cls.name
                out.append((name, child, offset))
                visit(child, None)
            else:
                visit(child, cls)

    visit(module, None)
    return out


def _optional(fn, offset):
    """(parameter name, positional index or None) of each parameter of
    ``fn`` that has a default; the index counts from the first argument a
    caller passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    out = [
        (arg.arg, index - offset)
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(args.defaults)
    ]
    out += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _calls(paths):
    """Called name -> list of ``ast.Call`` nodes, over the files ``paths``."""
    calls = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call, name, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and len(call.args) > index:
        return True
    return any(k.arg is None or k.arg == name for k in call.keywords)


def optional_parameters():
    """``(module.function(parameter), set)`` for each optional parameter
    of a package function, ``set`` saying whether some call sets it."""
    paths = [p for tree in TREES for p in sorted((ROOT / tree).rglob("*.py"))]
    calls = _calls(paths)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        for name, fn, offset in _functions(module):
            for param, index in _optional(fn, offset):
                out.append((
                    "%s.%s(%s)" % (path.stem, fn.name, param),
                    any(_sets(c, param, index) for c in calls.get(name, ())),
                ))
    return out


def test_every_optional_parameter_is_set_by_some_call():
    found = optional_parameters()
    assert len(found) >= 25
    assert sorted(name for name, used in found if not used) == []
