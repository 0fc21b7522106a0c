"""The benchmark's tracer wraps names in the package: each must still exist,
or ``bench/run.py --trace 1`` fails when it installs the tracer."""

import importlib
import pathlib
import types

import bccover

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    # read and run the source, so that nothing is written next to it
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_in_the_package():
    src = pathlib.Path(bccover.__file__).resolve().parent
    targets = _tracing_module().TARGETS
    assert targets
    for module_name, attribute, span, _ in targets:
        module = importlib.import_module(module_name)
        assert pathlib.Path(module.__file__).resolve().parent == src, module_name
        owner = module
        for part in attribute.split("."):
            assert hasattr(owner, part), "%s.%s (span %s)" % (module_name, attribute, span)
            owner = getattr(owner, part)
        assert callable(owner), "%s.%s" % (module_name, attribute)
