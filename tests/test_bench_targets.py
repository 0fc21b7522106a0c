"""The benchmark's tracer wraps names in the package: each must still exist,
or ``bench/run.py --trace 1`` fails when it installs the tracer."""

import contextlib
import importlib
import io
import pathlib
import sys
import types

import bccover
import bccover.cli

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


def test_tracer_records_the_layers_and_restores_every_binding(tmp_path):
    # the counters read what the traced calls return (a clique tree's node
    # count, the merge's items), so a changed return value shows up here
    tracing = _tracing_module()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bccover" or name.startswith("bccover.")]
    before = [dict(vars(m)) for m in modules]
    path = tmp_path / "copath9.graph"
    bccover.write_graph(bccover.gen_copath(9).graph, path)
    # some vertex of h lies in three or more cliques, so its complement's
    # cover rebuilds the clique tree
    h = bccover.gen_random_chordal(30, 0.3, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 12
        bccover.cover_cochordal(bccover.gen_copath(12).graph)
        tracer.op = 7
        bccover.full_report(bccover.gen_copath(7).graph)
        tracer.op = 9
        with contextlib.redirect_stdout(io.StringIO()):
            assert bccover.cli.main(["partition", str(path)]) == 0
        tracer.op = 30
        bccover.cover_cochordal(h.complement())
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before

    totals = tracing.layer_totals(tracer.spans)
    for name in ("chordal.clique_tree", "cover.levels", "cover.merge",
                 "ranking.optimal", "oracle.bc", "oracle.bp"):
        assert totals[name]["calls"] > 0, name
    assert all(not entry["errors"] for entry in totals.values())
    trees = [(s.op, s.count) for s in tracer.spans if s.name == "chordal.clique_tree"]
    # the complement of copath-n is a path: n - 1 cliques
    d = bccover.clique_tree(h).node_count
    assert sorted(set(trees)) == [(7, 6), (9, 8), (12, 11), (30, d)]
    rebuilt = [s for s in tracer.spans if s.op == 30]
    names = [s.name for s in rebuilt]
    assert names.count("chordal.clique_tree") == names.count("cover.rebuild") == 1
    assert all(s.error is None for s in rebuilt)
    assert totals["chordal.clique_tree"]["count"] == sum(c for _, c in trees)
    offered, absorbed = totals["cover.merge"]["count"]
    assert offered == sum(s.count[0] for s in tracer.spans if s.name == "cover.merge")
    assert 0 < absorbed < offered
