"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Run from the repository root.  Confirms that

1. the output checks fail a cover with one biclique dropped and a report with
   a wrong oracle value, and that timeouts and library exceptions
   (``RecursionError``, ``AssertionError``, the private ``oracle._Timeout``)
   each count as one failed operation without ending the run;
2. the tracer wraps every target in every module that binds it and restores
   every binding afterwards;
3. each per-layer metric that a workload should move is non-zero in a
   traced run of that workload;
4. the benchmark exits non-zero, without a result line, in a directory that
   holds only ``BENCHMARK.json`` and ``bench/``.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bccover  # noqa: E402
import bccover.cli  # noqa: E402,F401
import bccover.oracle  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per workload, the per-layer metrics that must be non-zero in a traced run:
# the layers the workload exists to exercise.
EXPECT_NONZERO = {
    "cover-copath": (
        "graph.is_biclique.calls", "graph.is_biclique.pairs", "graph.is_biclique.self_s",
        "chordal.clique_tree.calls", "chordal.clique_tree.self_s", "chordal.cliques",
        "ranking.heuristic.calls", "ranking.heuristic.self_s", "cover.rebuild.self_s",
        "cover.levels.self_s", "cover.merge.self_s", "cover.merge.tried",
        "cover.merge.accepted", "cover.merge.accept_ratio", "cover.verify.calls",
        "cover.verify.self_s",
    ),
    "cover-random": (
        "ranking.optimal.calls", "ranking.optimal.self_s", "ranking.heuristic.calls",
        "ranking.heuristic.self_s", "ranking.optimal_frac", "cover.merge.self_s",
        "cover.merge.tried", "cover.merge.accepted", "cover.merge.accept_ratio",
        "graph.is_biclique.calls",
    ),
    "report-oracle": (
        "graph.complement.calls", "graph.complement.self_s", "chordal.clique_tree.calls",
        "chordal.clique_tree.self_s", "chordal.cliques", "oracle.bp.calls",
        "oracle.bp.self_s", "oracle.bp.inexact", "oracle.bc.self_s",
        "oracle.max_cliques.calls", "oracle.max_cliques.self_s",
        "oracle.max_bicliques.self_s", "oracle.chromatic.self_s", "oracle.matching.self_s",
        "oracle.clique_number.self_s", "bounds.report.self_s",
        "bounds.conflict_graph.self_s", "cover.partition.self_s",
    ),
    "cli-files": (
        "graph.parse.self_s", "cli.main.self_s", "cli.startup_s", "cover.verify.calls",
        "cover.verify.self_s", "cover.partition.self_s",
    ),
}

results = []


def report(name, ok, detail=""):
    results.append(ok)
    print("%s %s%s" % ("PASS" if ok else "FAIL", name, (": " + detail) if detail else ""),
          flush=True)


def run_ops(ops, limit=5.0):
    plan = workloads.Plan(ops, [], {})
    runner = run.Runner(workloads, plan, "cover-copath", in_process_cli=False)
    runner.limit = limit
    runner.run_pass()
    return runner


def check_failure_accounting():
    inst = workloads.copath(9, random.Random(0))
    cover, meta = bccover.cover_cochordal(inst.graph)
    good = workloads.cover_op(inst)
    dropped = workloads.Op("dropped", lambda: (cover[:-1], meta), good.check)
    runner = run_ops([good, dropped])
    report("cover with one biclique dropped counts as failed",
           runner.attempted == 2 and runner.failures == [("dropped", runner.failures[0][1])]
           and runner.wrong == 1, str(runner.failures))

    rinst = workloads.copath(7, random.Random(1))
    rgood = workloads.report_op(rinst)
    honest = bccover.full_report(rinst.graph)

    def wrong_bc():
        rep = bccover.full_report(rinst.graph)
        bc = rep.oracle_bc
        cert = list(bc.certificate) + [bc.certificate[0]]
        rep.oracle_bc = bccover.OracleResult(bc.upper + 1, bc.upper + 1, cert)
        return rep

    runner = run_ops([rgood, workloads.Op("wrong-bc", wrong_bc, rgood.check)])
    report("report with a wrong oracle value counts as failed",
           honest.oracle_bc.exact and runner.wrong == 1
           and [f[0] for f in runner.failures] == ["wrong-bc"], str(runner.failures))

    def cut_bp():
        rep = bccover.full_report(rinst.graph)
        bp = rep.oracle_bp
        rep.oracle_bp = bccover.OracleResult(bp.upper - 1, bp.upper, bp.certificate)
        return rep

    short = workloads.report_op(rinst, short_search=True)
    runner = run_ops([workloads.Op("cut-bp", cut_bp, rgood.check),
                      workloads.Op("cut-bp-short", cut_bp, short.check)])
    report("an inexact oracle under the long search cap fails as a timeout, "
           "under the short cap it does not",
           [f[0] for f in runner.failures] == ["cut-bp"] and runner.wrong == 0
           and runner.failures[0][1].startswith("timeout"), str(runner.failures))

    def raiser(exc):
        def call():
            raise exc
        return call

    ops = [
        workloads.Op("sleeps", lambda: time.sleep(2), lambda r: workloads.Outcome()),
        workloads.Op("recursion", raiser(RecursionError("deep")), good.check),
        workloads.Op("assertion", raiser(AssertionError()), good.check),
        workloads.Op("oracle-timeout", raiser(bccover.oracle._Timeout()), good.check),
        good,
    ]
    runner = run_ops(ops, limit=0.2)
    names = [f[0] for f in runner.failures]
    report("timeouts and exceptions each fail one operation and the pass goes on",
           names == ["sleeps", "recursion", "assertion", "oracle-timeout"]
           and runner.attempted == 5 and runner.wrong == 3
           and runner.failures[0][1].startswith("timeout"), str(runner.failures))


def bindings():
    snap = {}
    for key, module in sorted(sys.modules.items()):
        if module is not None and (key == "bccover" or key.startswith("bccover.")):
            snap.update({(key, k): v for k, v in vars(module).items()})
    snap.update({("Graph", k): v for k, v in vars(bccover.Graph).items()})
    return snap


def check_tracer_restores():
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    during = bindings()
    changed = {k for k in before if during.get(k) is not before[k]}
    g = workloads.copath(12, random.Random(2)).graph
    bccover.cover_cochordal(g)
    tracer.uninstall()
    after = bindings()
    restored = all(after.get(k) is v for k, v in before.items())
    names = {s.name for s in tracer.spans}
    # verify_cover is bound in cover, cli and the package namespace
    wrapped_everywhere = {("bccover.cover", "verify_cover"), ("bccover.cli", "verify_cover"),
                          ("bccover", "verify_cover"), ("bccover.cover", "clique_tree"),
                          ("Graph", "complement")} <= changed
    report("tracer wraps every binding and restores all of them",
           restored and wrapped_everywhere and {"cover.cochordal", "cover.merge"} <= names,
           "%d bindings wrapped" % len(changed))


def check_per_layer(seconds):
    for workload, names in EXPECT_NONZERO.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            report("traced run of %s" % workload, False, proc.stderr[-500:])
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        zero = [n for n in names if not metrics.get(n)]
        ok = not zero and result["correct"]
        if workload == "cover-random":  # some merges must be rejected here
            ok = ok and metrics["cover.merge.accept_ratio"] < 1
        report("per-layer metrics non-zero on %s" % workload, ok,
               "zero: %s" % ", ".join(zero) if zero else "")


def check_bare_directory():
    work = os.path.join(HERE, ".work", "bare-%d" % os.getpid())
    os.makedirs(work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
        shutil.copytree(HERE, os.path.join(work, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cover-copath", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=180)
        report("exits non-zero without a result where only the benchmark files exist",
               proc.returncode != 0 and '"correct"' not in proc.stdout,
               "exit %d" % proc.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    check_failure_accounting()
    check_tracer_restores()
    check_bare_directory()
    check_per_layer(seconds=1)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
