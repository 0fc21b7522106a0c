"""bccover benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cover-copath --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (import, instance generation, file writing) is repeated five times
and its median reported.  Then floor(``--seconds`` / the workload's baseline
pass time) whole passes over the workload's operations run, one operation at
a time, fewer if 1.5 x ``--seconds`` of wall time goes by first; every output
is checked after each pass, outside the timed region.  With ``--trace 0`` the final stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` a warm-up pass is followed by traced
and untraced passes in turn, and the line carries the per-layer metrics
instead (see ``bench/README.md``).  Earlier lines are for people: every metric by name
and unit, the pass times, and each failed operation with its reason.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 5

# The container's speed drifts by up to 2x over tens of seconds as other
# tenants load the host, and every call slows with it.  Two fixed
# pure-Python loops, one on a small set-and-dict working set and one reading
# a 16 MiB buffer at random, are timed before and after each call and every
# SAMPLE_EVERY_S during it (see Sampler); the call's wall time is scaled by
# CAL_REF_S over the mean of the geometric means of the two loops.  Times are
# then reported at the speed at which that mean is CAL_REF_S.  In 5-minute
# recordings this cut the run-to-run spread of pass_s from 0.17 to about
# 0.05 on cover-random and from 0.10 to 0.06 on cover-copath.
CAL_REF_S = 0.001
_CAL_SET = frozenset(range(0, 64, 2))
_CAL_BUFFER = bytearray(b"\x01") * (1 << 24)
_CAL_MASK = (1 << 24) - 1


def calibration():
    """Geometric mean of the wall times of the two calibration loops, ~1 ms."""
    t0 = time.perf_counter()
    seen = {}
    total = 0
    for i in range(300):
        common = _CAL_SET & frozenset(range(i % 7, 64, 3))
        seen[common] = seen.get(common, 0) + len(common)
        total += sum(x for x in common if x & 1)
    t1 = time.perf_counter()
    j = 12345
    for _ in range(4000):
        j = (j * 1103515245 + 12345) & _CAL_MASK
        total += _CAL_BUFFER[j]
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


class OpTimeout(BaseException):
    """Raised by the per-operation alarm; a BaseException so that no
    ``except Exception`` in the library can swallow it."""


SAMPLE_EVERY_S = 0.25


class Sampler:
    """While an in-process call runs, a SIGALRM every SAMPLE_EVERY_S times
    the calibration, so that a long call is scaled by the speed during it and
    not only at its ends, and raises OpTimeout once the call is past its
    limit.  ``spent`` is the handler's own time, to be taken off the call."""

    def __init__(self, limit):
        self.limit = limit
        self.samples = []
        self.spent = 0.0
        self.start = None
        self.previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration())
        self.spent += time.perf_counter() - t0
        if t0 - self.start > self.limit:
            raise OpTimeout()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def scaled(seconds, cals):
    """``seconds`` at the reference speed, given calibration times taken
    around and during them (see ``calibration``)."""
    return seconds * CAL_REF_S / statistics.fmean(cals)


class Runner:
    """Times operations, checks their outputs and keeps the failure list."""

    def __init__(self, workloads, plan, workload, in_process_cli):
        self.w = workloads
        self.plan = plan
        self.limit = workloads.OP_LIMIT_S[workload]
        self.in_process_cli = in_process_cli
        self.attempted = 0
        self.failures = []  # (operation name, reason)
        self.wrong = 0  # failures that are wrong outputs or errors, not timeouts
        self.outcomes = []
        self.raw_walls = []  # unscaled pass times, for people
        self.child_peak_kb = 0  # largest CLI child's peak resident set
        self.tracer = None

    def _call(self, op, sampler):
        if op.argv is not None and not self.in_process_cli:
            result, peak_kb = self.w.run_cli_child(
                op.argv, self.limit, os.path.join(self.plan.workdir, "peak-rss"))
            self.child_peak_kb = max(self.child_peak_kb, peak_kb)
            return result
        if op.argv is None:
            with sampler:
                return op.call()
        out, err = io.StringIO(), io.StringIO()
        with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["bccover.cli"].main(op.argv)
        return subprocess.CompletedProcess(op.argv, code, out.getvalue(), err.getvalue())

    def run_pass(self):
        """One pass; returns (pass time, per-call times), scaled by the
        calibration."""
        results = []
        raw, times = [], []
        before = calibration()
        for index, op in enumerate(self.plan.ops):
            if self.tracer is not None:
                self.tracer.op = index
            # a collection left over from the previous call would otherwise
            # land in whichever call follows it, which the seed's order decides
            gc.collect()
            sampler = Sampler(self.limit)
            t0 = time.perf_counter()
            try:
                result, error = self._call(op, sampler), None
            except (OpTimeout, subprocess.TimeoutExpired):
                result, error = None, "timeout after %g s" % self.limit
            except Exception as exc:  # a library error fails this operation only
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            wall = time.perf_counter() - t0 - sampler.spent
            after = calibration()
            results.append((op, result, error))
            raw.append(wall)
            times.append(scaled(wall, [before, after] + sampler.samples))
            before = after
        if self.tracer is not None:
            self.tracer.op = None
        self.raw_walls.append(sum(raw))
        for op, result, error in results:
            self.attempted += 1
            if error is None:
                try:
                    outcome = op.check(result)
                except Exception as exc:  # malformed output
                    outcome = self.w.Outcome("check raised %s: %s" % (type(exc).__name__, exc))
                error = outcome.problem
                if error is None:
                    self.outcomes.append(outcome)
            if error is not None:
                self.failures.append((op.name, error))
                if not error.startswith("timeout"):
                    self.wrong += 1
        return sum(times), times


def timed_passes(runner, passes, max_wall_s):
    """``passes`` passes, or fewer if ``max_wall_s`` of wall time has gone by
    at the end of one; returns (pass times, call times)."""
    walls, calls = [], []
    start = time.perf_counter()
    for _ in range(passes):
        pass_s, times = runner.run_pass()
        walls.append(pass_s)
        calls.extend(times)
        if time.perf_counter() - start > max_wall_s:
            break
    return walls, calls


# Times ``import bccover`` in a fresh interpreter and prints it scaled by
# calibrations taken in that interpreter just before and after.
_IMPORT = """import sys, time
sys.path.insert(0, sys.argv[1])
from run import calibration, scaled
cals = [calibration() for _ in range(5)]
t0 = time.perf_counter()
import bccover
seconds = time.perf_counter() - t0
cals += [calibration() for _ in range(5)]
print(scaled(seconds, cals))
"""


def import_time(workloads):
    """Scaled time of ``import bccover`` in a fresh child process."""
    here = os.path.dirname(os.path.abspath(__file__))
    result = subprocess.run([sys.executable, "-c", _IMPORT, here], capture_output=True,
                            text=True, timeout=60, env=workloads.child_env(), check=True)
    return float(result.stdout.split()[-1])


def setup(workloads, name, seed, workdir):
    """Time the import and build the plan SETUP_REPEATS times each; returns
    the plan and the median scaled import and generation times."""
    imports, builds = [], []
    plan = None
    for _ in range(SETUP_REPEATS):
        imports.append(import_time(workloads))
        if plan is not None and plan.workdir:
            shutil.rmtree(plan.workdir, ignore_errors=True)
        plan = None  # so that only one plan's instances are ever alive
        gc.collect()
        cal = calibration()
        t0 = time.perf_counter()
        plan = workloads.PLANS[name](seed, workdir)
        builds.append(scaled(time.perf_counter() - t0, [cal, calibration()]))
    return plan, statistics.median(imports), statistics.median(builds)


def tail_of(calls):
    """The highest percentile with at least ten calls beyond it, i.e. the
    eleventh-largest call time; returns (time, percentile)."""
    ordered = sorted(calls)
    rank = max(0, len(ordered) - 11)
    q = 100.0 * rank / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[rank], q


def end_to_end(name, walls, calls, setup_s, runner):
    tail, q = tail_of(calls)
    rss_kb = runner.child_peak_kb if name == "cli-files" else own_peak_kb()
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(walls), "s"),
        "call_s.p50": (statistics.median(calls), "s"),
        "call_s.tail": (tail, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    beyond = sum(1 for t in calls if t > tail)
    notes = ["call_s.tail is p%.2f of %d calls (%d beyond it)%s"
             % (q, len(calls), beyond, "" if beyond >= 10 else "; fewer than 10 beyond")]
    # quality metrics: printed for people, not part of the JSON line because
    # they are 0 or undefined on some workloads
    extra = {"failed_frac": (len(runner.failures) / max(1, runner.attempted), "ratio")}
    if runner.outcomes:
        extra["cover_excess"] = (
            sum(o.excess for o in runner.outcomes) / len(walls), "count/pass")
    exacts = [o.exact for o in runner.outcomes if o.exact is not None]
    if exacts:
        extra["exact_frac"] = (sum(exacts) / len(exacts), "ratio")
    return metrics, extra, notes


def per_layer(tracer_mod, spans, passes, runner, workloads, startup_s, overhead_s):
    totals = tracer_mod.layer_totals(spans)

    def get(name, key="calls"):
        entry = totals.get(name)
        if entry is None:
            return 0
        return entry[key]

    def per_pass(value):
        return value / passes

    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = (value, unit)

    for span in ("graph.complement", "graph.is_biclique", "chordal.clique_tree",
                 "ranking.optimal", "ranking.heuristic", "cover.verify", "oracle.bp",
                 "oracle.max_cliques"):
        put(span + ".calls", per_pass(get(span)), "count/pass")
    for span in ("graph.complement", "graph.is_biclique", "graph.parse",
                 "chordal.clique_tree", "ranking.optimal", "ranking.heuristic",
                 "cover.cochordal", "cover.rebuild", "cover.levels", "cover.merge",
                 "cover.verify", "cover.partition", "oracle.bp", "oracle.bc",
                 "oracle.max_cliques", "oracle.max_bicliques", "oracle.chromatic",
                 "oracle.matching", "oracle.clique_number", "bounds.report",
                 "bounds.conflict_graph", "cli.main"):
        put(span + ".self_s", per_pass(get(span, "self_s")), "s/pass")
    put("graph.is_biclique.pairs", per_pass(get("graph.is_biclique", "count") or 0),
        "count/pass")
    put("chordal.cliques", per_pass(get("chordal.clique_tree", "count") or 0), "count/pass")
    timeouts = 0
    if "ranking.optimal" in totals:
        timeouts = totals["ranking.optimal"]["errors"].get("OpTimeout", 0)
    put("ranking.optimal.timeouts", timeouts, "count")
    optimal = [o.optimal for o in runner.outcomes if o.optimal is not None]
    put("ranking.optimal_frac", sum(optimal) / len(optimal) if optimal else 0.0, "ratio")
    tried, accepted = get("cover.merge", "count") or (0, 0)
    put("cover.merge.tried", per_pass(tried), "count/pass")
    put("cover.merge.accepted", per_pass(accepted), "count/pass")
    put("cover.merge.accept_ratio", accepted / tried if tried else 0.0, "ratio")
    put("oracle.bp.inexact", per_pass(get("oracle.bp", "count") or 0), "count/pass")
    put("oracle.bc.inexact", per_pass(get("oracle.bc", "count") or 0), "count/pass")
    put("cli.startup_s", startup_s, "s")
    put("trace.overhead_s", overhead_s, "s/pass")
    return metrics


def own_peak_kb():
    """This process's peak resident set (VmHWM).  getrusage's ru_maxrss is
    not used: after exec it starts from the parent's resident set."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def cli_startup(workloads, workdir):
    """Median time of three no-work CLI invocations (``--help``)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        result, _ = workloads.run_cli_child(["--help"], 60, os.path.join(workdir, "peak-rss"))
        times.append(time.perf_counter() - t0)
        if result.returncode != 0:
            raise RuntimeError("bccover --help exited with %d" % result.returncode)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bccover", "__init__.py")):
        print("error: no bccover sources under %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bccover
    if not os.path.abspath(bccover.__file__).startswith(src + os.sep):
        print("error: bccover imported from %s, not %s" % (bccover.__file__, src),
              file=sys.stderr)
        return 2
    import bccover.cli  # noqa: F401  (the CLI module is a traced layer)
    import tracing
    import workloads

    if args.workload not in workloads.PLANS:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.PLANS)), file=sys.stderr)
        return 2

    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work",
                           "%s-%d" % (args.workload, os.getpid()))
    try:
        plan, import_s, build_s = setup(workloads, args.workload, args.seed, workdir)
        setup_s = import_s + build_s
        setup_peak_kb = own_peak_kb()
        runner = Runner(workloads, plan, args.workload, in_process_cli=bool(args.trace))
        if args.trace:
            metrics = traced_run(args, runner, plan, tracing, workloads)
        else:
            passes = max(1, int(args.seconds / workloads.PASS_S[args.workload]))
            # the wall-time guard only acts when the machine or the program
            # is much slower than at baseline
            walls, calls = timed_passes(runner, passes, 1.5 * args.seconds)
            metrics, extra, notes = end_to_end(args.workload, walls, calls, setup_s, runner)
            notes.append("setup_s is import %.4f s + generation %.4f s; peak resident "
                         "set %.1f MB after set-up, %.1f MB at the end"
                         % (import_s, build_s, setup_peak_kb / 1024.0, own_peak_kb() / 1024.0))
            print("workload %s seed %d: %d passes of %d operations" % (
                args.workload, args.seed, len(walls), len(plan.ops)))
            print("  pass times %s s; unscaled %s s" % (
                " ".join("%.3f" % w for w in walls),
                " ".join("%.3f" % w for w in runner.raw_walls)))
            for key, (value, unit) in list(metrics.items()) + list(extra.items()):
                print("  %-14s %.6g %s" % (key, value, unit))
            for note in notes:
                print("  " + note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for name, reason in runner.failures:
        print("  FAILED %s: %s" % (name, reason))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, runner, plan, tracing, workloads):
    """A warm-up pass, then traced and untraced passes in turn until
    ``--seconds``; per-layer metrics come from the traced passes, and the
    overhead is the median traced pass minus the median untraced one."""
    start = time.perf_counter()
    runner.run_pass()
    tracer = tracing.Tracer()
    traced, untraced = [], []
    while True:
        t0 = time.perf_counter()
        tracer.install()
        runner.tracer = tracer
        try:
            traced.append(runner.run_pass()[0])
        finally:
            runner.tracer = None
            tracer.uninstall()
        untraced.append(runner.run_pass()[0])
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    startup_s = cli_startup(workloads, plan.workdir) if args.workload == "cli-files" else 0.0
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = per_layer(tracing, tracer.spans, len(traced), runner, workloads,
                        startup_s, overhead)
    print("workload %s seed %d: %d traced and %d untraced passes, %d spans"
          % (args.workload, args.seed, len(traced), len(untraced), len(tracer.spans)))
    for key, (value, unit) in metrics.items():
        print("  %-32s %.6g %s" % (key, value, unit))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
