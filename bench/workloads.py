"""The benchmark's workloads: seeded instances, the timed operations, checks.

Each workload builds a plan from the seed: a list of operations (one
``cover_cochordal`` call, one ``full_report`` call, or one ``bccover`` CLI
invocation), each with a check of its output that runs outside the timed
region.  Checks are independent of the library: covers and partitions are
re-checked with neighbourhood bit masks built from the input graph, so a
broken ``verify_cover`` cannot make them pass.

Where an instance's cost swings with vertex labels (the memoised exact
edge-ranking, the branch and bound of ``exact_bp``), its structure and labels
are fixed by the family and only its place in the pass follows the seed.
Otherwise the seed draws the instance or relabels it.  That keeps the mix of
cheap and expensive instances the same in every run, so the run-to-run
spread measures the program rather than the draw.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import bccover
from bccover.gen import caterpillar_tree, random_tree

# Oracle budgets handed to every full_report call on report-oracle.  exact_bp
# is exponential: with an 8 s search cap, 9 of the 20 G(12, 0.5) graphs come
# out exact (seeds 10, 12, 18 in under 0.01 s, 3 in 0.36 s, 9 and 11 in
# 1.5 s, 17 in 1.8 s, 0 in 2.8 s, 14 in 5.1 s on a 2-core x86 container) and
# 11 do not.  The seeds that finish in under 1.6 s get the long cap, five
# times their slowest finish, so their whole search is timed and a report
# that comes out inexact there fails; the others get a short cap, so that
# waiting out a cap is a small part of each pass.
SEARCH_FINISHING_SEEDS = (3, 9, 10, 11, 12, 18)
SEARCH_BUDGET = dict(vertex_cap=14, edge_cap=96, time_cap=8.0)
SHORT_SEARCH_BUDGET = dict(vertex_cap=14, edge_cap=96, time_cap=0.1)
VALUE_BUDGET = dict(vertex_cap=20, edge_cap=190, time_cap=2.0)

# Per-operation limit enforced by the benchmark, in seconds.
OP_LIMIT_S = {"cover-copath": 60.0, "cover-random": 30.0,
              "report-oracle": 30.0, "cli-files": 60.0}

# A run makes floor(--seconds / PASS_S) passes, at least one.  PASS_S is the
# baseline pass time, and it stays fixed so that every version of the program
# makes the same number of passes in a run of a given length: call_s.tail is
# the time with ten calls beyond it, so a change in the number of calls would
# move it to another instance.
PASS_S = {"cover-copath": 7.6, "cover-random": 3.3,
          "report-oracle": 6.3, "cli-files": 7.5}


# -- independent checks ---------------------------------------------------------


def neighbour_masks(g):
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def cover_problem(n, masks, m, bicliques, partition=False):
    """Why ``bicliques`` is not a biclique cover (partition) of the graph with
    neighbourhood ``masks``, or None when it is one."""
    covered = [0] * n
    cells = 0
    for index, (left, right) in enumerate(bicliques):
        if not left or not right or set(left) & set(right):
            return "member %d has an empty or shared side" % index
        if any(not 0 <= v < n for v in list(left) + list(right)):
            return "member %d has a vertex out of range" % index
        lmask = sum(1 << v for v in set(left))
        rmask = sum(1 << v for v in set(right))
        for u in left:
            if masks[u] & rmask != rmask:
                return "member %d is not a biclique of the graph" % index
            covered[u] |= rmask
        for v in right:
            covered[v] |= lmask
        cells += len(set(left)) * len(set(right))
    if covered != masks:
        return "an edge is left uncovered"
    if partition and cells != m:
        return "an edge is covered more than once"
    return None


def ceil_log2(k):
    return (k - 1).bit_length() if k > 1 else 0


@dataclass
class Instance:
    name: str
    graph: object
    family: str
    mc: int | None = None  # maximal cliques of the complement, when known
    exact_size: int | None = None  # minimum cover size, when known
    chordal_complement: object = None  # H with g = complement(H), when known
    _masks: list | None = field(default=None, repr=False)

    def masks(self):
        if self._masks is None:
            self._masks = neighbour_masks(self.graph)
        return self._masks

    def mc_complement(self):
        """mc from the generator, or from the generator's chordal graph."""
        if self.mc is None and self.chordal_complement is not None:
            self.mc = bccover.clique_tree(self.chordal_complement).node_count
        return self.mc

    def describe(self):
        return {"name": self.name, "family": self.family, "n": self.graph.n,
                "m": self.graph.m, "d": self.mc_complement()}


@dataclass
class Outcome:
    problem: str | None = None
    excess: int = 0  # cover size minus lb_log_mc, for a successful cover
    optimal: bool | None = None  # the cover's ranking was exact
    exact: bool | None = None  # both report oracles were exact


@dataclass
class Op:
    name: str
    call: object  # () -> result
    check: object  # result -> Outcome
    argv: list | None = None  # CLI arguments, for cli-files


@dataclass
class Plan:
    ops: list
    instances: list
    params: dict
    workdir: str | None = None


# -- cover checks -------------------------------------------------------------------


def check_cover(inst, cover, meta):
    g = inst.graph
    members = [(b.left, b.right) for b in cover]
    problem = cover_problem(g.n, inst.masks(), g.m, members)
    if problem:
        return Outcome(problem)
    mc = inst.mc_complement()
    if mc is not None and len(cover) > max(0, mc - 1):
        return Outcome("cover size %d exceeds mc - 1 = %d" % (len(cover), mc - 1))
    if inst.exact_size is not None and len(cover) != inst.exact_size:
        return Outcome("co-path cover size %d, expected %d" % (len(cover), inst.exact_size))
    if meta.all_le_two and len(cover) > meta.ranking_r:
        return Outcome("all memberships <= 2 but size %d exceeds ranking r = %d"
                       % (len(cover), meta.ranking_r))
    excess = len(cover) - ceil_log2(mc) if mc is not None else 0
    return Outcome(excess=excess, optimal=meta.ranking_optimal)


def cover_op(inst):
    g = inst.graph
    return Op(inst.name,
              lambda: bccover.cover_cochordal(g),
              lambda result: check_cover(inst, *result))


# -- report checks ---------------------------------------------------------------


def check_report(inst, report, must_be_exact=False):
    """``must_be_exact``: the search is given a cap it finishes well within,
    so an inexact oracle means the search got slower, and fails the report
    as a timeout would."""
    g = inst.graph
    if report.inconsistent:
        return Outcome("report is inconsistent")
    if report.cover is not None:
        outcome = check_cover(inst, report.cover, report.cover_meta)
        if outcome.problem:
            return Outcome("report cover: " + outcome.problem)
    lowers = report.certified_lower_bounds()
    uppers = report.certified_upper_bounds()
    values = {}
    for label, result, partition in (("bc", report.oracle_bc, False),
                                     ("bp", report.oracle_bp, True)):
        if result is None:
            return Outcome("oracle %s missing" % label)
        if not result.lower <= result.upper:
            return Outcome("oracle %s window [%d, %d] is empty"
                           % (label, result.lower, result.upper))
        certificate = result.certificate or []
        if len(certificate) != result.upper:
            return Outcome("oracle %s upper %d but certificate has %d members"
                           % (label, result.upper, len(certificate)))
        problem = cover_problem(g.n, inst.masks(), g.m,
                                [(b.left, b.right) for b in certificate], partition)
        if problem:
            return Outcome("oracle %s certificate: %s" % (label, problem))
        if result.exact:
            values[label] = result.upper
            if lowers and result.upper < max(lowers):
                return Outcome("oracle %s = %d below certified lower bound %d"
                               % (label, result.upper, max(lowers)))
    if "bc" in values and uppers and values["bc"] > min(uppers):
        return Outcome("oracle bc = %d above certified upper bound %d"
                       % (values["bc"], min(uppers)))
    if "bc" in values and "bp" in values and values["bp"] < values["bc"]:
        return Outcome("oracle bp = %d below bc = %d" % (values["bp"], values["bc"]))
    mc = inst.mc_complement()
    if "bp" in values and mc is not None and values["bp"] > max(0, mc - 1):
        return Outcome("oracle bp = %d above mc - 1 = %d" % (values["bp"], mc - 1))
    exact = "bc" in values and "bp" in values
    if must_be_exact and not exact:
        return Outcome("timeout: an oracle reached the %g s search cap on an instance "
                       "it finished well within it at baseline" % SEARCH_BUDGET["time_cap"])
    excess = 0
    if report.cover is not None and mc is not None:
        excess = report.cover_size - ceil_log2(mc)
    return Outcome(excess=excess, exact=exact)


def report_op(inst, short_search=False):
    """full_report with the long search cap, under which the oracles must come
    out exact, or with the short one, under which they need not."""
    g = inst.graph
    search = bccover.OracleBudget(**(SHORT_SEARCH_BUDGET if short_search else SEARCH_BUDGET))
    value = bccover.OracleBudget(**VALUE_BUDGET)
    return Op(inst.name,
              lambda: bccover.full_report(g, value_budget=value, search_budget=search),
              lambda report: check_report(inst, report, must_be_exact=not short_search))


# -- instance families -------------------------------------------------------------


def relabelled(edges, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def copath(n, rng=None):
    """gen_copath(n); with ``rng``, relabelled by a seeded permutation."""
    g = bccover.gen_copath(n).graph
    if rng is not None:
        g = bccover.Graph(n, relabelled(g.edges(), n, rng))
    return Instance("copath-%d" % n, g, "copath", mc=n - 1, exact_size=ceil_log2(n - 1))


def random_cochordal(n, density, gen_seed, rng=None):
    """Complement of gen_random_chordal(n, density, gen_seed), relabelled by
    ``rng`` when given."""
    h = bccover.gen_random_chordal(n, density, gen_seed)
    if rng is not None:
        h = bccover.Graph(n, relabelled(h.edges(), n, rng))
    return Instance("random-cochordal-%d-%s-%d" % (n, density, gen_seed),
                    h.complement(), "random-cochordal", chordal_complement=h)


def two_membership(tree, shape, gen_seed):
    """gen_two_membership_cochordal on ``tree``: middle sets of size 1, each
    clique two larger than its tree degree, vertex ids shuffled by gen_seed.
    ``shape`` names the tree, e.g. ``random20s1`` for random_tree(20, 1)."""
    sizes = [len(tree.neighbors(i)) + 2 for i in range(tree.n)]
    inst = bccover.gen_two_membership_cochordal(tree, sizes, [1] * len(tree.edges),
                                                seed=gen_seed)
    return Instance("two-membership-%s-%d" % (shape, gen_seed),
                    inst.graph, "two-membership", mc=tree.n)


def gnp(n, p, seed):
    """The ROADMAP's seeded G(n, p): pair (u, v), u < v, in lexicographic
    order is an edge when random.Random(seed).random() < p."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Instance("gnp-%d-%s-%d" % (n, p, seed), bccover.Graph(n, edges), "gnp")


# -- plans -------------------------------------------------------------------------


# gen_copath sizes in one pass and how often each appears.  copath-800 is
# the ROADMAP's target instance.  Fourteen calls on copath-150 per pass put
# the median inside one size, measured many times.  In the three passes of a
# 25 s run, six calls on copath-800 and copath-400 come first, so the tail
# (ten calls beyond it) is the median of the nine copath-300 calls.
COPATH_MIX = ((150, 14), (200, 1), (250, 1), (300, 3), (400, 1), (800, 1))

RANDOM_EXACT = dict(n=100, density=0.1, gen_seeds=tuple(range(12)))
# small exact-side graphs, so the median call sits inside a dense cluster
RANDOM_SMALL = dict(n=60, density=0.1, gen_seeds=tuple(range(10)))
RANDOM_HEURISTIC = dict(n=250, density=0.02, count=4)
TREE_SHAPES = dict(random_tree_nodes=20, random_tree_seeds=tuple(range(10)),
                   caterpillars=((60, 3), (100, 2)))

GNP = dict(n=12, p=0.5, seeds=tuple(range(20)))
# Seed 3's report (a 0.3 s search) runs three times per pass.  Only seeds 9 and
# 11 take longer, so in three passes the tail (ten calls beyond it) is the
# median of the nine seed-3 reports.
GNP_COPIES = {3: 3}
REPORT_COCHORDAL = dict(n=12, density=0.3, gen_seeds=tuple(range(40)))


def plan_cover_copath(seed, workdir):
    """gen_copath(n) as generated: relabelling moves a co-path cover's cost by
    up to 20% (set iteration order steers the merges), so only the order of
    the pass follows the seed."""
    insts = [copath(n) for n, count in COPATH_MIX for _ in range(count)]
    random.Random(seed).shuffle(insts)
    return Plan([cover_op(i) for i in insts], insts, {"copath_sizes_and_counts": COPATH_MIX})


def plan_cover_random(seed, workdir):
    rng = random.Random(seed)
    insts = [random_cochordal(family["n"], family["density"], k)
             for family in (RANDOM_EXACT, RANDOM_SMALL) for k in family["gen_seeds"]]
    insts += [random_cochordal(RANDOM_HEURISTIC["n"], RANDOM_HEURISTIC["density"],
                               rng.randrange(2 ** 31), rng)
              for _ in range(RANDOM_HEURISTIC["count"])]
    n = TREE_SHAPES["random_tree_nodes"]
    insts += [two_membership(random_tree(n, k), "random%ds%d" % (n, k), k)
              for k in TREE_SHAPES["random_tree_seeds"]]
    for d, count in TREE_SHAPES["caterpillars"]:
        tree = caterpillar_tree(d // 2, d - d // 2)
        insts += [two_membership(tree, "caterpillar%d" % d, rng.randrange(2 ** 31))
                  for _ in range(count)]
    rng.shuffle(insts)
    return Plan([cover_op(i) for i in insts], insts,
                {"random_cochordal_exact_side": (RANDOM_EXACT, RANDOM_SMALL),
                 "random_cochordal_heuristic_side": RANDOM_HEURISTIC,
                 "two_membership": TREE_SHAPES,
                 "fixed": "exact-side random co-chordal graphs and the random "
                          "trees' instances; the seed draws the heuristic-side "
                          "graphs, the caterpillar instances' vertex ids and the order"})


def plan_report_oracle(seed, workdir):
    """The G(12, 0.5) graphs with a search cap they finish within (must come
    out exact) or a short one; fixed co-chordal graphs (all exact).  The
    co-chordal graphs, the cheapest reports, are more than half of the pass so
    that the median report is one that finishes; only the order follows the
    seed."""
    insts = [gnp(GNP["n"], GNP["p"], k) for k in GNP["seeds"]
             for _ in range(GNP_COPIES.get(k, 1))]
    short = {gnp(GNP["n"], GNP["p"], k).name for k in GNP["seeds"]
             if k not in SEARCH_FINISHING_SEEDS}
    insts += [random_cochordal(REPORT_COCHORDAL["n"], REPORT_COCHORDAL["density"], k)
              for k in REPORT_COCHORDAL["gen_seeds"]]
    random.Random(seed).shuffle(insts)
    return Plan([report_op(i, short_search=i.name in short) for i in insts], insts,
                {"gnp": GNP, "cochordal": REPORT_COCHORDAL,
                 "search_budget": SEARCH_BUDGET,
                 "search_finishing_gnp_seeds": SEARCH_FINISHING_SEEDS,
                 "gnp_copies_per_pass": GNP_COPIES,
                 "short_search_budget": SHORT_SEARCH_BUDGET,
                 "short_search": "the other G(12, 0.5) seeds",
                 "value_budget": VALUE_BUDGET,
                 "fixed": "all graphs and their labels; the seed draws the order"})


# -- CLI workload ------------------------------------------------------------------

# copath-150 keeps its commands below those on copath-300, so that the tail
# (ten calls beyond it) falls among the verify, partition and bounds calls
# on copath-300, after the bounds --dir and cover copath-300 calls.
CLI_FILES = (("copath", 150), ("copath", 300), ("caterpillar", 40),
             ("random-cochordal", 150))


def parse_bicliques(text):
    out = []
    for line in text.splitlines():
        if line.startswith("L:"):
            left, right = line[2:].split("| R:")
            out.append(([int(x) for x in left.split()], [int(x) for x in right.split()]))
    return out


def check_cli(inst, kind, result, cover_path=None):
    if result.returncode != 0:
        return Outcome("exit code %d: %s" % (result.returncode, result.stderr.strip()[-200:]))
    g = inst.graph
    if kind == "cover":
        with open(cover_path, encoding="utf-8") as fh:
            members = parse_bicliques(fh.read())
        problem = cover_problem(g.n, inst.masks(), g.m, members)
        if problem:
            return Outcome("cover file: " + problem)
        mc = inst.mc_complement()
        if len(members) > mc - 1:
            return Outcome("cover size %d exceeds mc - 1 = %d" % (len(members), mc - 1))
        if inst.exact_size is not None and len(members) != inst.exact_size:
            return Outcome("co-path cover size %d, expected %d"
                           % (len(members), inst.exact_size))
        return Outcome(excess=len(members) - ceil_log2(mc))
    if kind == "verify":
        if not result.stdout.startswith("ok: valid cover"):
            return Outcome("verify did not accept the cover file")
        return Outcome()
    if kind == "partition":
        members = parse_bicliques(result.stdout)
        problem = cover_problem(g.n, inst.masks(), g.m, members, partition=True)
        if problem:
            return Outcome("partition: " + problem)
        if len(members) != inst.mc_complement() - 1:
            return Outcome("partition size %d, expected mc - 1 = %d"
                           % (len(members), inst.mc_complement() - 1))
        return Outcome()
    if kind == "bounds":
        payload = json.loads(result.stdout)
        if (payload["n"], payload["m"]) != (g.n, g.m):
            return Outcome("bounds JSON has n, m = %s, %s" % (payload["n"], payload["m"]))
        members = payload["cover"]["bicliques"]
        problem = cover_problem(g.n, inst.masks(), g.m, members)
        if problem:
            return Outcome("bounds JSON cover: " + problem)
        return Outcome()
    raise ValueError(kind)


def check_cli_dir(names, result):
    if result.returncode != 0:
        return Outcome("exit code %d: %s" % (result.returncode, result.stderr.strip()[-200:]))
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
    if sorted(p.get("file") for p in lines) != sorted(names):
        return Outcome("bounds --dir reported %d files, expected %d" % (len(lines), len(names)))
    for payload in lines:
        if "error" in payload or payload.get("cover") is None:
            return Outcome("bounds --dir: no cover for %s" % payload.get("file"))
    return Outcome()


def plan_cli_files(seed, workdir):
    """Fixed files, each relabelled by a permutation seeded with its size: the
    tail call is one command on one file, so a draw of other files would move
    it.  The seed orders the files."""
    os.makedirs(workdir, exist_ok=True)
    insts = []
    for family, size in CLI_FILES:
        fixed = random.Random(size)
        if family == "copath":
            inst = copath(size, fixed)
        elif family == "caterpillar":
            inst = two_membership(caterpillar_tree(size // 2, size - size // 2),
                                  "caterpillar%d" % size, size)
        else:
            inst = random_cochordal(size, 0.02, size, fixed)
        insts.append(inst)
    random.Random(seed).shuffle(insts)
    ops = []
    names = []
    for index, inst in enumerate(insts):
        path = os.path.join(workdir, "%02d-%s.graph" % (index, inst.name))
        cover_path = path[: -len(".graph")] + ".cover"
        bccover.write_graph(inst.graph, path)
        names.append(os.path.basename(path))
        steps = (
            ("cover", ["cover", path, "-o", cover_path]),
            ("verify", ["verify", path, cover_path]),
            ("partition", ["partition", path]),
            ("bounds", ["bounds", path, "--no-oracle", "--format", "json"]),
        )
        for kind, args in steps:
            ops.append(Op("%s %s" % (kind, inst.name), None,
                          lambda r, inst=inst, kind=kind, cp=cover_path:
                              check_cli(inst, kind, r, cp),
                          argv=list(args)))
    ops.append(Op("bounds --dir", None, lambda r: check_cli_dir(names, r),
                  argv=["bounds", workdir, "--dir", "--no-oracle"]))
    return Plan(ops, insts,
                {"files": CLI_FILES, "random_cochordal_density": 0.02,
                 "fixed": "the files: generator seed and relabelling seed are the "
                          "size; the seed draws the order of the files",
                 "commands": ["cover -o", "verify", "partition",
                              "bounds --no-oracle --format json",
                              "bounds --dir --no-oracle"]},
                workdir=workdir)


PLANS = {
    "cover-copath": plan_cover_copath,
    "cover-random": plan_cover_random,
    "report-oracle": plan_report_oracle,
    "cli-files": plan_cli_files,
}

def child_env():
    """Environment for CLI children: import bccover from this checkout's src."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Runs bccover.cli as ``python -m bccover.cli`` would and, at exit, writes
# the child's peak resident set (VmHWM, kB) to the file named first.  A
# child's ru_maxrss cannot give this: after exec it starts from the parent's
# resident set at fork.
_CHILD = """import atexit, runpy, sys
out = sys.argv.pop(1)
def _peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(out, "w") as fh:
        fh.write(kb)
atexit.register(_peak)
runpy.run_module("bccover.cli", run_name="__main__", alter_sys=True)
"""


def run_cli_child(args, timeout, peak_path):
    """Run ``bccover <args>`` in a child; returns (CompletedProcess, peak kB)."""
    result = subprocess.run([sys.executable, "-c", _CHILD, peak_path, *args],
                            capture_output=True, text=True, timeout=timeout,
                            env=child_env())
    with open(peak_path, encoding="utf-8") as fh:
        return result, int(fh.read())
