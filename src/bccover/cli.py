"""Command-line front end.

Subcommands: ``bounds``, ``cover``, ``partition``, ``verify``, ``gen``,
``rank``, ``oracle``, ``tree``.  Exit codes are fixed so harnesses can tell
failure classes apart: 1 parse error, 2 inconsistency (a certified bound
crossing, or a cover file that fails verification), 3 precondition failure
(e.g. a non-co-chordal input to ``cover``), 4 budget exhausted.

The ``--vertex-cap``/``--time-cap`` flags of ``bounds`` and ``oracle``
override the default oracle budget.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds as bounds_mod
from . import gen as gen_mod
from .chordal import clique_tree, clique_tree_to_text, complement_clique_tree
from .cover import (
    bicliques_from_text,
    bicliques_to_text,
    cover_cochordal,
    cover_defects,
    cover_to_json_dict,
    find_partition,
    verify_cover,
    verify_partition,
)
from .errors import BudgetExceededError, GraphFormatError, NotChordalError
from .graph import graph_to_text, read_graph, write_graph
from .oracle import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_VALUE_BUDGET,
    OracleBudget,
    exact_bc,
    exact_bp,
    exact_chromatic,
    exact_clique_number,
    exact_max_matching,
)
from .ranking import optimal_edge_ranking, ranking_to_text, read_tree

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INCONSISTENT = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for inconsistency
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


def _cap_override(args, attr):
    """A budget cap from its flag, else None.

    A value that is not positive (NaN included) raises
    :class:`GraphFormatError` naming the flag.
    """
    value = getattr(args, attr, None)
    if value is not None and not value > 0:
        raise GraphFormatError(
            "--%s must be a positive %s, got %r"
            % (attr.replace("_", "-"), type(value).__name__, value)
        )
    return value


def _budget_overrides(args, base):
    vertex = _cap_override(args, "vertex_cap")
    time_cap = _cap_override(args, "time_cap")
    if vertex is None and time_cap is None:
        return base
    vertex = vertex if vertex is not None else base.vertex_cap
    edge = max(base.edge_cap, vertex * (vertex - 1) // 2)
    return OracleBudget(
        vertex_cap=vertex,
        edge_cap=edge,
        time_cap=time_cap if time_cap is not None else base.time_cap,
    )


def _json(payload, indent=None):
    """``payload`` as JSON text with sorted keys.  Only the commands that
    write JSON import :mod:`json`, so the others start without it."""
    import json

    return json.dumps(payload, sort_keys=True, indent=indent)


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- bounds -------------------------------------------------------------------


def _report_text(report):
    lines = ["n: %d  m: %d" % (report.n, report.m), "lower bounds:"]

    def entry_line(label, entry, extra=""):
        if entry is None:
            return "  %-16s -" % label
        return "  %-16s %s%s  [%s]" % (label, entry.value, extra, entry.tag)

    lines.append(entry_line("log-mc:", report.lb_log_mc))
    lines.append(entry_line("log-chi:", report.lb_log_chi))
    lines.append(entry_line("omega-conflict:", report.lb_omega_conflict))
    if report.lb_matching is not None:
        q = report.lb_matching.value
        lines.append(
            "  %-16s %s/%s (ceil %d)  [%s]"
            % (
                "matching:",
                q.numerator,
                q.denominator,
                -(-q.numerator // q.denominator),
                report.lb_matching.tag,
            )
        )
    else:
        lines.append("  matching:        -")
    lines.append("upper bounds:")
    lines.append(entry_line("mc-1:", report.ub_mc_minus_one))
    lines.append(entry_line("ranking:", report.ub_edge_ranking))
    if report.cover is not None:
        meta = report.cover_meta
        lines.append(
            "cover: size %d (ranking r=%d, optimal, all-le-2=%s)"
            % (report.cover_size, meta.ranking_r, meta.all_le_two)
        )
        lines.extend("  " + l for l in bicliques_to_text(report.cover).splitlines())
    bc, bp = report.oracle_bc, report.oracle_bp
    if bc is not None or bp is not None:

        def window(result):
            if result is None:
                return "-"
            return result.upper if result.exact else "[%d,%d]" % (result.lower, result.upper)

        exact = bc is not None and bc.exact and bp is not None and bp.exact
        lines.append(
            "oracle: bc=%s bp=%s%s" % (window(bc), window(bp), "" if exact else " (inexact)")
        )
    if report.bp_window is not None:
        lines.append("bp window: upper %d" % report.bp_window.bp_upper)
    if report.inconsistent:
        lines.append("INCONSISTENT: a certified lower bound crosses an upper bound")
    return "\n".join(lines) + "\n"


def _one_report(path, args, value_budget, search_budget):
    g = read_graph(path)
    report = bounds_mod.full_report(
        g,
        value_budget=value_budget,
        search_budget=search_budget,
        run_oracle=not args.no_oracle,
    )
    return report


def cmd_bounds(args):
    value_budget = _budget_overrides(args, DEFAULT_VALUE_BUDGET)
    search_budget = _budget_overrides(args, DEFAULT_SEARCH_BUDGET)
    if args.dir:
        files = sorted(
            f for f in os.listdir(args.input) if f.endswith(".graph")
        )
        paths = [os.path.join(args.input, f) for f in files]
        worst = EXIT_OK
        out_lines = []
        for path in paths:
            name, payload, code = _safe_report(path, args, value_budget, search_budget)
            payload["file"] = name
            out_lines.append(_json(payload) + "\n")
            worst = max(worst, code)
        _write_output("".join(out_lines), args.out)
        return worst
    report = _one_report(args.input, args, value_budget, search_budget)
    if args.format == "json":
        _write_output(_json(bounds_mod.report_to_json_dict(report)) + "\n", args.out)
    else:
        _write_output(_report_text(report), args.out)
    return EXIT_INCONSISTENT if report.inconsistent else EXIT_OK


def _safe_report(path, args, value_budget, search_budget):
    name = os.path.basename(path)
    try:
        report = _one_report(path, args, value_budget, search_budget)
    except (GraphFormatError, OSError) as exc:
        return name, {"error": str(exc)}, EXIT_PARSE
    payload = bounds_mod.report_to_json_dict(report)
    return name, payload, EXIT_INCONSISTENT if report.inconsistent else EXIT_OK


# -- cover / verify -----------------------------------------------------------


def cmd_cover(args):
    g = read_graph(args.input)
    cover, meta = cover_cochordal(g)
    if not meta.verified:  # checked by the pipeline; write nothing unverified
        print("internal error: produced cover failed verification", file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.format == "json":
        _write_output(_json(cover_to_json_dict(cover, meta)) + "\n", args.out)
    else:
        header = (
            "c cover size %d | mc(complement) %d | ranking r %d (optimal) | all-le-2 %s\n"
            "c levels before merge %s | after %s\n"
            % (
                len(cover),
                meta.mc_complement,
                meta.ranking_r,
                meta.all_le_two,
                [meta.level_sizes_before[k] for k in sorted(meta.level_sizes_before)],
                [meta.level_sizes_after[k] for k in sorted(meta.level_sizes_after)],
            )
        )
        _write_output(header + bicliques_to_text(cover), args.out)
    return EXIT_OK


def cmd_verify(args):
    g = read_graph(args.graph)
    try:
        with open(args.cover_file, "r", encoding="utf-8") as fh:
            bicliques = bicliques_from_text(fh.read(), g.n)
    except (OSError, ValueError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    partition = args.mode == "partition"
    ok = (verify_partition if partition else verify_cover)(g, bicliques)
    if ok:
        print("ok: valid %s with %d bicliques" % (args.mode, len(bicliques)))
        return EXIT_OK
    for problem in cover_defects(g, bicliques, partition=partition):
        print(problem)
    return EXIT_INCONSISTENT


# -- gen ------------------------------------------------------------------


def cmd_gen(args):
    try:
        if args.family == "copath":
            inst = gen_mod.gen_copath(args.n)
        elif args.family == "cowindmill":
            inst = gen_mod.gen_cowindmill(args.m, args.k)
        elif args.family == "fig":
            inst = gen_mod.gen_fig_graph(args.id)
        elif args.family == "random-chordal":
            g = gen_mod.gen_random_chordal(args.n, args.density, args.seed)
            inst = gen_mod.NamedInstance(
                name="random-chordal-%d-%s-%d" % (args.n, args.density, args.seed),
                graph=g,
                labels=tuple("v%d" % i for i in range(g.n)),
                expected={},
                source="seeded random chordal",
            )
        else:  # two-membership
            shape = _shape_tree(args.shape, args.nodes, args.seed)
            inst = gen_mod.gen_two_membership_cochordal(
                shape,
                [args.node_size] * shape.n,
                [args.mid_size] * len(shape.edges),
                seed=args.seed,
            )
    except ValueError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    if args.out:
        write_graph(inst.graph, args.out)
        sidecar = {
            "name": inst.name,
            "labels": list(inst.labels),
            "expected": inst.expected,
            "source": inst.source,
        }
        with open(args.out + ".expected.json", "w", encoding="utf-8") as fh:
            fh.write(_json(sidecar, indent=2) + "\n")
    else:
        sys.stdout.write(graph_to_text(inst.graph))
    return EXIT_OK


def _shape_tree(shape, nodes, seed):
    if shape == "path":
        return gen_mod.path_tree(nodes)
    if shape == "star":
        return gen_mod.star_tree(nodes)
    if shape == "caterpillar":
        spine = max(2, nodes // 2)
        return gen_mod.caterpillar_tree(spine, nodes - spine)
    return gen_mod.random_tree(nodes, seed)


# -- rank / oracle / tree -------------------------------------------------


def cmd_rank(args):
    ranking, r = optimal_edge_ranking(read_tree(args.tree))
    _write_output("r = %d\n" % r + ranking_to_text(ranking), args.out)
    return EXIT_OK


def cmd_oracle(args):
    g = read_graph(args.input)
    search = _budget_overrides(args, DEFAULT_SEARCH_BUDGET)
    value = _budget_overrides(args, DEFAULT_VALUE_BUDGET)
    oracle, budget = {
        "bc": (exact_bc, search),
        "bp": (exact_bp, search),
        "chi": (exact_chromatic, value),
        "matching": (exact_max_matching, value),
        "clique": (exact_clique_number, value),
    }[args.problem]
    try:
        result = oracle(g, budget)
    except BudgetExceededError as exc:
        print("budget: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    if not result.exact:
        text = "%s in [%d, %d] (inexact)\n" % (args.problem, result.lower, result.upper)
    else:
        text = "%s = %d\n" % (args.problem, result.value)
        if args.problem in ("bc", "bp") and result.certificate:
            text += bicliques_to_text(result.certificate)
    _write_output(text, args.out)
    return EXIT_OK if result.exact else EXIT_BUDGET


def cmd_tree(args):
    g = read_graph(args.input)
    _write_output(clique_tree_to_text(clique_tree(g)), args.out)
    return EXIT_OK


def cmd_partition(args):
    g = read_graph(args.input)
    parts = find_partition(complement_clique_tree(g))
    if not verify_partition(g, parts):
        print("internal error: partition failed verification", file=sys.stderr)
        return EXIT_INCONSISTENT
    _write_output(bicliques_to_text(parts), args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="bccover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", "-o", default=None, help="output file (default stdout)")

    def add_caps(p):  # only for the commands that run a budgeted oracle
        p.add_argument("--vertex-cap", type=int, default=None)
        p.add_argument("--time-cap", type=float, default=None)

    p = sub.add_parser("bounds", help="bound report for a graph")
    p.add_argument("input", help="graph file, or a directory with --dir")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--dir", action="store_true", help="batch: analyze every *.graph file, JSONL output")
    add_common(p)
    add_caps(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="biclique cover of a co-chordal graph")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("partition", help="biclique partition of a co-chordal graph")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="verify a cover or partition file")
    p.add_argument("graph")
    p.add_argument("cover_file")
    p.add_argument("--mode", choices=("cover", "partition"), default="cover")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instances")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("copath")
    q.add_argument("--n", type=int, required=True)
    add_common(q)
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("cowindmill")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    add_common(q)
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("fig")
    q.add_argument("--id", required=True)
    add_common(q)
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("random-chordal")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--density", type=float, default=0.5)
    q.add_argument("--seed", type=int, required=True)
    add_common(q)
    q.set_defaults(func=cmd_gen)
    q = gen_sub.add_parser("two-membership")
    q.add_argument("--shape", choices=("path", "star", "caterpillar", "random"), required=True)
    q.add_argument("--nodes", type=int, required=True)
    q.add_argument("--node-size", type=int, default=3)
    q.add_argument("--mid-size", type=int, default=1)
    q.add_argument("--seed", type=int, required=True)
    add_common(q)
    q.set_defaults(func=cmd_gen)

    p = sub.add_parser("rank", help="edge-ranking of a tree file")
    p.add_argument("--tree", required=True)
    add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("oracle", help="exact values by branch and bound; matching is polynomial")
    p.add_argument("problem", choices=("bc", "bp", "chi", "matching", "clique"))
    p.add_argument("input")
    add_common(p)
    add_caps(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tree", help="clique tree of a chordal graph")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=cmd_tree)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print("budget: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except NotChordalError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
