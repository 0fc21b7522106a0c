"""Lower and upper bounds on the biclique cover number, with provenance.

The flagship lower bound is ceil(log2(mc(complement))): the number of maximal
cliques of the complement (equivalently, maximal independent sets of the
graph) forces that many cover members apart.  It always dominates the
chromatic log bound, and on many graphs beats the conflict-graph and matching
bounds too.  :func:`full_report` assembles every applicable bound for one
graph and checks them with one rule: the report is inconsistent when its cover
failed its own check, or when the largest lower end on bc exceeds the smallest
upper end.  The lower ends are the certified lower bounds, the exact bc when
the oracle proved it, and ceil(log2(bp + 1)) when bp is exact on a co-chordal
graph; the upper ends are the certified upper bounds and the exact bc.

Each reported bound carries a provenance tag: "exact" (proven for this graph),
"heuristic" (from an approximation, not certified), or "conditional" (follows
a published recipe whose edge cases keep it out of certified comparisons; the
conflict-graph bound lives here, since its 4-cycle exclusion rule can
overshoot on dense graphs).  The conflict graph itself is built in
:mod:`bccover.oracle` and re-exported here; no oracle search prunes with it.
The bc search's floor is the log-mc bound and, at every node, a greedy
fooling set of the edges still uncovered, which needs no conflict graph.  A
report counts the complement's cliques and indexes the edges at most once
for all readers.
"""

from __future__ import annotations

from ._record import FrozenRecord, Record, setfield
from .chordal import complement_clique_tree
from .cover import cover_cochordal, cover_to_json_dict
from .errors import BudgetExceededError, NotChordalError
from .oracle import (
    DEFAULT_SEARCH_BUDGET,
    DEFAULT_VALUE_BUDGET,
    OracleBudget,
    _check_caps,
    _Facts,
    conflict_graph,
    exact_bc,
    exact_bp,
    exact_chromatic,
    exact_clique_number,
    exact_max_matching,
    greedy_coloring,
)
from .ranking import ceil_log2


def lb_log_mc(g):
    """ceil(log2(mc(complement))); 0 when the complement has one clique.

    mc comes from the complement's clique tree when it is chordal, else by
    enumeration within the default value budget.
    """
    try:
        mc = complement_clique_tree(g).node_count
    except NotChordalError:
        mc = _Facts(g).mc(DEFAULT_VALUE_BUDGET)
    return ceil_log2(mc)


def lb_log_chi(g, budget=None):
    """ceil(log2(chromatic number)) and whether it is certified.

    A colouring search cut short leaves a window [lower, upper] on the
    chromatic number; the value is ceil(log2(upper)), certified when
    ceil(log2(lower)) is the same number.  Falls back to a greedy coloring
    when the exact search is out of budget; the fallback value is reported
    uncertified since greedy only upper-bounds the chromatic number.
    """
    try:
        result = exact_chromatic(g, budget)
        value = ceil_log2(result.upper)
        return value, ceil_log2(result.lower) == value
    except BudgetExceededError:
        return ceil_log2(max(greedy_coloring(g), default=0)), False


def lb_omega_conflict(g, budget=None, _facts=None):
    """Clique number of the conflict graph.

    The budget caps apply to the input graph; the clique search on the
    derived conflict graph (one vertex per input edge) keeps only the time
    cap.
    """
    budget = budget or DEFAULT_VALUE_BUDGET
    _check_caps(g, budget)
    conflict = conflict_graph(g, _facts=_facts)
    if conflict.n == 0:
        return 0
    inner = OracleBudget(
        vertex_cap=max(budget.vertex_cap, conflict.n),
        edge_cap=max(budget.edge_cap, conflict.m, 1),
        time_cap=budget.time_cap,
    )
    return exact_clique_number(conflict, inner).value


def lb_matching(g, budget=None):
    """|maximum matching|^2 / |E| as an exact fraction (0 for no edges)."""
    from fractions import Fraction  # imports decimal; only this bound needs it

    if g.m == 0:
        return Fraction(0)
    matching = exact_max_matching(g, budget).value
    return Fraction(matching * matching, g.m)


class BpBcWindow(FrozenRecord):
    """What is known about the partition number of a co-chordal graph."""

    __slots__ = ("bp_upper", "bc_lower_from_bp")

    def __init__(self, bp_upper, bc_lower_from_bp=None):
        setfield(self, "bp_upper", bp_upper)
        setfield(self, "bc_lower_from_bp", bc_lower_from_bp)


def bp_bc_window(g, bc_value=None, bp_value=None):
    """Partition/cover window for a co-chordal graph.

    ``bp_upper`` is mc(complement) - 1, sharpened to 2**bc - 1 when the exact
    cover number is supplied.  With a known partition number the implied
    cover lower bound ceil(log2(bp + 1)) is returned; :func:`full_report`
    flags a report whose upper ends on bc fall below it.  Raises
    :class:`NotChordalError` when the complement is not chordal.
    """
    return _window(complement_clique_tree(g).node_count, bc_value, bp_value)


def _window(mc, bc_value, bp_value):
    bp_upper = max(0, mc - 1)
    if bc_value is not None:
        bp_upper = min(bp_upper, 2 ** bc_value - 1)
    bc_lower = None if bp_value is None else ceil_log2(bp_value + 1)
    return BpBcWindow(bp_upper, bc_lower)


# -- aggregated report --------------------------------------------------------


class BoundEntry(FrozenRecord):
    __slots__ = ("value", "tag")

    def __init__(self, value, tag):
        setfield(self, "value", value)
        setfield(self, "tag", tag)  # "exact" | "heuristic" | "conditional"


class BoundReport(Record):
    __slots__ = (
        "n", "m", "lb_log_mc", "lb_log_chi", "lb_omega_conflict", "lb_matching",
        "ub_mc_minus_one", "ub_edge_ranking", "cover_size", "cover",
        "cover_meta", "oracle_bc", "oracle_bp", "bp_window", "inconsistent",
    )
    _hidden = ("cover_meta",)

    def __init__(self, n, m, lb_log_mc=None, lb_log_chi=None,
                 lb_omega_conflict=None, lb_matching=None, ub_mc_minus_one=None,
                 ub_edge_ranking=None, cover_size=None, cover=None,
                 cover_meta=None, oracle_bc=None, oracle_bp=None,
                 bp_window=None, inconsistent=False):
        self.n = n
        self.m = m
        self.lb_log_mc = lb_log_mc
        self.lb_log_chi = lb_log_chi
        self.lb_omega_conflict = lb_omega_conflict
        self.lb_matching = lb_matching
        self.ub_mc_minus_one = ub_mc_minus_one
        self.ub_edge_ranking = ub_edge_ranking
        self.cover_size = cover_size
        self.cover = cover
        self.cover_meta = cover_meta
        self.oracle_bc = oracle_bc
        self.oracle_bp = oracle_bp
        self.bp_window = bp_window
        self.inconsistent = inconsistent

    def certified_lower_bounds(self):
        out = []
        for entry in (self.lb_log_mc, self.lb_log_chi):
            if entry is not None and entry.tag == "exact":
                out.append(entry.value)
        if self.lb_matching is not None and self.lb_matching.tag == "exact":
            q = self.lb_matching.value
            out.append(-(-q.numerator // q.denominator))
        return out

    def certified_upper_bounds(self):
        out = []
        for entry in (self.ub_mc_minus_one, self.ub_edge_ranking):
            if entry is not None and entry.tag == "exact":
                out.append(entry.value)
        if self.cover_size is not None:
            out.append(self.cover_size)
        return out


def full_report(g, value_budget=None, search_budget=None, run_oracle=True):
    """Compute every applicable bound for ``g``; failures of individual
    members leave their fields unset instead of aborting the report.

    The cover pipeline runs first: on a co-chordal graph its metadata
    supplies mc(complement) for the log-mc bound, the mc - 1 bound and the
    bp window.  Otherwise mc(complement) comes from enumerating the
    complement's maximal cliques within ``value_budget``, and the oracles
    reuse that count (on a co-chordal graph they make their own).
    """
    value_budget = value_budget or DEFAULT_VALUE_BUDGET
    search_budget = search_budget or DEFAULT_SEARCH_BUDGET
    report = BoundReport(n=g.n, m=g.m)

    facts = _Facts(g)  # shared by the bounds and both oracles
    mc = meta = None
    try:
        cover, meta = cover_cochordal(g)
        mc = meta.mc_complement
        report.cover = cover
        report.cover_meta = meta
        report.cover_size = len(cover)
        report.ub_mc_minus_one = BoundEntry(max(0, mc - 1), "exact")
        # "conditional" when the ranking did not bound this instance
        tag = "exact" if len(cover) <= meta.ranking_r else "conditional"
        report.ub_edge_ranking = BoundEntry(meta.ranking_r, tag)
    except NotChordalError:
        try:
            mc = facts.mc(value_budget)
        except BudgetExceededError:
            pass
    if mc is not None:
        report.lb_log_mc = BoundEntry(ceil_log2(mc), "exact")

    value, certified = lb_log_chi(g, value_budget)
    report.lb_log_chi = BoundEntry(value, "exact" if certified else "heuristic")

    try:
        # published recipe; kept out of certified comparisons (see module doc)
        report.lb_omega_conflict = BoundEntry(
            lb_omega_conflict(g, value_budget, _facts=facts), "conditional"
        )
    except BudgetExceededError:
        pass

    try:
        report.lb_matching = BoundEntry(lb_matching(g, value_budget), "exact")
    except BudgetExceededError:
        pass

    if run_oracle:
        try:
            report.oracle_bc = exact_bc(g, search_budget, _facts=facts)
        except BudgetExceededError:
            pass
        try:
            report.oracle_bp = exact_bp(g, search_budget, _facts=facts)
        except BudgetExceededError:
            pass

    bc, bp = report.oracle_bc, report.oracle_bp
    bc_value = bc.value if bc is not None and bc.exact else None
    bp_value = bp.value if bp is not None and bp.exact else None
    lowers = report.certified_lower_bounds()
    uppers = report.certified_upper_bounds()
    if bc_value is not None:
        lowers.append(bc_value)
        uppers.append(bc_value)
    if meta is not None:
        report.bp_window = _window(mc, bc_value, bp_value)
        if bp_value is not None:
            lowers.append(report.bp_window.bc_lower_from_bp)
    report.inconsistent = (meta is not None and not meta.verified) or bool(
        lowers and uppers and max(lowers) > min(uppers)
    )
    return report


def report_to_json_dict(report):
    """Fixed-schema JSON form of a report."""
    matching = report.lb_matching.value if report.lb_matching else None
    bounds = {
        "log_mc": report.lb_log_mc.value if report.lb_log_mc else None,
        "log_chi": report.lb_log_chi.value if report.lb_log_chi else None,
        "omega_conflict": (
            report.lb_omega_conflict.value if report.lb_omega_conflict else None
        ),
        "matching_num": matching.numerator if matching is not None else None,
        "matching_den": matching.denominator if matching is not None else None,
    }
    cover = None
    if report.cover is not None:
        cover = cover_to_json_dict(report.cover, report.cover_meta)
    oracle = None
    if report.oracle_bc is not None or report.oracle_bp is not None:
        bc = report.oracle_bc
        bp = report.oracle_bp
        oracle = {
            "bc": bc.value if bc is not None and bc.exact else None,
            "bp": bp.value if bp is not None and bp.exact else None,
            "exact": bool(
                bc is not None and bc.exact and bp is not None and bp.exact
            ),
        }
    return {"n": report.n, "m": report.m, "bounds": bounds, "cover": cover,
            "oracle": oracle}
