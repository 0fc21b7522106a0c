import random
from fractions import Fraction

import pytest

import bccover
import bccover.bounds as bounds_module
import bccover.oracle as oracle_module
from bccover import (
    NotChordalError,
    OracleBudget,
    bp_bc_window,
    ceil_log2,
    complete_graph,
    conflict_graph,
    cycle_graph,
    exact_bc,
    exact_bp,
    exact_chromatic,
    full_report,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
    lb_log_chi,
    lb_log_mc,
    lb_matching,
    lb_omega_conflict,
    path_graph,
    report_to_json_dict,
    write_graph,
)
from bccover.cli import main
from bccover.graph import Graph
from bccover.oracle import OracleResult
from helpers import FakeClock, er_graph, first_clique_coloring


def test_lb_log_mc_examples():
    assert lb_log_mc(cycle_graph(4).complement()) == 2
    assert lb_log_mc(complete_graph(5)) == 3
    assert lb_log_mc(Graph(6)) == 0  # complement is complete: one clique
    assert lb_log_mc(Graph(0)) == 0


def test_lb_log_chi_examples():
    assert lb_log_chi(cycle_graph(4).complement()) == (1, True)
    assert lb_log_chi(complete_graph(5)) == (3, True)
    # the 5-vertex co-path needs 3 colors, so the log bound is 2
    fig2 = gen_fig_graph("fig2").graph
    assert exact_chromatic(fig2).value == 3
    assert lb_log_chi(fig2) == (2, True)


def _millisecond_clock():
    clock = FakeClock()
    clock.step = 1e-3
    return clock


def test_lb_log_chi_certifies_a_cut_short_window_of_one_log(monkeypatch):
    # the search is cut short with chi in [5, 8]: every value there has
    # ceil(log2) 3, so 3 is certified
    monkeypatch.setattr(oracle_module, "time", _millisecond_clock())
    g = er_graph(70, 0.2, random.Random(0))
    budget = OracleBudget(70, 10**6, 0.01)
    result = exact_chromatic(g, budget)
    assert (result.lower, result.upper) == (5, 8)
    monkeypatch.setattr(oracle_module, "time", _millisecond_clock())
    assert lb_log_chi(g, budget) == (3, True)


def test_conflict_graph_k5_is_petersen_like():
    cg = conflict_graph(complete_graph(5))
    assert cg.n == 10
    # adjacency is exactly disjointness: 5 choose 2 pairs, 3 disjoint mates each
    assert cg.m == 15
    assert lb_omega_conflict(complete_graph(5)) == 2


def test_conflict_graph_shared_endpoint_never_adjacent():
    cg = conflict_graph(path_graph(3))
    assert cg.n == 2 and cg.m == 0


def test_conflict_graph_c4_opposite_edges_excluded():
    cg = conflict_graph(cycle_graph(4))
    assert cg.n == 4 and cg.m == 0


def test_conflict_graph_fig3_triple():
    g = gen_fig_graph("fig3").graph
    edges = g.edges()
    cg = conflict_graph(g)
    triple = [edges.index(e) for e in [(0, 3), (1, 4), (2, 5)]]  # ad, be, cf
    for i in range(3):
        for j in range(i + 1, 3):
            assert cg.has_edge(triple[i], triple[j])
    assert lb_omega_conflict(g) == 3
    assert exact_bc(g).value == 3  # the conflict bound is tight here


def test_lb_matching_examples():
    assert lb_matching(complete_graph(5)) == Fraction(4, 10)
    assert lb_matching(Graph(7)) == 0
    g3 = gen_fig_graph("fig3").graph
    q = lb_matching(g3)
    assert q == Fraction(9, 6)
    assert -(-q.numerator // q.denominator) == 2


def test_bp_bc_window_complete_graphs():
    for n in range(2, 9):
        bc = exact_bc(complete_graph(n)).value
        bp = exact_bp(complete_graph(n)).value
        assert bp == n - 1 and bc == ceil_log2(n)
        window = bp_bc_window(complete_graph(n), bc_value=bc, bp_value=bp)
        assert window.bp_upper >= bp
        assert window.bc_lower_from_bp == ceil_log2(bp + 1) == bc


def test_bp_bc_window_fig2():
    g = gen_fig_graph("fig2").graph
    window = bp_bc_window(g, bc_value=2)
    assert window.bp_upper == 3  # min(mc - 1, 2^bc - 1) = min(3, 3)


def test_bp_bc_window_copath6_consistent_with_oracle():
    g = gen_copath(6).graph
    bp = exact_bp(g).value
    bc = exact_bc(g).value
    assert (bp, bc) == (3, 3)
    window = bp_bc_window(g, bc_value=bc, bp_value=bp)
    assert window.bp_upper == 4  # mc - 1, tighter than 2^3 - 1
    assert window.bc_lower_from_bp == 2


def test_bp_bc_window_requires_cochordal():
    with pytest.raises(NotChordalError):
        bp_bc_window(cycle_graph(5))


def test_first_clique_coloring_is_proper():
    rng = random.Random(15)
    for _ in range(150):
        g = er_graph(rng.randrange(1, 11), rng.random(), rng)
        colors = first_clique_coloring(g)
        assert all(c >= 1 for c in colors)
        for u, v in g.edges():
            assert colors[u] != colors[v]
        # mc(complement) colors suffice, hence mc(complement) >= chi
        from bccover import enumerate_maximal_cliques

        assert max(colors, default=0) <= len(
            enumerate_maximal_cliques(g.complement())
        )


def test_log_mc_dominates_log_chi():
    rng = random.Random(40)
    for _ in range(200):
        g = er_graph(rng.randrange(1, 11), rng.random(), rng)
        chi_bound, certified = lb_log_chi(g)
        assert certified
        assert lb_log_mc(g) >= chi_bound


def test_full_report_fig1_pair():
    report = full_report(gen_fig_graph("fig1_c4c").graph)
    assert report.lb_log_mc.value == 2
    assert report.lb_log_chi.value == 1
    assert report.lb_log_mc.value > report.lb_log_chi.value
    assert report.oracle_bc.value == 2
    assert not report.inconsistent


def test_full_report_k5():
    report = full_report(complete_graph(5))
    assert report.lb_log_mc.value == 3
    assert report.lb_omega_conflict.value == 2
    assert report.lb_matching.value == Fraction(2, 5)
    ceil_matching = 1
    assert report.lb_log_mc.value > max(
        report.lb_omega_conflict.value, ceil_matching
    )
    assert report.oracle_bc.value == 3 and report.oracle_bp.value == 4
    assert not report.inconsistent


def test_full_report_cowindmill_pins_bc_without_oracle():
    for m in (2, 3, 4, 5):
        report = full_report(gen_cowindmill(m, 3).graph, run_oracle=False)
        assert report.cover_size == report.lb_log_mc.value == ceil_log2(m)
        assert report.oracle_bc is None


def test_full_report_edgeless_graph_all_zero():
    report = full_report(Graph(4))
    assert report.n == 4 and report.m == 0
    assert report.lb_log_mc.value == 0
    assert report.lb_matching.value == 0
    assert report.cover_size == 0
    assert report.oracle_bc.value == 0 and report.oracle_bp.value == 0
    assert not report.inconsistent


def test_full_report_sandwich_on_random_graphs():
    rng = random.Random(3)
    for _ in range(60):
        g = er_graph(rng.randrange(1, 10), rng.random(), rng)
        report = full_report(g)
        assert not report.inconsistent
        bc = report.oracle_bc.value
        lowers = report.certified_lower_bounds()
        uppers = report.certified_upper_bounds()
        if lowers:
            assert max(lowers) <= bc
        if uppers:
            assert bc <= min(uppers)
        # sanity of both sides: a verified cover is never smaller than lb
        if report.cover_size is not None:
            assert report.cover_size >= report.lb_log_mc.value


def test_full_report_cochordal_has_window():
    report = full_report(gen_copath(7).graph)
    assert report.bp_window is not None
    assert report.bp_window.bp_upper >= report.oracle_bp.value
    assert report.ub_mc_minus_one.value == report.cover_meta.mc_complement - 1


def test_report_json_schema():
    payload = report_to_json_dict(full_report(gen_fig_graph("fig3").graph))
    assert set(payload) == {"n", "m", "bounds", "cover", "oracle"}
    assert set(payload["bounds"]) == {
        "log_mc", "log_chi", "omega_conflict", "matching_num", "matching_den",
    }
    assert set(payload["cover"]) == {
        "size", "bicliques", "ranking_r", "ranking_optimal", "all_leq2_flag",
    }
    assert set(payload["oracle"]) == {"bc", "bp", "exact"}
    assert payload["oracle"] == {"bc": 3, "bp": 3, "exact": True}
    assert payload["cover"]["size"] == 3
    assert payload["bounds"]["omega_conflict"] == 3


def test_report_json_non_cochordal_has_null_cover():
    payload = report_to_json_dict(full_report(cycle_graph(5)))
    assert payload["cover"] is None
    assert payload["bounds"]["log_mc"] == ceil_log2(5)


def _give_up(g, budget, _facts=None):
    raise bccover.BudgetExceededError("the search gave up")


def _fixed(value):
    return lambda g, budget, _facts=None: OracleResult(value, value)


def test_bp_above_what_bc_allows_marks_report_inconsistent(monkeypatch, tmp_path):
    # fig3 has bc = 3; an exact bp of 31 would force bc >= ceil(log2(32)) = 5
    monkeypatch.setattr(bounds_module, "exact_bp", _fixed(31))
    g = gen_fig_graph("fig3").graph
    report = full_report(g)
    assert report.oracle_bc.value == 3
    assert report.bp_window.bc_lower_from_bp == 5
    assert report.inconsistent
    path = tmp_path / "fig3.graph"
    write_graph(g, path)
    assert main(["bounds", str(path)]) == 2


def test_bp_runs_when_bc_gives_up(monkeypatch):
    monkeypatch.setattr(bounds_module, "exact_bc", _give_up)
    report = full_report(path_graph(4))
    assert report.oracle_bc is None
    assert report.oracle_bp.value == 2
    assert report.bp_window.bc_lower_from_bp == 2


def test_certified_lower_above_certified_upper_marks_report_inconsistent(
    monkeypatch, tmp_path
):
    # copath-9's cover has 3 members; a matching bound of 7/2 rounds up to 4
    monkeypatch.setattr(bounds_module, "lb_matching", lambda g, budget: Fraction(7, 2))
    g = gen_copath(9).graph
    report = full_report(g, run_oracle=False)
    assert report.cover_meta.verified and report.cover_size == 3
    assert max(report.certified_lower_bounds()) == 4
    assert report.inconsistent
    path = tmp_path / "copath9.graph"
    write_graph(g, path)
    assert main(["bounds", str(path)]) == 2
    assert main(["bounds", str(path), "--no-oracle", "--format", "json"]) == 2


def test_exact_bc_below_a_certified_lower_bound_marks_report_inconsistent(monkeypatch):
    # fig3's complement has 4 maximal cliques, so bc >= 2; an exact bc of 1
    # crosses that and nothing else (bp gives up)
    monkeypatch.setattr(bounds_module, "exact_bc", _fixed(1))
    monkeypatch.setattr(bounds_module, "exact_bp", _give_up)
    report = full_report(gen_fig_graph("fig3").graph)
    assert report.lb_log_mc.value == 2
    assert report.oracle_bp is None
    assert report.inconsistent


def test_exact_bc_above_a_certified_upper_bound_marks_report_inconsistent(monkeypatch):
    # copath-9's verified cover has 3 members, so bc <= 3
    monkeypatch.setattr(bounds_module, "exact_bc", _fixed(9))
    monkeypatch.setattr(bounds_module, "exact_bp", _give_up)
    report = full_report(gen_copath(9).graph)
    assert report.cover_meta.verified and report.cover_size == 3
    assert report.inconsistent


def test_bp_above_what_the_cover_allows_marks_report_inconsistent(monkeypatch, tmp_path):
    # bc is not proved; an exact bp of 31 forces bc >= ceil(log2(32)) = 5,
    # above fig3's verified 3-member cover
    monkeypatch.setattr(bounds_module, "exact_bc", _give_up)
    monkeypatch.setattr(bounds_module, "exact_bp", _fixed(31))
    g = gen_fig_graph("fig3").graph
    report = full_report(g)
    assert report.oracle_bc is None
    assert report.cover_meta.verified and report.cover_size == 3
    assert report.bp_window.bc_lower_from_bp == 5
    assert report.inconsistent
    path = tmp_path / "fig3.graph"
    write_graph(g, path)
    assert main(["bounds", str(path)]) == 2


def _report_calls(monkeypatch, g):
    """How often one default-budget ``full_report`` of ``g`` builds a
    complement, enumerates maximal cliques, lists the edges and indexes
    them by vertex."""
    import bccover.oracle as oracle_module

    calls = dict.fromkeys(("complement", "cliques", "edges", "edges_at"), 0)

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Graph, "complement", "complement")
    count(Graph, "edges", "edges")
    count(oracle_module, "_edges_at", "edges_at")
    for module in (oracle_module, bounds_module):
        if hasattr(module, "enumerate_maximal_cliques"):
            count(module, "enumerate_maximal_cliques", "cliques")
    full_report(g)
    return calls


def test_report_counts_the_complement_cliques_and_indexes_the_edges_once(monkeypatch):
    calls = _report_calls(monkeypatch, er_graph(12, 0.5, random.Random(1)))
    assert calls["complement"] <= 2  # the cover's co-chordality test, then mc
    assert (calls["cliques"], calls["edges"], calls["edges_at"]) == (1, 1, 1)


@pytest.mark.parametrize("g", [gen_copath(12).graph,
                               gen_random_chordal(12, 0.3, 1).complement()],
                         ids=["copath-12", "cochordal-12"])
def test_cochordal_report_keeps_one_independent_clique_count(monkeypatch, g):
    calls = _report_calls(monkeypatch, g)
    assert (calls["edges"], calls["edges_at"]) == (1, 1)
    # the log-mc entry comes from the cover's clique tree; this one
    # enumeration is the oracles' own count, which the report checks that
    # entry against, so it must not drop to 0
    assert calls["cliques"] == 1


def test_report_oracles_match_the_oracles_called_alone():
    from test_report_golden import report_graphs

    budget = bounds_module.DEFAULT_SEARCH_BUDGET
    fitting = [g for g in report_graphs().values()
               if g.n <= budget.vertex_cap and g.m <= budget.edge_cap]
    assert len(fitting) == 27
    for g in fitting:
        report = full_report(g)
        # OracleResult compares lower, upper, certificate and stats
        assert report.oracle_bc == exact_bc(g, budget)
        assert report.oracle_bp == exact_bp(g, budget)
