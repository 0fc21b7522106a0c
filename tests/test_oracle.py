import ast
import json
import pathlib
import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bccover import (
    Biclique,
    BudgetExceededError,
    OracleBudget,
    ceil_log2,
    complete_graph,
    conflict_graph,
    cycle_graph,
    enumerate_maximal_bicliques,
    enumerate_maximal_cliques,
    exact_bc,
    exact_bp,
    exact_chromatic,
    exact_clique_number,
    exact_max_matching,
    full_report,
    gen_copath,
    gen_fig_graph,
    gen_random_chordal,
    lb_omega_conflict,
    path_graph,
    report_to_json_dict,
    verify_cover,
    verify_partition,
)
from bccover.graph import Graph, mask_vertices
from bccover import oracle
from bccover.oracle import DEFAULT_SEARCH_BUDGET, greedy_coloring
from helpers import (
    _reference_eigen_partition_bound,
    _reference_greedy_clique_size,
    er_graph,
    naive_bc,
    naive_bp,
    naive_find_partition,
    naive_maximal_bicliques,
    random_cochordal,
    reference_chromatic,
    reference_conflict_graph,
    reference_exact_bc,
    reference_exact_bp,
    reference_greedy_coloring,
    reference_max_matching,
    reference_branch_options,
    reference_mask_exact_bc,
    reference_maximal_bicliques,
    reference_recursive_chromatic,
    run_python,
)


def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(0, 5, 1.0)
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_cliques(complete_graph(5), OracleBudget(4, 99, 5.0))


@pytest.mark.parametrize("time_cap", [0.0, -1.0, float("nan")])
def test_budget_refuses_a_time_cap_that_is_not_positive(time_cap):
    # a NaN cap was accepted, and no deadline ever passes NaN
    with pytest.raises(ValueError):
        OracleBudget(14, 96, time_cap)


def test_maximal_cliques_examples():
    assert enumerate_maximal_cliques(cycle_graph(4)) == [
        (0, 1), (0, 3), (1, 2), (2, 3),
    ]
    assert enumerate_maximal_cliques(complete_graph(5).complement()) == [
        (0,), (1,), (2,), (3,), (4,),
    ]
    g3c = gen_fig_graph("fig3").graph.complement()
    assert enumerate_maximal_cliques(g3c) == [
        (0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5),
    ]
    assert enumerate_maximal_cliques(Graph(0)) == []


def test_maximal_cliques_match_networkx():
    rng = random.Random(6)
    for _ in range(120):
        g = er_graph(rng.randrange(1, 11), rng.random(), rng)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        ours = enumerate_maximal_cliques(g)
        theirs = sorted(tuple(sorted(c)) for c in nx.find_cliques(h))
        assert ours == theirs


def test_maximal_bicliques_examples():
    g = Graph(2, [(0, 1)])
    assert enumerate_maximal_bicliques(g) == [
        Biclique(frozenset({0}), frozenset({1}))
    ]
    # C4 is itself complete bipartite, so it has exactly one maximal biclique
    assert enumerate_maximal_bicliques(cycle_graph(4)) == [
        Biclique(frozenset({0, 2}), frozenset({1, 3}))
    ]
    fig2 = gen_fig_graph("fig2").graph
    assert Biclique(frozenset({0, 1}), frozenset({3, 4})) in set(
        enumerate_maximal_bicliques(fig2)
    )


def test_maximal_bicliques_match_naive_scan():
    rng = random.Random(44)
    for _ in range(80):
        g = er_graph(rng.randrange(1, 7), rng.random(), rng)
        assert enumerate_maximal_bicliques(g) == naive_maximal_bicliques(g)


def _biclique_cases():
    """The G(12, 0.5) seeds and the co-chordal graphs of the oracle
    benchmark, and 120 seeded G(n, p) with n <= 14."""
    graphs = [er_graph(12, 0.5, random.Random(seed)) for seed in range(20)]
    graphs += [random_cochordal(12, 0.3, seed) for seed in range(40)]
    rng = random.Random(15)
    graphs += [er_graph(rng.randrange(1, 15), rng.random(), rng) for _ in range(120)]
    return graphs


def test_maximal_bicliques_match_subset_scan_in_order():
    # exact_bc's windows and certificates follow this order
    for g in _biclique_cases():
        assert enumerate_maximal_bicliques(g) == reference_maximal_bicliques(g)


def test_maximal_bicliques_read_each_closed_set_once(monkeypatch):
    calls = [0]
    original = Graph.common_neighbors

    def counted(self, side):
        calls[0] += 1
        return original(self, side)

    monkeypatch.setattr(Graph, "common_neighbors", counted)
    for seed in range(20):
        g = er_graph(12, 0.5, random.Random(seed))
        calls[0] = 0
        found = enumerate_maximal_bicliques(g)
        # each maximal biclique has two closed sides, and each closed set is
        # a side of exactly one; a subset scan makes 2 calls per subset
        assert 0 < calls[0] <= 2 * len(found), seed


def test_search_timeout_raises_documented_error():
    # one deadline check per closed set: a 1e-9 s cap fires at the first
    rng = random.Random(1)
    g = Graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14)
                   if rng.random() < 0.4])
    budget = OracleBudget(14, 96, 1e-9)
    with pytest.raises(BudgetExceededError):
        enumerate_maximal_bicliques(g, budget)
    with pytest.raises(BudgetExceededError):
        exact_bc(g, budget)
    report = full_report(g, search_budget=budget)
    assert report.oracle_bc is None


def test_exact_bc_examples():
    assert exact_bc(gen_fig_graph("fig3").graph).value == 3
    for n in range(2, 9):
        assert exact_bc(complete_graph(n)).value == ceil_log2(n)
    for n in range(3, 11):
        assert exact_bc(gen_copath(n).graph).value == ceil_log2(n - 1)
    assert exact_bc(Graph(3)).value == 0
    assert exact_bc(Graph(2, [(0, 1)])).value == 1


def test_bc_and_bp_count_the_complements_cliques_under_the_callers_caps():
    # the log-mc floor lists the cliques of the complement of a graph that
    # the caller's caps admitted; the 20-vertex value budget must not refuse it
    g = gen_copath(22).graph
    budget = OracleBudget(30, 435, 10.0)
    bc = exact_bc(g, budget)
    assert (bc.lower, bc.upper) == (5, 5)  # ceil(log2(21))
    assert verify_cover(g, bc.certificate)
    bp = exact_bp(g, budget)
    assert (bp.lower, bp.upper) == (14, 14)  # ceil(2 (n - 2) / 3)
    assert verify_partition(g, bp.certificate)


def test_exact_bc_certificate_is_a_cover():
    rng = random.Random(3)
    for _ in range(40):
        g = er_graph(rng.randrange(2, 9), rng.random(), rng)
        result = exact_bc(g)
        assert result.exact
        assert verify_cover(g, result.certificate)
        assert len(result.certificate) == result.value


def test_exact_bc_matches_naive_search_over_all_bicliques():
    # justifies restricting the search to maximal bicliques
    rng = random.Random(10)
    for _ in range(40):
        g = er_graph(rng.randrange(1, 6), rng.random(), rng)
        assert exact_bc(g).value == naive_bc(g)


def test_bc_is_not_monotone_under_edge_removal():
    # A cover member that used a deleted edge stops being a biclique, so
    # deleting edges can *raise* the cover number.  Frozen counterexample,
    # confirmed by the naive full search as well as the branch and bound.
    g = Graph(6, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5),
                  (2, 3), (2, 4), (2, 5), (3, 5)])
    sub = Graph(6, [e for e in g.edges() if e != (2, 5)])
    assert exact_bc(g).value == naive_bc(g) == 3
    assert exact_bc(sub).value == naive_bc(sub) == 4


def test_exact_bp_examples():
    for n in range(2, 8):
        assert exact_bp(complete_graph(n)).value == n - 1
    assert exact_bp(Graph(2, [(0, 1)])).value == 1
    assert exact_bp(Graph(4)).value == 0


def test_exact_bp_fig2_value_and_certificate():
    g = gen_fig_graph("fig2").graph
    from bccover import clique_tree, find_partition

    tree_partition = find_partition(clique_tree(g.complement()))
    assert len(tree_partition) == 3  # the constructive route gives mc - 1
    result = exact_bp(g)
    assert result.exact
    assert verify_partition(g, result.certificate)
    # naive set-partition scan pins the true optimum below the tree bound
    assert result.value == naive_bp(g) == 2


def test_exact_bp_matches_naive_partition_scan():
    rng = random.Random(21)
    for _ in range(30):
        g = er_graph(rng.randrange(1, 6), rng.random(), rng)
        assert exact_bp(g).value == naive_bp(g)


def test_exact_bp_matches_naive_on_denser_six_vertex_graphs():
    # the Bell-number scan stays feasible up to ~9 edges
    rng = random.Random(65)
    done = 0
    while done < 12:
        g = er_graph(6, 0.45, rng)
        if not 4 <= g.m <= 9:
            continue
        assert exact_bp(g).value == naive_bp(g)
        done += 1


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_graphs())
def test_exact_bp_matches_edge_tuple_reference(g):
    result = exact_bp(g)
    reference = reference_exact_bp(g)
    assert result.lower <= result.upper
    assert reference.exact and result.exact
    assert result.value == reference.value
    assert len(result.certificate) == result.upper
    assert verify_partition(g, result.certificate)


# bp of the G(12, 0.5) seeds that the edge-tuple search proves within 8 s
GNP12_BP = {0: 7, 3: 6, 9: 7, 10: 8, 11: 6, 12: 7, 17: 7, 18: 7}


def test_exact_bp_proves_every_gnp12_graph():
    for seed in range(20):
        g = er_graph(12, 0.5, random.Random(seed))
        result = exact_bp(g, DEFAULT_SEARCH_BUDGET)
        assert result.exact, seed
        assert len(result.certificate) == result.upper
        assert verify_partition(g, result.certificate)
        assert result.value == GNP12_BP.get(seed, result.value)
        # a count guard, not a clock guard: the verdict must not hang on load
        assert result.stats["stop"] in ("proved", "root")
        assert result.stats["nodes"] <= 2000, (seed, result.stats)


def test_exact_bp_stats():
    result = exact_bp(complete_graph(14))
    assert result.value == 13
    assert result.stats == {"nodes": 0, "pruned": 0, "stop": "root"}
    assert exact_bp(Graph(3)).stats["stop"] == "root"
    assert exact_bc(complete_graph(4)).stats is None


def test_exact_bp_keeps_near_its_time_cap_on_a_dense_graph():
    # 167 of 190 edges: no start partition meets the root bound, the search
    # runs past 30 s (over 900 k nodes) without proving bp, and counting the
    # bicliques through the first node's candidate edges alone takes longer
    # than the cap, so the deadline must reach inside that count
    g = er_graph(20, 0.9, random.Random(0))
    assert g.m == 167
    start = time.monotonic()
    result = exact_bp(g, OracleBudget(20, 190, 0.05))
    assert time.monotonic() - start < 0.5
    assert result.lower <= result.upper
    assert len(result.certificate) == result.upper
    assert verify_partition(g, result.certificate)
    assert result.stats["stop"] == "deadline"


_FIRST_BP_IN_CHILD = """import importlib.abc, json, random, sys, time

class SlowNumpy(importlib.abc.MetaPathFinder):
    # the import of numpy takes at least 0.6 s here, on any machine
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            time.sleep(0.6)
        return None

sys.meta_path.insert(0, SlowNumpy())
from bccover import Graph, OracleBudget, exact_bp
rng = random.Random(8)
g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
               if rng.random() < 0.5])
budget = OracleBudget(14, 96, 0.2)
runs = []
for _ in range(2):
    loaded = "numpy" in sys.modules
    r = exact_bp(g, budget)
    runs.append([loaded, r.lower, r.upper, r.stats])
print(json.dumps(runs))
"""


def test_first_exact_bp_imports_numpy_outside_its_time_cap():
    """The first exact_bp call in a process imports numpy for the root
    inertia bound.  G(12, 0.5) seed 8 proves in 7 nodes in a few ms, far
    inside the 0.2 s cap; an import timed against the cap would cut the
    first search short."""
    first, second = json.loads(run_python(_FIRST_BP_IN_CHILD))
    assert first[0] is False and second[0] is True
    proved = [6, 6, {"nodes": 7, "pruned": 0, "stop": "proved"}]
    assert first[1:] == second[1:] == proved


def test_exact_bc_matches_naive_on_six_vertex_graphs():
    rng = random.Random(66)
    for _ in range(12):
        g = er_graph(6, rng.random(), rng)
        assert exact_bc(g).value == naive_bc(g)


def test_oracle_results_are_deterministic():
    g = gen_fig_graph("fig3").graph
    first = exact_bc(g)
    second = exact_bc(g)
    assert first.certificate == second.certificate
    assert exact_bp(g).certificate == exact_bp(g).certificate
    assert enumerate_maximal_bicliques(g) == enumerate_maximal_bicliques(g)


def test_bp_at_least_bc():
    rng = random.Random(9)
    for _ in range(30):
        g = er_graph(rng.randrange(2, 8), rng.random(), rng)
        assert exact_bp(g).value >= exact_bc(g).value


def test_exact_chromatic_examples():
    assert exact_chromatic(cycle_graph(4).complement()).value == 2
    assert exact_chromatic(complete_graph(5)).value == 5
    assert exact_chromatic(cycle_graph(5)).value == 3
    assert exact_chromatic(Graph(4)).value == 1
    assert exact_chromatic(Graph(0)).value == 0


def test_exact_chromatic_matches_networkx_independent_bound():
    # cross-check against an independent exact computation via complement
    # clique covers is overkill; compare to brute force for small n instead
    rng = random.Random(2)
    for _ in range(40):
        g = er_graph(rng.randrange(1, 8), rng.random(), rng)
        assert exact_chromatic(g).value == _brute_chromatic(g)


def _brute_chromatic(g):
    from itertools import product

    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if set(colors) != set(range(k)):
                continue
            if all(colors[u] != colors[v] for u, v in g.edges()):
                return k
    return g.n


def test_exact_matching_examples():
    assert exact_max_matching(complete_graph(5)).value == 2
    assert exact_max_matching(path_graph(4)).value == 2
    assert exact_max_matching(Graph(3)).value == 0


def _assert_matching(g, pairs, size):
    assert len(pairs) == size and pairs == sorted(pairs)
    assert all(u < v and g.has_edge(u, v) for u, v in pairs)
    ends = [x for pair in pairs for x in pair]
    assert len(set(ends)) == len(ends)


def _assert_matching_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    result = exact_max_matching(g, OracleBudget(max(g.n, 1), max(g.m, 1), 10.0))
    assert result.value == len(nx.max_weight_matching(h, maxcardinality=True))
    _assert_matching(g, result.certificate, result.value)


def test_exact_matching_matches_networkx():
    rng = random.Random(14)
    for _ in range(200):
        g = er_graph(rng.randrange(1, 21), rng.random(), rng)
        _assert_matching_matches_networkx(g)


def _from_networkx(h, rng=None):
    labels = list(h.nodes())
    if rng is not None:
        rng.shuffle(labels)
    index = {x: i for i, x in enumerate(labels)}
    return Graph(len(labels), [tuple(sorted((index[u], index[v]))) for u, v in h.edges()])


def test_exact_matching_through_blossoms():
    # graphs made of odd cycles, each under 40 labellings: without blossom
    # contraction a few percent of the labellings of the joined triangles
    # come out one edge short
    cases = [nx.cycle_graph(k) for k in (3, 5, 7, 9, 11)]
    cases.append(nx.petersen_graph())
    cases += [nx.wheel_graph(k + 1) for k in (5, 7, 9)]  # hub and an odd rim
    for k in range(5):
        # two triangles joined by a path of k inner vertices
        h = nx.Graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        nx.add_path(h, [2] + [6 + i for i in range(k)] + [3])
        cases.append(h)
    # a pentagon and a triangle sharing a vertex, with pendant paths
    cases.append(nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5),
                           (5, 6), (6, 2), (0, 7), (7, 8), (4, 9)]))
    rng = random.Random(7)
    for h in cases:
        for shuffle in range(40):
            _assert_matching_matches_networkx(_from_networkx(h, rng if shuffle else None))


def test_exact_clique_number_examples():
    assert exact_clique_number(complete_graph(6)).value == 6
    assert exact_clique_number(cycle_graph(5)).value == 2
    assert exact_clique_number(Graph(3)).value == 1
    assert exact_clique_number(Graph(0)).value == 0


def _assert_clique_number_matches_enumeration(g, budget=None):
    result = exact_clique_number(g, budget)
    omega = max(map(len, enumerate_maximal_cliques(g, budget)), default=0)
    assert result.exact and result.value == omega
    clique = result.certificate
    assert len(clique) == omega and list(clique) == sorted(set(clique))
    assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:])


@st.composite
def graphs_up_to_25(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return er_graph(n, density, random.Random(seed))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graphs_up_to_25())
def test_exact_clique_number_matches_largest_maximal_clique(g):
    _assert_clique_number_matches_enumeration(g, OracleBudget(25, 300, 10.0))


def test_exact_clique_number_on_conflict_graphs():
    graphs = [gen_copath(n).graph for n in range(6, 15)]
    graphs += [er_graph(12, 0.5, random.Random(seed)) for seed in range(20)]
    for g in graphs:
        # the strict variant (any 4-cycle keeps two edges apart) is sparser
        strict = reference_conflict_graph(g, induced_c4_only=False)
        for conflict in (conflict_graph(g), strict):
            budget = OracleBudget(max(conflict.n, 1), max(conflict.m, 1), 10.0)
            _assert_clique_number_matches_enumeration(conflict, budget)


def test_exact_clique_number_window_on_its_deadline():
    g = gen_copath(14).graph
    conflict = conflict_graph(g)
    omega = exact_clique_number(conflict, OracleBudget(78, 2101, 10.0)).value
    assert omega == 7
    window = exact_clique_number(conflict, OracleBudget(78, 2101, 1e-9))
    assert not window.exact
    assert window.lower <= omega <= window.upper
    assert len(window.certificate) == window.lower
    with pytest.raises(BudgetExceededError):
        window.value
    report = full_report(g, value_budget=OracleBudget(20, 190, 1e-9), run_oracle=False)
    assert report.lb_omega_conflict is None
    assert report_to_json_dict(report)["bounds"]["omega_conflict"] is None


def test_exact_clique_number_lists_no_cliques(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_maximal_cliques called")

    monkeypatch.setattr("bccover.oracle.enumerate_maximal_cliques", refuse)
    assert exact_clique_number(complete_graph(6)).value == 6
    assert exact_clique_number(er_graph(20, 0.5, random.Random(1))).exact


def test_conflict_bound_proves_copath16():
    # the published recipe overshoots bc = 4 here (see ROADMAP item 5); the
    # point is that the default budget now proves it on any machine load
    assert lb_omega_conflict(gen_copath(16).graph) == 8


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_clique_searches_take_no_frame_per_clique_vertex():
    g = complete_graph(200)
    budget = OracleBudget(200, g.m, 60.0)
    limit = sys.getrecursionlimit()
    # 100 frames to spare: far fewer than the 200 of one frame per vertex
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        cliques = enumerate_maximal_cliques(g, budget)
        omega = exact_clique_number(g, budget)
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == [tuple(range(200))]
    assert (omega.value, omega.certificate) == (200, tuple(range(200)))


def test_cochordal_window_theorems():
    from bccover import clique_tree, gen_random_chordal

    rng = random.Random(18)
    for seed in range(25):
        gc = gen_random_chordal(rng.randrange(2, 10), rng.random(), seed + 7)
        g = gc.complement()
        bc = exact_bc(g).value
        bp = exact_bp(g).value
        mc = clique_tree(gc).node_count
        assert bp <= mc - 1
        assert bc >= ceil_log2(bp + 1)


def test_clique_count_matches_tree_node_count_when_chordal():
    from bccover import clique_tree, gen_random_chordal

    for seed in range(40):
        g = gen_random_chordal(2 + seed % 10, (seed % 3) / 2, seed)
        assert len(enumerate_maximal_cliques(g)) == clique_tree(g).node_count


def test_inexact_window_value_raises():
    from bccover import OracleResult

    window = OracleResult(2, 5)
    assert not window.exact
    with pytest.raises(BudgetExceededError):
        window.value


# -- mask searches against the edge-tuple and list searches they replace -----


def _reference_cases():
    """Seeded graphs: two G(n, p) per n <= 12 and p in 0.2, 0.5, 0.8, the
    co-paths on 2-19 vertices, and random co-chordal graphs with n = 12."""
    graphs = []
    for p in (0.2, 0.5, 0.8):
        rng = random.Random(int(p * 10))
        for n in range(1, 13):
            graphs += [er_graph(n, p, rng) for _ in range(2)]
    graphs += [gen_copath(n).graph for n in range(2, 20)]
    graphs += [
        random_cochordal(12, density, seed)
        for density in (0.2, 0.35, 0.5)
        for seed in range(4)
    ]
    return graphs


def test_conflict_graph_matches_pairwise_reference():
    for g in _reference_cases():
        assert conflict_graph(g) == reference_conflict_graph(g)


def test_exact_bc_window_matches_frozenset_reference():
    budget = DEFAULT_SEARCH_BUDGET
    checked = 0
    for g in _reference_cases():
        if g.n > budget.vertex_cap or g.m > budget.edge_cap:
            continue
        result, reference = exact_bc(g), reference_exact_bc(g)
        assert (result.lower, result.upper) == (reference.lower, reference.upper)
        # ties between equally rare edges may pick other members of the
        # same size than the reference did
        assert len(result.certificate) == result.upper
        assert verify_cover(g, result.certificate)
        checked += 1
    assert checked >= 80


def test_matching_and_coloring_match_list_references():
    # most small cases stop at the greedy bounds, so the value oracles also
    # get G(n, p) up to their vertex cap of 20, where the searches branch
    graphs = _reference_cases()
    for p in (0.2, 0.5, 0.8):
        rng = random.Random(int(p * 10) + 100)
        for n in range(13, 21):
            graphs += [er_graph(n, p, rng) for _ in range(3)]
    for g in graphs:
        # Edmonds' algorithm need not find the branching search's first
        # optimum: the windows agree and the certificate is a matching
        result, reference = exact_max_matching(g), reference_max_matching(g)
        assert (result.lower, result.upper) == (reference.lower, reference.upper)
        _assert_matching(g, result.certificate, result.value)
        result, reference = exact_chromatic(g), reference_chromatic(g)
        assert (result.lower, result.upper, result.certificate) == (
            reference.lower, reference.upper, reference.certificate
        )
        assert greedy_coloring(g) == reference_greedy_coloring(g)


def test_conflict_graph_makes_no_pairwise_calls(monkeypatch):
    g, small = gen_copath(40).graph, gen_copath(6).graph
    calls = {"has_edge": 0, "__init__": 0}
    for name in calls:
        original = getattr(Graph, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(Graph, name, counted)
    conflict_graph(g)
    assert calls == {"has_edge": 0, "__init__": 0}
    # the counters do count: the pairwise reference makes both calls
    reference_conflict_graph(small)
    assert calls["has_edge"] > 0 and calls["__init__"] == 1


# -- counted branch options, relabelled bc edges, stacked colouring --------


class _CountedDeadline:
    """A deadline that never fires and counts its checks."""

    def __init__(self):
        self.checks = 0

    def check(self):
        self.checks += 1


def test_capped_count_matches_the_listing():
    rng = random.Random(16)
    for _ in range(200):
        g = er_graph(rng.randrange(2, 11), rng.random(), rng)
        masks = list(g.neighbor_masks())
        for a, b in g.edges():
            for u, v in ((a, b), (b, a)):
                listed = len(list(oracle._bicliques_through(masks, u, v, _CountedDeadline())))
                for cap in (None, 1, listed // 2 or 1, listed, listed + 1):
                    count = oracle._count_through(masks, u, v, cap, _CountedDeadline())
                    assert count == (listed if cap is None else min(cap, listed))


def _bp_reference_cases():
    """The G(12, 0.5) seeds and the co-chordal graphs of the oracle
    benchmark, and 120 seeded G(n, p) with n <= 13 and p <= 0.9: on the
    denser 14-vertex graphs of ``_biclique_cases`` the references take
    seconds each."""
    graphs = [er_graph(12, 0.5, random.Random(seed)) for seed in range(20)]
    graphs += [random_cochordal(12, 0.3, seed) for seed in range(40)]
    rng = random.Random(17)
    graphs += [er_graph(rng.randrange(4, 14), rng.uniform(0.2, 0.9), rng) for _ in range(120)]
    return graphs


def _bp_run(g):
    result = exact_bp(g)
    return result.lower, result.upper, result.certificate, result.stats


def test_exact_bp_matches_the_listing_chooser(monkeypatch):
    graphs = _bp_reference_cases()
    counted = [_bp_run(g) for g in graphs]
    monkeypatch.setattr(oracle, "_branch_options", reference_branch_options)
    for g, run in zip(graphs, counted):
        assert run == _bp_run(g)
        assert run[3]["stop"] in ("root", "proved")


def test_dense_exact_bp_counts_before_it_lists(monkeypatch):
    # a step guard, not a clock guard: the listing chooser takes 0.62 M
    # deadline checks here, one per step of each count and listing, and the
    # counting one 22 k
    checks = [0]
    original = oracle._Deadline.check

    def counted(self):
        checks[0] += 1
        return original(self)

    monkeypatch.setattr(oracle._Deadline, "check", counted)
    result = exact_bp(er_graph(14, 0.9, random.Random(2)))
    assert result.value == 8
    assert result.stats == {"nodes": 39, "pruned": 30, "stop": "proved"}
    assert checks[0] < 200_000


def test_exact_bc_matches_the_per_node_scan():
    for g in _bp_reference_cases():
        result, reference = exact_bc(g), reference_mask_exact_bc(g)
        assert (result.lower, result.upper, result.certificate) == (
            reference.lower, reference.upper, reference.certificate
        )


def test_exact_chromatic_matches_the_recursive_search():
    graphs = [er_graph(12, 0.5, random.Random(seed)) for seed in range(20)]
    rng = random.Random(19)
    graphs += [er_graph(rng.randrange(1, 21), rng.random(), rng) for _ in range(100)]
    for g in graphs:
        result, reference = exact_chromatic(g), reference_recursive_chromatic(g)
        assert (result.lower, result.upper, result.certificate) == (
            reference.lower, reference.upper, reference.certificate
        )


def test_exact_bc_builds_no_conflict_graph(monkeypatch):
    # fig3 has 6 edges: its floor is log-mc, with no conflict graph and no
    # clique search (MCQ starts with a colouring of the whole graph)
    calls = []
    for name in ("conflict_graph", "exact_clique_number", "_colour_order"):
        original = getattr(oracle, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    assert exact_bc(gen_fig_graph("fig3").graph).value == 3
    assert calls == []


def test_exact_chromatic_returns_at_the_clique_floor_without_branching(monkeypatch):
    # the greedy colouring uses 6 colours and omega = 6, but a greedy clique
    # finds only 5; the MCQ floor ends the call before the colouring search,
    # which checks its own deadline at every node
    g = er_graph(13, 0.7, random.Random(4))
    assert max(greedy_coloring(g)) == 6 and _reference_greedy_clique_size(g) == 5
    checked = set()
    original = oracle._Deadline.check

    def check(self):
        checked.add(self)
        return original(self)

    monkeypatch.setattr(oracle._Deadline, "check", check)
    result = exact_chromatic(g)
    assert (result.lower, result.upper) == (6, 6)
    assert len(checked) == 1  # the clique search's deadline alone


def test_exact_chromatic_stops_at_the_first_node_past_its_deadline(monkeypatch):
    # a crown graph (u_i ~ v_j for i != j) numbered u_0, v_0, u_1, v_1, ...:
    # greedy needs 5 colours, omega = chi = 2, and the colouring search finds
    # 2 colours within a few nodes.  The clock stands still until the clique
    # floor is found and then reads past the cap, so the colouring search
    # must stop at its first node; reading the clock every 256th node, it
    # used to run on and prove chi = 2
    g = Graph(10, [(2 * i, 2 * j + 1) for i in range(5) for j in range(5) if i != j])
    assert max(greedy_coloring(g)) == 5
    now = [0.0]
    monkeypatch.setattr(oracle.time, "monotonic", lambda: now[0])
    max_clique = oracle._max_clique

    def clique_then_late(masks, deadline):
        found = max_clique(masks, deadline)
        now[0] = 100.0  # past the default 10 s cap
        return found

    monkeypatch.setattr(oracle, "_max_clique", clique_then_late)
    result = exact_chromatic(g)
    assert (result.lower, result.upper) == (2, 5)
    assert result.certificate == tuple(greedy_coloring(g))


def test_exact_chromatic_keeps_one_time_cap_for_both_searches():
    # G(300, 0.5) under a 1 s cap: the clique floor and the colouring search
    # share that second, and the colouring search gets its part of it (a
    # fresh second after the floor took 2 s in all)
    g = er_graph(300, 0.5, random.Random(1))
    start = time.monotonic()
    result = exact_chromatic(g, OracleBudget(300, g.m, 1.0))
    assert time.monotonic() - start < 1.8
    assert not result.exact
    assert result.lower >= 11  # the greedy clique's size
    assert result.upper < max(greedy_coloring(g))
    assert max(result.certificate) == result.upper


def test_exact_chromatic_takes_no_frame_per_vertex():
    # an odd cycle: the greedy colouring uses 3 colours and the search
    # colours all 301 vertices with 2 before it fails
    g = cycle_graph(301)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        result = exact_chromatic(g, OracleBudget(301, 301, 60.0))
        with pytest.raises(RecursionError):
            reference_recursive_chromatic(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.lower, result.upper) == (3, 3)


def _complete_bipartite(a, b, isolated=0):
    return Graph(a + b + isolated, [(u, a + v) for u in range(a) for v in range(b)])


def test_inertia_on_near_singular_graphs():
    def inertia(g):
        return oracle._inertia(list(g.neighbor_masks()))

    # K_{a,b} has eigenvalues +-sqrt(ab) and a + b - 2 zeros
    for a, b in [(1, 1), (1, 5), (2, 3), (4, 4), (3, 7)]:
        assert inertia(_complete_bipartite(a, b)) == 1
    # isolated vertices add zero rows and columns
    assert inertia(_complete_bipartite(2, 3, isolated=4)) == 1
    assert inertia(Graph(6, [(0, 1), (1, 2), (0, 2)])) == 2  # 2, -1, -1
    assert inertia(Graph(5)) == 0
    # co-paths are eigensharp: inertia = bp = ceil(2(n - 2) / 3)
    for n in range(4, 17):
        assert inertia(gen_copath(n).graph) == -(-2 * (n - 2) // 3), n


def test_inertia_beyond_one_machine_word():
    def inertia(g):
        return oracle._inertia(list(g.neighbor_masks()))

    assert inertia(_complete_bipartite(40, 41, isolated=3)) == 1
    assert inertia(gen_copath(100).graph) == 66
    rng = random.Random(20)
    for n in (63, 64, 65, 72, 130):
        g = er_graph(n, 0.3, rng)
        assert inertia(g) == _reference_eigen_partition_bound(g)


def test_gf2_rank_examples():
    def rank(g):
        return oracle._gf2_rank(list(g.neighbor_masks()))

    # J - I is its own inverse over GF(2) when n is even; when n is odd its
    # rows sum to zero
    for n in range(1, 9):
        assert rank(complete_graph(n)) == n - n % 2
    assert rank(_complete_bipartite(3, 4, isolated=2)) == 2
    assert rank(Graph(5)) == 0
    assert rank(gen_copath(5).graph) == 4


@st.composite
def graphs_up_to_130_vertices(draw):
    n = draw(st.integers(min_value=1, max_value=130))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return er_graph(n, p, random.Random(draw(st.integers(0, 2**32))))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(graphs_up_to_130_vertices())
def test_gf2_rank_floor_is_below_the_inertia(g):
    # an odd minor is a nonzero integer, so the GF(2) rank is at most the
    # real rank, n+ + n-
    masks = list(g.neighbor_masks())
    assert (oracle._gf2_rank(masks) + 1) // 2 <= oracle._inertia(masks)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_graphs())
def test_twin_partition_is_a_partition(g):
    assert verify_partition(g, oracle._twin_partition(list(g.neighbor_masks())))


WITHOUT_TWIN_START = pathlib.Path(__file__).parent / "data" / "exact_bp_without_twin_start.json"


def test_exact_bp_without_the_twin_start_keeps_its_search(monkeypatch):
    """With the twin start replaced by the clique-tree start it had before,
    the balanced clique-tree partition (``naive_find_partition``, member for
    member what ``find_partition`` gave then) when the complement is
    chordal, else one member per edge (never fewer than the stars),
    exact_bp gives on every reference case the window, certificate and
    stats pinned in ``data/exact_bp_without_twin_start.json`` from the
    search before the twin start and the GF(2) pre-prune: the pre-prune
    changes no prune decision."""
    from bccover import NotChordalError, clique_tree

    def tree_start(masks):
        try:
            return naive_find_partition(clique_tree(Graph._from_masks(masks).complement()))
        except NotChordalError:
            return [Biclique._from_masks(1 << u, 1 << v)
                    for u, mask in enumerate(masks) for v in mask_vertices(mask) if u < v]

    monkeypatch.setattr(oracle, "_twin_partition", tree_start)
    pinned = json.loads(WITHOUT_TWIN_START.read_text())
    graphs = _bp_reference_cases()
    assert len(pinned) == len(graphs)
    for g, (lower, upper, certificate, stats) in zip(graphs, pinned):
        result = exact_bp(g)
        sides = [[mask_vertices(b._left), mask_vertices(b._right)] for b in result.certificate]
        assert [result.lower, result.upper, sides, result.stats] == [
            lower, upper, certificate, stats
        ]


def test_exact_bp_lists_the_complement_cliques_only_past_the_inertia(monkeypatch):
    # on copath-9 the start partition meets the inertia bound, so the
    # ceil(log2 mc) bound, which cannot exceed bp, is never needed
    calls = []
    enumerate_cliques = oracle.enumerate_maximal_cliques
    monkeypatch.setattr(oracle, "enumerate_maximal_cliques",
                        lambda *args: calls.append(1) or enumerate_cliques(*args))
    result = exact_bp(gen_copath(9).graph)
    assert result.exact and result.stats["stop"] == "root"
    assert calls == []


def test_exact_bp_does_not_run_the_construction_it_checks():
    """The oracle's start partitions read the graph alone: ``oracle.py``
    imports nothing from ``.chordal`` and only ``Biclique`` from ``.cover``."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {
        node.module: sorted(alias.name for alias in node.names)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert "chordal" not in imported
    assert imported["cover"] == ["Biclique"]


def _eigensharp_cases():
    """The co-chordal graphs of the bp measurements: complements of random
    chordal graphs with 6 to 14 vertices, and the co-paths on 4 to 15."""
    graphs = [gen_random_chordal(n, d, s).complement()
              for n in range(6, 15) for d in (0.1, 0.2, 0.35, 0.5, 0.7) for s in range(12)]
    return graphs + [gen_copath(n).graph for n in range(4, 16)]


def test_exact_bp_stops_at_the_root_on_cochordal_graphs():
    graphs = _eigensharp_cases()
    assert len(graphs) == 552
    roots = 0
    for g in graphs:
        result = exact_bp(g, OracleBudget(15, 96, 10.0))
        assert result.exact
        assert verify_partition(g, result.certificate)
        roots += result.stats["stop"] == "root"
    assert roots >= 550


# -- one deadline rule --------------------------------------------------------


class _Clock:
    """Stands in for the ``time`` module: ``monotonic`` stands still until
    ``race`` is called, and from then on each read is past any deadline
    set before it.  ``raced_reads`` counts the reads since."""

    def __init__(self):
        self.now = 0.0
        self.step = 0.0
        self.raced_reads = 0

    def monotonic(self):
        self.now += self.step
        self.raced_reads += self.step > 0
        return self.now

    def race(self):
        self.step = 1e9


def test_counts_and_listings_stop_at_their_first_check_past_the_deadline(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(oracle, "time", clock)
    masks = list(er_graph(10, 0.7, random.Random(0)).neighbor_masks())
    u, v = next((u, v) for u in range(10) for v in range(10) if masks[u] >> v & 1)
    deadline = oracle._Deadline(1.0)
    deadline.check()  # the clock stands still: not past the deadline
    assert oracle._count_through(masks, u, v, None, deadline) > 1
    assert len(list(oracle._bicliques_through(masks, u, v, deadline))) > 1
    clock.race()
    with pytest.raises(oracle._Timeout):
        oracle._count_through(masks, u, v, None, deadline)
    with pytest.raises(oracle._Timeout):
        next(oracle._bicliques_through(masks, u, v, deadline))


def test_exact_bc_search_stops_at_its_first_check_past_the_deadline(monkeypatch):
    # the clock passes every deadline once the bicliques are listed, so the
    # search itself ends at its first check, on the greedy cover
    g = er_graph(12, 0.5, random.Random(2))
    assert exact_bc(g).value == 6
    facts = oracle._Facts(g)
    lb = ceil_log2(facts.mc())
    clock = _Clock()
    monkeypatch.setattr(oracle, "time", clock)
    listing = oracle.enumerate_maximal_bicliques

    def listed_then_race(*args):
        found = listing(*args)
        clock.race()
        return found

    monkeypatch.setattr(oracle, "enumerate_maximal_bicliques", listed_then_race)
    result = exact_bc(g, _facts=facts)
    assert clock.raced_reads == 2  # the search's deadline, then its first check
    assert result.lower == lb < 6 < result.upper
    assert verify_cover(g, result.certificate)
