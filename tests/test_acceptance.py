"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is exact;
the wall-clock limits are asserted too (they are loose).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bccover import (
    Biclique,
    ceil_log2,
    clique_tree,
    complete_graph,
    cover_cochordal,
    cycle_graph,
    enumerate_maximal_bicliques,
    enumerate_maximal_cliques,
    exact_bc,
    exact_bp,
    find_partition,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
    gen_two_membership_cochordal,
    is_valid_edge_ranking,
    lb_log_chi,
    lb_log_mc,
    lb_matching,
    lb_omega_conflict,
    mis_membership_counts,
    optimal_edge_ranking,
    verify_clique_tree,
    verify_cover,
    verify_partition,
)
from bccover.chordal import CliqueTree
from bccover.gen import caterpillar_tree, path_tree, random_tree, star_tree
from bccover.graph import Graph, mask_vertices, vertex_mask
from bccover.ranking import Tree, neighbor_lists
from helpers import (
    clique_split_biclique,
    enumerate_trees,
    er_graph,
    induced_subgraph,
    naive_optimal_ranks,
)


@contextmanager
def criterion(number, summary, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print("criterion %2d FAIL  %s" % (number, summary))
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, "criterion %d exceeded %ds" % (number, limit_s)
    print("criterion %2d PASS  %-52s (%5.2fs < %ds)"
          % (number, summary, elapsed, limit_s))


def test_criterion_01_copath_exactness():
    with criterion(1, "co-path covers have size ceil(log2(n-1))", 10):
        for n in range(3, 13):
            g = gen_copath(n).graph
            cover, _ = cover_cochordal(g)
            assert verify_cover(g, cover)
            assert len(cover) == ceil_log2(n - 1)
            if n <= 10:
                assert exact_bc(g).value == ceil_log2(n - 1)


def test_criterion_02_fig2_walkthrough():
    with criterion(2, "5-vertex co-path level decomposition and merge", 1):
        g = gen_fig_graph("fig2").graph
        a, b, c, d, e = range(5)
        cover, meta = cover_cochordal(g)
        assert meta.level_sizes_before == {1: 1, 2: 2}
        assert meta.level_sizes_after == {1: 1, 2: 1}
        assert cover[0] == Biclique(frozenset({a, b}), frozenset({d, e}))
        assert cover[1] == Biclique(frozenset({a, e}), frozenset({c}))
        assert len(cover) == 2
        assert verify_cover(g, cover)


def test_criterion_03_fig3_counterexample():
    with criterion(3, "two-rank counterexample needs three bicliques", 5):
        g = gen_fig_graph("fig3").graph
        cover, meta = cover_cochordal(g)
        assert verify_cover(g, cover)
        assert len(cover) == 3
        assert exact_bc(g).value == 3
        counts, flag = mis_membership_counts(g)
        assert flag is False
        assert counts[2] == 3  # vertex c sits in three independent sets


def test_criterion_04_lower_bound_dominance():
    with criterion(4, "log-mc dominates log-chi; named instances", 30):
        rng = random.Random(404)
        for _ in range(500):
            g = er_graph(rng.randrange(1, 13), rng.random(), rng)
            chi_bound, certified = lb_log_chi(g)
            assert certified
            assert lb_log_mc(g) >= chi_bound
        c4c = cycle_graph(4).complement()
        assert lb_log_mc(c4c) == 2
        assert lb_log_chi(c4c) == (1, True)
        assert lb_log_mc(c4c) > lb_log_chi(c4c)[0]
        k5 = complete_graph(5)
        assert lb_log_mc(k5) == 3
        assert lb_omega_conflict(k5) == 2
        assert lb_matching(k5) == Fraction(4, 10)
        ceil_matching = 1
        assert lb_log_mc(k5) > max(lb_omega_conflict(k5), ceil_matching)


def test_criterion_05_log_mc_sandwich():
    with criterion(5, "log-mc lower bound never exceeds exact bc", 300):
        rng = random.Random(505)
        for _ in range(300):
            g = er_graph(rng.randrange(1, 11), rng.random(), rng)
            assert lb_log_mc(g) <= exact_bc(g).value


def test_criterion_06_partition_guarantee():
    with criterion(6, "partitions have size mc(complement) - 1", 60):
        rng = random.Random(606)
        for _ in range(200):
            gc = gen_random_chordal(
                rng.randrange(2, 15), rng.random(), rng.randrange(10**6)
            )
            g = gc.complement()
            tree = clique_tree(gc)
            parts = find_partition(tree)
            assert verify_partition(g, parts)
            assert len(parts) == tree.node_count - 1


def test_criterion_07_edge_ranking_exactness():
    with criterion(7, "optimal ranking matches oracle, paths, stars", 120):
        for n, shapes in enumerate_trees(9).items():
            for tree in shapes:
                _, r = optimal_edge_ranking(tree)
                assert r == naive_optimal_ranks(tree)[1]
        for n in range(2, 18):
            tree = Tree(n, [(i, i + 1) for i in range(n - 1)])
            ranking, r = optimal_edge_ranking(tree)
            assert r == ceil_log2(n)
            assert is_valid_edge_ranking(tree, ranking)
        for m in range(1, 9):
            tree = Tree(m + 1, [(0, i) for i in range(1, m + 1)])
            ranking, r = optimal_edge_ranking(tree)
            assert r == m
            assert is_valid_edge_ranking(tree, ranking)


def _two_membership_instances(count):
    rng = random.Random(808)
    shapes = ["path", "star", "caterpillar", "random"]
    out = []
    for i in range(count):
        kind = shapes[i % 4]
        d = rng.randrange(2, 9)
        if kind == "path":
            tree = path_tree(d)
        elif kind == "star":
            tree = star_tree(d)
        elif kind == "caterpillar":
            spine = max(2, d // 2)
            tree = caterpillar_tree(spine, d - spine)
        else:
            tree = random_tree(d, rng.randrange(10**6))
        mids = [rng.randrange(1, 3) for _ in tree.edges]
        sizes = []
        for node in range(tree.n):
            incident = sum(
                m for e, m in zip(tree.edges, mids) if node in e
            )
            sizes.append(incident + rng.randrange(1, 3))
        out.append(
            gen_two_membership_cochordal(tree, sizes, mids,
                                         seed=rng.randrange(10**6))
        )
    return out


def test_criterion_08_edge_ranking_upper_bound():
    with criterion(8, "cover size bounded by declared tree's ranking", 120):
        for inst in _two_membership_instances(200):
            cover, meta = cover_cochordal(inst.graph)
            assert meta.all_le_two
            assert verify_cover(inst.graph, cover)
            _, r_declared = optimal_edge_ranking(inst.shape)
            assert len(cover) <= r_declared
            for level in range(1, meta.ranking_r + 1):
                assert meta.level_sizes_after[level] == 1


def test_criterion_09_bp_bc_window():
    with criterion(9, "partition/cover window on oracle-solved instances", 300):
        rng = random.Random(909)
        for _ in range(40):
            gc = gen_random_chordal(
                rng.randrange(2, 11), rng.random(), rng.randrange(10**6)
            )
            g = gc.complement()
            bc = exact_bc(g).value
            bp = exact_bp(g).value
            mc = clique_tree(gc).node_count
            assert bc >= ceil_log2(bp + 1)
            assert bp <= mc - 1
        for n in range(2, 9):
            assert exact_bc(complete_graph(n)).value == ceil_log2(n)
            assert exact_bp(complete_graph(n)).value == n - 1


def test_criterion_10_cowindmill():
    with criterion(10, "co-windmill covers hit the log lower bound", 10):
        for m in range(2, 7):
            for k in (2, 3):
                inst = gen_cowindmill(m, k)
                cover, _ = cover_cochordal(inst.graph)
                assert verify_cover(inst.graph, cover)
                assert len(cover) == ceil_log2(m) == lb_log_mc(inst.graph)


def test_criterion_11_lemma_property_suites():
    with criterion(11, "five lemma-level property suites, 200 cases each", 300):
        _suite_clique_split_validity(200)
        _suite_two_cliques_span_an_edge(200)
        _suite_split_biclique_avoids_sides(200)
        _suite_bicliques_extend_to_splits(200)
        _suite_subtrees_are_clique_trees(200)


def _random_graph_with_cliques(rng, min_cliques=2):
    while True:
        g = er_graph(rng.randrange(2, 10), rng.random(), rng)
        cliques = [set(k) for k in enumerate_maximal_cliques(g.complement())]
        if len(cliques) >= min_cliques:
            return g, cliques


def _suite_clique_split_validity(cases):
    rng = random.Random(111)
    for _ in range(cases):
        g, cliques = _random_graph_with_cliques(rng)
        ids = list(range(len(cliques)))
        rng.shuffle(ids)
        cut = rng.randrange(1, len(ids))
        b = clique_split_biclique(cliques, set(ids[:cut]), set(ids[cut:]))
        if b is not None:
            assert g.is_biclique_subgraph(b.left, b.right)


def _suite_two_cliques_span_an_edge(cases):
    rng = random.Random(222)
    for _ in range(cases):
        g, cliques = _random_graph_with_cliques(rng)
        i, j = rng.sample(range(len(cliques)), 2)
        union = sorted(cliques[i] | cliques[j])
        induced, _ = induced_subgraph(g, union)
        assert induced.m >= 1


def _suite_split_biclique_avoids_sides(cases):
    rng = random.Random(333)
    for _ in range(cases):
        g, cliques = _random_graph_with_cliques(rng)
        ids = list(range(len(cliques)))
        rng.shuffle(ids)
        cut = rng.randrange(1, len(ids))
        left_idx, right_idx = set(ids[:cut]), set(ids[cut:])
        b = clique_split_biclique(cliques, left_idx, right_idx)
        if b is None:
            continue
        union_l = set().union(*(cliques[i] for i in left_idx))
        union_r = set().union(*(cliques[j] for j in right_idx))
        for u, v in b.edge_set():
            assert not (u in union_l and v in union_l)
            assert not (u in union_r and v in union_r)


def _suite_bicliques_extend_to_splits(cases):
    rng = random.Random(444)
    done = 0
    while done < cases:
        g, cliques = _random_graph_with_cliques(rng)
        if g.m == 0:
            continue
        bicliques = enumerate_maximal_bicliques(g)
        if not bicliques:
            continue
        b = bicliques[rng.randrange(len(bicliques))]
        left_idx = {i for i, k in enumerate(cliques) if k & set(b.left)}
        right_idx = set(range(len(cliques))) - left_idx
        assert right_idx
        bigger = clique_split_biclique(cliques, left_idx, right_idx)
        assert bigger is not None
        assert b.left <= bigger.left and b.right <= bigger.right
        done += 1


def _suite_subtrees_are_clique_trees(cases):
    rng = random.Random(555)
    done = 0
    while done < cases:
        g = gen_random_chordal(
            rng.randrange(2, 12), rng.random(), rng.randrange(10**6)
        )
        t = clique_tree(g)
        if t.node_count < 2:
            continue
        adj = neighbor_lists(t.node_count, t.edges)
        chosen = {rng.randrange(t.node_count)}
        frontier = set(adj[next(iter(chosen))])
        while frontier and rng.random() < 0.7:
            nxt = rng.choice(sorted(frontier))
            chosen.add(nxt)
            frontier |= set(adj[nxt]) - chosen
            frontier.discard(nxt)
        sub_nodes = sorted(chosen)
        relabel = {old: new for new, old in enumerate(sub_nodes)}
        union = sorted(set().union(*(mask_vertices(t.nodes[i]) for i in chosen)))
        induced, mapping = induced_subgraph(g, union)
        to_new = {orig: i for i, orig in enumerate(mapping)}
        nodes = tuple(
            vertex_mask(to_new[v] for v in mask_vertices(t.nodes[i]))
            for i in sub_nodes
        )
        edges = tuple(sorted(
            (relabel[i], relabel[j])
            for i, j in t.edges
            if i in chosen and j in chosen
        ))
        sub_tree = CliqueTree(nodes, edges)
        assert verify_clique_tree(induced, sub_tree)
        done += 1
