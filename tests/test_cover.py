import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import bccover
import bccover.cover as cover_module
from bccover import (
    Biclique,
    CliqueTree,
    EdgeRanking,
    NotChordalError,
    Tree,
    bfs_leaf_order,
    bicliques_from_text,
    bicliques_to_text,
    ceil_log2,
    clique_tree,
    complete_graph,
    cover_cochordal,
    cycle_graph,
    enumerate_maximal_bicliques,
    enumerate_maximal_cliques,
    find_biclique_levels,
    find_partition,
    full_report,
    gen_copath,
    gen_fig_graph,
    gen_random_chordal,
    heuristic_edge_ranking,
    is_valid_edge_ranking,
    join_clique_forest,
    max_weight_clique_tree,
    merge_bicliques,
    optimal_edge_ranking,
    verify_clique_tree,
    verify_cover,
    verify_partition,
    write_graph,
)
from bccover.cli import main
from bccover.chordal import clique_membership_counts, complement_clique_tree
from bccover.cover import cover_defects
from bccover.gen import (
    caterpillar_tree,
    gen_cowindmill,
    gen_two_membership_cochordal,
    random_tree,
    star_tree,
    windmill_graph,
)
from bccover.graph import Graph
from helpers import (
    clique_split_biclique,
    induced_subgraph,
    naive_biclique_levels,
    naive_clique_membership_counts,
    naive_cover_defects,
    naive_max_weight_clique_tree,
    naive_merge_bicliques,
    naive_verify_cover,
    naive_verify_partition,
    random_cochordal,
    vertex_set,
)
from test_acceptance import _two_membership_instances


def B(left, right):
    return Biclique(frozenset(left), frozenset(right))


def test_biclique_validation_and_equality():
    with pytest.raises(ValueError):
        B([], [1])
    with pytest.raises(ValueError):
        B([1], [1, 2])
    assert B([1], [2]) == B([2], [1])
    assert B([1], [2]) != B([1], [3])
    assert len({B([1], [2]), B([2], [1])}) == 1
    assert B([5], [0]).canonical().left == frozenset({0})
    with pytest.raises(ValueError):
        B([-1], [2])  # a vertex mask holds no negative vertex


def test_clique_split_on_c4_cliques():
    # complement of the 2K2 graph is C4; its maximal cliques are the 4 edges
    cliques = [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
    b = clique_split_biclique(cliques, {0, 1}, {2, 3})
    assert b == B([1], [3])


def test_clique_split_on_singletons_of_complete_graph():
    cliques = [{i} for i in range(5)]
    b = clique_split_biclique(cliques, {0, 1}, {2, 3, 4})
    assert b == B([0, 1], [2, 3, 4])


def test_clique_split_fig2_walkthrough():
    cliques = [{0, 1}, {1, 2}, {2, 3}, {3, 4}]  # {ab},{bc},{cd},{de}
    b = clique_split_biclique(cliques, {0, 1}, {2, 3})
    assert b == B([0, 1], [3, 4])  # {a,b} vs {d,e}
    g = gen_fig_graph("fig2").graph
    assert g.is_biclique_subgraph(b.left, b.right)


def test_clique_split_empty_side_returns_none():
    assert clique_split_biclique([{0, 1}, {0, 1, 2}], {0}, {1}) is None


def test_clique_split_rejects_bad_partition():
    cliques = [{0}, {1}, {2}]
    with pytest.raises(ValueError):
        clique_split_biclique(cliques, {0}, {1})  # misses index 2
    with pytest.raises(ValueError):
        clique_split_biclique(cliques, set(), {0, 1, 2})
    with pytest.raises(ValueError):
        clique_split_biclique(cliques, {0, 1}, {1, 2})


def test_find_partition_fig2():
    g = gen_fig_graph("fig2").graph
    parts = find_partition(clique_tree(g.complement()))
    assert parts == [B([0, 1], [3, 4]), B([0], [2]), B([2], [4])]
    assert verify_partition(g, parts)


def test_find_partition_complete_graphs():
    for n in range(2, 9):
        g = complete_graph(n)
        parts = find_partition(clique_tree(g.complement()))
        assert len(parts) == n - 1
        assert verify_partition(g, parts)


def test_find_partition_single_node_tree():
    g = complete_graph(4).complement()  # edgeless; complement one clique
    assert find_partition(clique_tree(g.complement())) == []


def test_find_partition_deep_tree_does_not_recurse():
    # the clique tree of a star is a star; every edge of an optimal ranking
    # of a star has its own rank, so the cuts nest 1099 deep
    parts = find_partition(clique_tree(windmill_graph(1100, 2)))
    assert len(parts) == 1099


def test_construction_runs_without_the_heuristic_ranking(monkeypatch, tmp_path, capsys):
    # partitions and covers both cut along the optimal ranking: with every
    # binding of heuristic_edge_ranking refusing to run, all still succeed
    def refuse(tree):
        raise RuntimeError("heuristic_edge_ranking was called")

    bound = [name for name, module in list(sys.modules.items())
             if name.split(".")[0] == "bccover"
             and getattr(module, "heuristic_edge_ranking", None) is heuristic_edge_ranking]
    assert "bccover.ranking" in bound
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "heuristic_edge_ranking", refuse)
    for g in (gen_fig_graph("fig2").graph, gen_copath(30).graph,
              _cochordal_with_split_complement(6, 7, 0.4, 3)):
        tree = clique_tree(g.complement())
        parts = find_partition(tree)
        assert len(parts) == tree.node_count - 1 and verify_partition(g, parts)
        assert cover_cochordal(g)[1].verified
        path = tmp_path / "g.graph"
        write_graph(g, path)
        assert main(["partition", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(parts)


def test_find_partition_random_cochordal():
    rng = random.Random(17)
    for seed in range(60):
        gc = gen_random_chordal(rng.randrange(2, 12), rng.random(), seed)
        g = gc.complement()
        tree = clique_tree(gc)
        parts = find_partition(tree)
        assert len(parts) == tree.node_count - 1
        assert verify_partition(g, parts)


def fig2_setup():
    g = gen_fig_graph("fig2").graph
    tree = clique_tree(g.complement())
    ranking = EdgeRanking({(0, 1): 1, (1, 2): 2, (2, 3): 1})
    return g, tree, ranking


def _pairs(items):
    """The ``(biclique, ord)`` projection of level items."""
    return [item[:2] for item in items]


def _merge_items(g, pairs):
    """Merge items for hand-made ``(biclique, ord)`` pairs, with the sides'
    common neighbourhoods read from ``g``."""
    return [
        (b, o, g.common_neighbors(b._left), g.common_neighbors(b._right))
        for b, o in pairs
    ]


def test_find_biclique_levels_fig2():
    g, tree, ranking = fig2_setup()
    levels = find_biclique_levels(tree, ranking)
    assert set(levels) == {1, 2}
    assert _pairs(levels[1]) == [(B([0, 1], [3, 4]), 1)]
    assert _pairs(levels[2]) == [(B([0], [2]), 1), (B([2], [4]), 3)]
    flattened = [item[0] for items in levels.values() for item in items]
    assert verify_partition(g, flattened)


def test_find_biclique_levels_single_node():
    tree = clique_tree(Graph(3))  # edgeless graph: one clique per vertex?
    # a complete graph's complement-side tree: use K3 itself (single clique)
    tree = clique_tree(complete_graph(3))
    assert find_biclique_levels(tree, EdgeRanking({})) == {}


def test_find_biclique_levels_fig3():
    g = gen_fig_graph("fig3").graph
    tree = clique_tree(g.complement())
    ranking = EdgeRanking({(0, 1): 1, (1, 2): 2, (2, 3): 1})
    levels = find_biclique_levels(tree, ranking)
    assert _pairs(levels[1]) == [(B([0, 1], [4, 5]), 1)]
    assert _pairs(levels[2]) == [(B([0], [3]), 1), (B([2], [5]), 3)]


def test_find_biclique_levels_rejects_invalid_ranking():
    _, tree, _ = fig2_setup()
    bad = EdgeRanking({(0, 1): 1, (1, 2): 1, (2, 3): 2})
    with pytest.raises(ValueError):
        find_biclique_levels(tree, bad)


def test_find_biclique_levels_joins_a_forest_itself():
    # K3,3: the complement is two triangles, so its clique tree is a forest
    # of two nodes; the positions and r come from the joined tree
    g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    forest = clique_tree(g.complement())
    assert forest.node_count == 2 and forest.edges == ()
    work = join_clique_forest(forest)
    ranking, r = optimal_edge_ranking(Tree(work.node_count, work.edges))
    levels = find_biclique_levels(forest, ranking)
    assert levels == find_biclique_levels(work, ranking)
    pairs = {level: _pairs(items) for level, items in levels.items()}
    assert pairs == naive_biclique_levels(work, ranking, bfs_leaf_order(work), r)
    assert pairs == {1: [(B([0, 1, 2], [3, 4, 5]), 1)]}


def _cochordal_with_split_complement(a, b, density, seed):
    """Complement of two random chordal graphs side by side: the clique
    tree of its complement is a forest of two trees."""
    h1 = gen_random_chordal(a, density, seed)
    h2 = gen_random_chordal(b, density, seed + 1)
    edges = list(h1.edges()) + [(u + a, v + a) for u, v in h2.edges()]
    return Graph(a + b, edges).complement()


def _sides(bicliques):
    return [(b.left, b.right) for b in bicliques]


def test_partitions_and_levels_match_cut_loop_reference():
    # the rank-ordered sweep against the top-down cut loop: the partition is
    # the loop's levels of the joined tree along its optimal ranking,
    # flattened level 1 first and each level in BFS order, with the same
    # sides; and the same (biclique, ord) items per level
    rng = random.Random(10)
    graphs = [gen_copath(n).graph for n in range(3, 61)]
    for k in range(200):
        density = rng.random()
        if k % 4 == 0:
            graphs.append(_cochordal_with_split_complement(
                rng.randrange(1, 20), rng.randrange(1, 20), density, k))
        else:
            graphs.append(random_cochordal(rng.randrange(2, 40), density, k))
    forests = 0
    for g in graphs:
        base = clique_tree(g.complement())
        joined = join_clique_forest(base)
        forests += len(joined.edges) > len(base.edges)
        ranking, r = optimal_edge_ranking(Tree(joined.node_count, joined.edges))
        want = naive_biclique_levels(base, ranking, bfs_leaf_order(joined), r)
        flattened = [b for level in sorted(want)
                     for b, _ in sorted(want[level], key=lambda item: item[1])]
        assert _sides(find_partition(base)) == _sides(flattened)
        tree = max_weight_clique_tree(base.nodes)
        work = join_clique_forest(tree)
        if work.node_count < 2:
            continue
        order = bfs_leaf_order(work)
        shape = Tree(work.node_count, work.edges)
        for ranking, r in (optimal_edge_ranking(shape),
                           heuristic_edge_ranking(shape)):
            levels = find_biclique_levels(tree, ranking)
            want = naive_biclique_levels(tree, ranking, order, r)
            assert sorted(levels) == sorted(want)
            for level, items in want.items():
                items = sorted(items, key=lambda item: item[1])
                assert [(b.left, b.right, o) for b, o in _pairs(levels[level])] == [
                    (b.left, b.right, o) for b, o in items
                ]
    assert forests >= 40


def test_find_biclique_levels_rejects_exactly_the_invalid_rankings():
    rng = random.Random(11)
    valid = invalid = 0
    for seed in range(120):
        g = random_cochordal(rng.randrange(3, 10), rng.random(), seed)
        work = join_clique_forest(clique_tree(g.complement()))
        if work.node_count < 2:
            continue
        shape = Tree(work.node_count, work.edges)
        for _ in range(6):
            ranking = EdgeRanking({e: rng.randint(1, 3) for e in work.edges})
            if is_valid_edge_ranking(shape, ranking):
                valid += 1
                levels = find_biclique_levels(work, ranking)
                assert sum(map(len, levels.values())) == len(work.edges)
            else:
                invalid += 1
                with pytest.raises(ValueError):
                    find_biclique_levels(work, ranking)
    assert valid >= 100 and invalid >= 100


def test_find_biclique_levels_rejects_malformed_ranks():
    # ValueError, never KeyError or TypeError
    _, tree, _ = fig2_setup()
    for ranks in (
        {(0, 1): 1, (1, 2): 2},  # (2, 3) has no rank
        {(0, 1): 0, (1, 2): 2, (2, 3): 1},
        {(0, 1): 1, (1, 2): 1.5, (2, 3): 1},
        {(0, 1): 1, (1, 2): "2", (2, 3): 1},
    ):
        with pytest.raises(ValueError):
            find_biclique_levels(tree, EdgeRanking(ranks))


def test_sweep_guards_run_under_optimize():
    # the sweep's ranking check and the cover's own check are not asserts
    script = (
        "import sys\n"
        "from bccover import (EdgeRanking, clique_tree, cover_cochordal,\n"
        "    find_biclique_levels, gen_copath, gen_fig_graph)\n"
        "print(sys.flags.optimize)\n"
        "tree = clique_tree(gen_fig_graph('fig2').graph.complement())\n"
        "bad = EdgeRanking({(0, 1): 1, (1, 2): 1, (2, 3): 2})\n"
        "try:\n"
        "    find_biclique_levels(tree, bad)\n"
        "    print('accepted')\n"
        "except ValueError:\n"
        "    print('rejected')\n"
        "print(cover_cochordal(gen_copath(40).graph)[1].verified)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bccover.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "rejected", "True"]


def test_level_items_carry_their_sides_common_neighbourhoods():
    # the masks the sweep reads off the tree are the graph's, on the MCS
    # sweep's tree and on the rebuilt one, over co-paths, complements of
    # random chordal graphs, co-windmills and a split complement (a forest)
    graphs = [gen_copath(n).graph for n in range(2, 120)]
    for n in (1, 2, 5, 10, 30, 60, 100):
        for density in (0.05, 0.1, 0.3, 0.5, 0.9):
            graphs += [gen_random_chordal(n, density, s).complement() for s in range(8)]
    graphs += [
        gen_cowindmill(m, k).graph
        for m, k in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3),
                     (6, 3), (7, 2), (8, 3), (3, 5), (9, 2), (12, 3))
    ]
    graphs.append(_cochordal_with_split_complement(12, 9, 0.4, 1))
    assert len(graphs) == 412
    items = 0
    for g in graphs:
        base = complement_clique_tree(g)
        for tree in (base, max_weight_clique_tree(base.nodes)):
            work = join_clique_forest(tree)
            if work.node_count < 2:
                continue
            ranking, _ = optimal_edge_ranking(work)
            for level in find_biclique_levels(work, ranking).values():
                for b, _, common_left, common_right in level:
                    assert common_left == g.common_neighbors(b._left)
                    assert common_right == g.common_neighbors(b._right)
                    items += 1
    assert items > 8000


def test_cover_reads_no_common_neighbourhood_from_the_graph(monkeypatch):
    calls = []
    common = Graph.common_neighbors
    monkeypatch.setattr(
        Graph, "common_neighbors", lambda self, side: calls.append(1) or common(self, side)
    )
    cover, meta = cover_cochordal(gen_copath(150).graph)
    assert meta.verified and len(cover) == ceil_log2(149)
    assert calls == []


def test_cover_calls_each_traced_stage_by_its_module_name(monkeypatch):
    # the benchmark's tracer wraps these names in bccover.cover: one cover
    # ranks once, cuts once and merges once per level
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("optimal_edge_ranking", "find_biclique_levels", "merge_bicliques"):
        monkeypatch.setattr(cover_module, name, counted(name, getattr(cover_module, name)))
    cover, meta = cover_cochordal(gen_copath(40).graph)
    assert meta.verified and meta.ranking_r == ceil_log2(39)
    assert calls == {"optimal_edge_ranking": 1, "find_biclique_levels": 1,
                     "merge_bicliques": meta.ranking_r}


def test_merge_fig2_level_two():
    g = gen_fig_graph("fig2").graph
    merged = merge_bicliques(_merge_items(g, [(B([0], [2]), 1), (B([2], [4]), 3)]))
    assert merged == [B([0, 4], [2])]  # {a,e} vs {c}


def test_merge_single_element_unchanged():
    g = gen_fig_graph("fig2").graph
    assert merge_bicliques(_merge_items(g, [(B([0], [2]), 1)])) == [B([0], [2])]
    assert merge_bicliques([]) == []


def test_merge_fig3_level_two_does_not_collapse():
    g = gen_fig_graph("fig3").graph
    merged = merge_bicliques(_merge_items(g, [(B([0], [3]), 1), (B([2], [5]), 3)]))
    assert len(merged) == 2


def test_merge_matches_set_based_reference():
    # partition members of random co-chordal graphs, in shuffled order:
    # some pairs merge and some are turned down
    rng = random.Random(31)
    accepted = rejected = 0
    for seed in range(120):
        g = random_cochordal(rng.randrange(4, 16), rng.random(), seed)
        parts = find_partition(clique_tree(g.complement()))
        items = [(b, rng.random()) for b in parts if rng.random() < 0.8]
        merged = merge_bicliques(_merge_items(g, items))
        assert merged == naive_merge_bicliques(items, g)
        accepted += len(items) - len(merged)
        rejected += len(merged) > 1
    assert accepted > 0 and rejected > 0


def test_merge_rejects_non_biclique_input():
    g = gen_fig_graph("fig2").graph
    with pytest.raises(ValueError):
        merge_bicliques(_merge_items(g, [(B([0], [1]), 1)]))  # a-b is not an edge


def test_cover_fig2_walkthrough():
    g = gen_fig_graph("fig2").graph
    cover, meta = cover_cochordal(g)
    assert cover == [B([0, 1], [3, 4]), B([0, 4], [2])]
    assert meta.ranking_r == 2 and meta.ranking_optimal
    assert meta.all_le_two
    assert meta.level_sizes_before == {1: 1, 2: 2}
    assert meta.level_sizes_after == {1: 1, 2: 1}
    assert verify_cover(g, cover)


def test_cover_fig3_counterexample():
    g = gen_fig_graph("fig3").graph
    cover, meta = cover_cochordal(g)
    assert len(cover) == 3
    assert not meta.all_le_two
    assert meta.ranking_r == 2  # two ranks, yet three bicliques needed
    assert verify_cover(g, cover)


def test_cover_copath_sizes():
    for n in range(3, 13):
        inst = gen_copath(n)
        cover, meta = cover_cochordal(inst.graph)
        assert len(cover) == ceil_log2(n - 1) == inst.expected["bc"]
        assert verify_cover(inst.graph, cover)


def test_cover_complete_graph_log_size():
    for n in range(2, 10):
        cover, meta = cover_cochordal(complete_graph(n))
        assert len(cover) == ceil_log2(n)
        assert verify_cover(complete_graph(n), cover)


def test_cover_edgeless_graph_empty():
    g = complete_graph(5).complement()
    cover, meta = cover_cochordal(g)
    assert cover == [] and meta.ranking_r == 0
    assert meta.mc_complement == 1


def test_cover_rejects_non_cochordal():
    with pytest.raises(NotChordalError):
        cover_cochordal(cycle_graph(5))


def test_cover_never_exceeds_mc_minus_one():
    rng = random.Random(5)
    for seed in range(50):
        gc = gen_random_chordal(rng.randrange(2, 12), rng.random(), seed + 500)
        g = gc.complement()
        cover, meta = cover_cochordal(g)
        assert len(cover) <= max(0, meta.mc_complement - 1)
        assert verify_cover(g, cover)


def test_cover_ranking_is_optimal():
    g = gen_copath(9).graph
    cover, meta = cover_cochordal(g)
    assert meta.ranking_optimal and meta.verified
    assert meta.ranking_r == ceil_log2(8)  # the rebuilt tree is a path
    with pytest.raises(TypeError):
        cover_cochordal(g, ranking_mode="heuristic")  # one ranking, no modes


def test_flattened_levels_form_a_partition_on_random_cochordal():
    from bccover import optimal_edge_ranking
    from bccover.ranking import Tree

    rng = random.Random(71)
    for seed in range(40):
        gc = gen_random_chordal(rng.randrange(2, 12), rng.random(), seed)
        g = gc.complement()
        tree = join_clique_forest(clique_tree(gc))
        if tree.node_count < 2:
            continue
        ranking, _ = optimal_edge_ranking(Tree(tree.node_count, tree.edges))
        levels = find_biclique_levels(tree, ranking)
        flattened = [item[0] for items in levels.values() for item in items]
        assert len(flattened) == tree.node_count - 1
        assert verify_partition(g, flattened)


def test_cover_pipeline_is_deterministic():
    rng = random.Random(19)
    for seed in range(20):
        gc = gen_random_chordal(rng.randrange(2, 11), rng.random(), seed)
        g = gc.complement()
        first, first_meta = cover_cochordal(g)
        second, second_meta = cover_cochordal(g)
        assert first == second
        assert first_meta.level_sizes_before == second_meta.level_sizes_before
        tree = clique_tree(gc)
        assert find_partition(tree) == find_partition(tree)


def test_cover_valid_without_tree_rebuild():
    # the pipeline's size guarantees hold for any clique tree; the rebuild
    # only helps the ranking, so the levels and merges of the joined MCS
    # tree must still give a cover
    for instance_id in ("fig2", "fig3"):
        g = gen_fig_graph(instance_id).graph
        work = join_clique_forest(clique_tree(g.complement()))
        ranking, r = optimal_edge_ranking(Tree(work.node_count, work.edges))
        levels = find_biclique_levels(work, ranking)
        cover = [
            b for level in range(1, r + 1)
            for b in merge_bicliques(levels.get(level, []))
        ]
        assert verify_cover(g, cover)
        assert len(cover) <= work.node_count - 1


def test_join_clique_forest_chains_components():
    # complement of K4 is edgeless; its clique forest is 4 singletons
    tree = clique_tree(complete_graph(4).complement())
    work = join_clique_forest(tree)
    assert work.node_count == 4
    assert len(work.edges) == 3
    assert all(m == 0 for m in work.mids)


def test_join_clique_forest_returns_a_tree_as_it_is(monkeypatch):
    # d - 1 edges on d nodes: a tree already, so no union-find pass
    finds = [0]
    original = cover_module.find_root

    def counted(parent, i):
        finds[0] += 1
        return original(parent, i)

    monkeypatch.setattr(cover_module, "find_root", counted)
    for h in (gen_copath(12).graph.complement(),
              gen_fig_graph("fig3").graph.complement(), complete_graph(3)):
        tree = clique_tree(h)
        assert join_clique_forest(tree) is tree
    assert finds[0] == 0
    forest = clique_tree(complete_graph(4).complement())
    assert len(join_clique_forest(forest).edges) == 3
    assert finds[0] > 0


def test_max_weight_tree_rebuild_is_valid_clique_tree():
    rng = random.Random(31)
    for seed in range(80):
        gc = gen_random_chordal(rng.randrange(1, 13), rng.random(), seed + 99)
        rebuilt = max_weight_clique_tree(clique_tree(gc).nodes)
        assert verify_clique_tree(gc, rebuilt)


@st.composite
def chordal_graphs(draw):
    """gen_random_chordal graphs, sometimes beside a second one (so the
    clique tree is a forest); density 0 gives trees, whose cliques are
    edges that meet in at most one vertex, so the whole rebuild is one
    weight class of ties."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=18))
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]))
        parts.append(gen_random_chordal(n, density, draw(st.integers(0, 10**6))))
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph(offset, edges)


@settings(derandomize=True, max_examples=300)
@given(chordal_graphs())
def test_max_weight_tree_rebuild_matches_dense_reference(gc):
    nodes = clique_tree(gc).nodes
    rebuilt = max_weight_clique_tree(nodes)
    assert rebuilt.nodes == nodes
    sets = lambda masks: tuple(map(vertex_set, masks))
    assert (sets(rebuilt.nodes), rebuilt.edges, sets(rebuilt.mids)) == (
        naive_max_weight_clique_tree(nodes)
    )
    assert verify_clique_tree(gc, rebuilt)


def test_max_weight_tree_rebuild_matches_dense_reference_at_benchmark_scale():
    # the rebuilt families of the cover benchmark: around 25 and 115
    # cliques, many weight classes, most pairs joined before their class
    for n, density in ((100, 0.1), (250, 0.02)):
        for seed in range(6):
            nodes = clique_tree(gen_random_chordal(n, density, seed)).nodes
            rebuilt = max_weight_clique_tree(nodes)
            assert rebuilt.nodes == nodes
            assert rebuilt.edges == naive_max_weight_clique_tree(nodes)[1]
            assert len(rebuilt.edges) == len(nodes) - 1


def _two_membership_complements():
    """Co-chordal graphs whose complement's vertices each lie in at most
    two maximal cliques: co-paths, declared two-membership instances on
    several tree shapes, and a complement whose clique tree is a forest."""
    graphs = [gen_copath(n).graph for n in range(3, 81)]
    graphs += [inst.graph for inst in _two_membership_instances(200)]
    rng = random.Random(28)
    for seed in range(120):
        d = rng.randrange(2, 12)
        shape = (random_tree(d, seed), star_tree(d),
                 caterpillar_tree(max(2, d // 2), d - max(2, d // 2)))[seed % 3]
        mids = [rng.randrange(1, 4) for _ in shape.edges]
        sizes = [sum(m for e, m in zip(shape.edges, mids) if node in e)
                 + rng.randrange(1, 4) for node in range(d)]
        graphs.append(
            gen_two_membership_cochordal(shape, sizes, mids, seed).graph)
    # complement: a path, a triangle and an edge (as in the pipeline golden)
    split = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]
    graphs.append(Graph(9, split).complement())
    return graphs


def test_rebuild_keeps_the_sweep_tree_on_two_membership_graphs():
    # the clique intersection graph is a forest there, so the sweep's tree
    # is the only clique tree and the rebuild returns its edges
    for g in _two_membership_complements():
        base = complement_clique_tree(g)
        assert clique_membership_counts(base, g.n)[1]
        rebuilt = max_weight_clique_tree(base.nodes)
        assert rebuilt.nodes == base.nodes
        assert join_clique_forest(rebuilt).edges == join_clique_forest(base).edges


def test_membership_counts_match_a_scan_of_every_node():
    # the counts are read off the middle sets; the reference scans every
    # node.  Joined forests have empty synthetic middle sets, and n = 0 and
    # 1 have no middle set at all
    trees = [(clique_tree(Graph(n)), n) for n in range(6)]  # forests of points
    for n in range(1, 41):
        for density in (0, 0.1, 0.3, 0.6, 1):
            for seed in range(3):
                trees.append((clique_tree(gen_random_chordal(n, density, seed)), n))
    rng = random.Random(32)
    for seed in range(40):  # two components: a clique forest
        a = gen_random_chordal(rng.randrange(1, 20), rng.choice([0, 0.3, 0.9]), seed)
        b = gen_random_chordal(rng.randrange(1, 20), rng.choice([0, 0.3, 0.9]), seed + 1)
        edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
        trees.append((clique_tree(Graph(a.n + b.n, edges)), a.n + b.n))
    trees += [(join_clique_forest(tree), n) for tree, n in trees]
    for g in [gen_copath(n).graph for n in range(2, 41)] + _two_membership_complements():
        trees.append((complement_clique_tree(g), g.n))
    assert sum(len(tree.edges) < tree.node_count - 1 for tree, _ in trees) > 40
    flags = Counter()
    for tree, n in trees:
        counts, all_le_two = clique_membership_counts(tree, n)
        assert (counts, all_le_two) == naive_clique_membership_counts(tree, n)
        flags[all_le_two] += 1
    assert min(flags[True], flags[False]) > 100


def test_cover_rebuilds_only_past_two_memberships(monkeypatch):
    calls = [0]
    original = cover_module.max_weight_clique_tree

    def counted(nodes):
        calls[0] += 1
        return original(nodes)

    monkeypatch.setattr(cover_module, "max_weight_clique_tree", counted)
    caterpillar = gen_two_membership_cochordal(
        caterpillar_tree(3, 4), [3, 4, 3, 2, 2, 3, 2], [1, 1, 1, 1, 1, 1], 5)
    for g in (gen_copath(40).graph, caterpillar.graph):
        _, meta = cover_cochordal(g)
        assert meta.all_le_two and calls[0] == 0
        assert meta.tree == join_clique_forest(complement_clique_tree(g))
    _, meta = cover_cochordal(gen_cowindmill(6, 3).graph)  # centre in six
    assert not meta.all_le_two and calls[0] == 1


def test_bfs_leaf_order_fig2():
    tree = clique_tree(gen_fig_graph("fig2").graph.complement())
    assert bfs_leaf_order(tree) == {0: 1, 1: 2, 2: 3, 3: 4}


def test_bfs_leaf_order_rejects_a_forest():
    # the complement is a path, a triangle and an edge: five cliques, two
    # tree edges; only the joined tree has a position for every node
    split = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]
    forest = clique_tree(Graph(9, split))
    assert (forest.node_count, len(forest.edges)) == (5, 2)
    with pytest.raises(ValueError, match="not connected"):
        bfs_leaf_order(forest)
    assert sorted(bfs_leaf_order(join_clique_forest(forest)).values()) == [1, 2, 3, 4, 5]
    for edges in (((0, 5),), ((-1, 0),), ((2, 2),)):
        with pytest.raises(ValueError, match="invalid edge"):
            bfs_leaf_order(CliqueTree(forest.nodes, forest.edges + edges))


def test_construction_builds_no_ranking_tree(monkeypatch):
    # the joined clique tree is ranked and cut as it is, on the sweep's
    # tree and on the rebuilt one
    copath, cowindmill = gen_copath(40).graph, gen_cowindmill(6, 3).graph
    calls = [0]
    original = bccover.ranking.Tree.__init__

    def counted(self, n, edges):
        calls[0] += 1
        original(self, n, edges)

    monkeypatch.setattr(bccover.ranking.Tree, "__init__", counted)
    cover, meta = cover_cochordal(copath)
    assert meta.all_le_two and meta.verified and len(cover) == 6
    cover, meta = cover_cochordal(cowindmill)
    assert not meta.all_le_two and meta.verified
    members = find_partition(complement_clique_tree(copath))
    assert verify_partition(copath, members)
    assert calls[0] == 0


def test_verify_cover_examples():
    g = gen_fig_graph("fig3").graph
    cover = [B([0, 1], [4, 5]), B([0], [3]), B([2], [5])]
    assert verify_cover(g, cover)
    assert verify_partition(g, cover)
    assert not verify_cover(g, cover[:-1])
    assert "uncovered" in cover_defects(g, cover[:-1])[0]
    doubly = cover + [B([0], [4])]
    assert verify_cover(g, doubly)
    assert not verify_partition(g, doubly)
    assert "covered 2 times" in cover_defects(g, doubly, partition=True)[0]
    assert not verify_cover(g, [B([0], [1])])
    # the first uncovered and the first repeated edge, in lexicographic order
    k4 = complete_graph(4)
    members = [B([0], [1]), B([2], [3]), B([0, 1], [3]), B([3], [1])]
    assert cover_defects(k4, members, partition=True) == [
        "edge 0 2 is uncovered",
        "edge 1 3 is covered 2 times",
    ]
    assert cover_defects(k4, members + [B([0], [2]), B([1], [2])]) == []


def test_verification_turns_down_each_defect_without_raising():
    g = gen_fig_graph("fig3").graph  # 6 vertices
    cover = [B([0, 1], [4, 5]), B([0], [3]), B([2], [5])]
    assert g.has_edge(0, 3) and not g.has_edge(0, 1) and g.has_edge(1, 5)
    cases = [
        (verify_cover, cover + [B([0], [4, 6])]),  # vertex >= n, right side only
        (verify_cover, cover + [B([0], [1, 3])]),  # one non-edge, 0 1
        (verify_cover, [B([0, 1], [4]), B([0], [5])] + cover[1:]),  # misses 1 5
        (verify_partition, cover + [B([0], [4])]),  # covers 0 4 twice
    ]
    for verify, members in cases:
        naive = naive_verify_cover if verify is verify_cover else naive_verify_partition
        assert verify(g, members) is False
        assert naive(g, members) is False
    assert verify_cover(g, cover + [B([0], [4])])
    assert cover_defects(g, cases[2][1]) == ["edge 1 5 is uncovered"]


@st.composite
def graphs_with_members(draw):
    """A graph and a member list mixing a partition into single edges,
    stars that cover some edges twice, and random vertex-set pairs that are
    mostly not bicliques and may hold the out-of-range vertices n and n + 1."""
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    edges = g.edges()
    options = []
    if edges:
        options.append(st.sampled_from(edges).map(lambda e: B([e[0]], [e[1]])))
        centres = [u for u in range(n) if g.degree(u)]
        options.append(
            st.sampled_from(centres).flatmap(
                lambda u: st.sets(
                    st.sampled_from(g.neighborhood(u)), min_size=1
                ).map(lambda right: B([u], right))
            )
        )
    vertex = st.integers(min_value=0, max_value=n + 1)
    options.append(
        st.sets(vertex, min_size=1, max_size=4).flatmap(
            lambda left: st.sets(
                vertex.filter(lambda v: v not in left), min_size=1, max_size=4
            ).map(lambda right: B(left, right))
        )
    )
    members = [B([u], [v]) for u, v in edges] if draw(st.booleans()) else []
    members += draw(st.lists(st.one_of(options), max_size=6))
    return g, draw(st.permutations(members))


@settings(derandomize=True, max_examples=400)
@given(graphs_with_members())
def test_mask_verification_matches_edge_count_reference(case):
    g, members = case
    assert verify_cover(g, members) == naive_verify_cover(g, members)
    assert verify_partition(g, members) == naive_verify_partition(g, members)
    for partition in (False, True):
        assert cover_defects(g, members, partition) == naive_cover_defects(
            g, members, partition
        )


def test_clique_split_outputs_pass_biclique_check_on_random_graphs():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        cliques = [set(k) for k in enumerate_maximal_cliques(g.complement())]
        if len(cliques) < 2:
            continue
        ids = list(range(len(cliques)))
        rng.shuffle(ids)
        cut = rng.randrange(1, len(ids))
        left_idx, right_idx = set(ids[:cut]), set(ids[cut:])
        b = clique_split_biclique(cliques, left_idx, right_idx)
        if b is not None:
            assert g.is_biclique_subgraph(b.left, b.right)
            # no biclique edge is internal to either side's clique union
            union_l = set().union(*(cliques[i] for i in left_idx))
            union_r = set().union(*(cliques[j] for j in right_idx))
            for u, v in b.edge_set():
                assert not (u in union_l and v in union_l)
                assert not (u in union_r and v in union_r)


def test_any_biclique_extends_to_a_clique_split_biclique():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        if g.m == 0:
            continue
        cliques = [set(k) for k in enumerate_maximal_cliques(g.complement())]
        for b in enumerate_maximal_bicliques(g):
            left_idx = {
                i for i, k in enumerate(cliques) if k & set(b.left)
            }
            right_idx = set(range(len(cliques))) - left_idx
            assert right_idx  # vertices of the right side live only there
            bigger = clique_split_biclique(cliques, left_idx, right_idx)
            assert bigger is not None
            assert b.left <= bigger.left and b.right <= bigger.right


def test_two_maximal_cliques_of_complement_span_an_edge():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        cliques = enumerate_maximal_cliques(g.complement())
        for a in range(len(cliques)):
            for b in range(a + 1, len(cliques)):
                union = sorted(set(cliques[a]) | set(cliques[b]))
                induced, _ = induced_subgraph(g, union)
                assert induced.m >= 1


def test_serialization_round_trip():
    cover = [B([0, 1], [3, 4]), B([0, 4], [2])]
    text = bicliques_to_text(cover)
    assert text == "L: 0 1 | R: 3 4\nL: 0 4 | R: 2\n"
    assert bicliques_from_text(text, 5) == cover
    with pytest.raises(ValueError):
        bicliques_from_text("L: 0 1 R: 2\n", 5)
    with pytest.raises(ValueError, match="^line 2: vertex -1 out of range$"):
        bicliques_from_text("L: 0 | R: 4\nL: -1 | R: 1\n", 5)
    with pytest.raises(ValueError, match="^line 1: vertex -3 out of range$"):
        bicliques_from_text("L: 0 | R: 1 -3\n", 5)
    with pytest.raises(ValueError, match="^line 2: vertex 5 out of range$"):
        bicliques_from_text("L: 0 | R: 4\nL: 1 | R: 5\n", 5)


def test_cover_never_lists_the_complement(monkeypatch):
    g = gen_copath(200).graph
    built = []
    init = Graph.__init__

    def counting_init(self, n, edges=()):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    cover, meta = cover_cochordal(g)
    assert built == []  # no Graph was built from an edge list
    assert meta.verified and len(cover) == ceil_log2(199)


def test_cover_pipeline_builds_no_clique_mask(monkeypatch):
    # the clique tree's nodes are masks from the MCS sweep to the cuts
    calls = []
    vertex_mask = cover_module.vertex_mask
    monkeypatch.setattr(
        cover_module, "vertex_mask", lambda vs: calls.append(1) or vertex_mask(vs)
    )
    cover, meta = cover_cochordal(gen_copath(800).graph)
    assert meta.verified and len(cover) == ceil_log2(799)
    assert len(calls) == 0


def test_cover_that_fails_its_check_is_flagged(monkeypatch, tmp_path, capsys):
    g = gen_copath(9).graph
    merge = cover_module.merge_bicliques
    monkeypatch.setattr(  # drop one member of every merged level
        cover_module, "merge_bicliques", lambda items: merge(items)[:-1]
    )
    cover, meta = cover_cochordal(g)
    assert not verify_cover(g, cover)
    assert meta.verified is False
    path = tmp_path / "copath9.graph"
    write_graph(g, path)
    assert main(["cover", str(path)]) == 2
    assert "failed verification" in capsys.readouterr().err
    assert full_report(g, run_oracle=False).inconsistent
    monkeypatch.undo()
    assert cover_cochordal(g)[1].verified


def test_cover_check_runs_under_optimize():
    script = (
        "import bccover.cover as c\n"
        "from bccover import gen_copath\n"
        "merge = c.merge_bicliques\n"
        "c.merge_bicliques = lambda items: merge(items)[:-1]\n"
        "print(c.cover_cochordal(gen_copath(9).graph)[1].verified)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bccover.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
