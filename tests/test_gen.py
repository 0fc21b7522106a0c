import pathlib
import random

import pytest

from bccover import (
    Graph,
    ceil_log2,
    clique_tree,
    clique_tree_to_text,
    complete_graph,
    exact_bc,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
    gen_two_membership_cochordal,
    graph_to_text,
    is_chordal,
    is_perfect_elimination_order,
    mis_membership_counts,
    path_graph,
    verify_clique_tree,
)
from bccover.gen import (
    caterpillar_tree,
    path_tree,
    random_tree,
    star_tree,
    windmill_graph,
)
from helpers import (
    reference_listing_random_chordal,
    reference_random_chordal,
    reference_two_membership,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_copath_examples():
    inst = gen_copath(5)
    assert inst.graph == gen_fig_graph("fig2").graph
    assert inst.expected["bc"] == 2
    assert inst.labels == ("a", "b", "c", "d", "e")

    inst = gen_copath(2)
    assert inst.graph.m == 0
    assert inst.expected["bc"] == 0

    assert gen_copath(9).expected["bc"] == 3
    with pytest.raises(ValueError):
        gen_copath(1)


def test_copath_complement_is_path():
    for n in range(2, 10):
        assert gen_copath(n).graph.complement() == path_graph(n)


def test_cowindmill_examples():
    inst = gen_cowindmill(4, 3)
    assert inst.expected == {"bc": 2, "mc_complement": 4}
    assert inst.graph.n == 9

    # one blade means the windmill is complete, so the complement is edgeless
    assert gen_cowindmill(1, 4).expected["bc"] == 0
    assert gen_cowindmill(1, 4).graph.m == 0

    inst = gen_cowindmill(5, 2)
    assert inst.expected["bc"] == 3
    assert exact_bc(inst.graph).value == 3  # 6-vertex instance, oracle confirms
    with pytest.raises(ValueError):
        gen_cowindmill(0, 3)
    with pytest.raises(ValueError):
        gen_cowindmill(3, 1)


def test_windmill_structure():
    w = windmill_graph(3, 3)
    assert w.n == 7
    assert w.degree(0) == 6
    counts, flag = mis_membership_counts(w.complement())
    assert counts[0] == 3 and not flag  # hub sits in every blade


def test_fig_instances():
    assert gen_fig_graph("fig1_c4c").graph == Graph(4, [(0, 2), (1, 3)])
    assert gen_fig_graph("fig1_k5").graph == complete_graph(5)
    fig3 = gen_fig_graph("fig3")
    assert fig3.graph.edges() == [
        (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5),
    ]
    assert exact_bc(fig3.graph).value == fig3.expected["bc"] == 3
    assert exact_bc(gen_fig_graph("fig2").graph).value == 2
    with pytest.raises(ValueError):
        gen_fig_graph("fig9")


def test_random_chordal_generator():
    for seed in range(120):
        n = 1 + seed % 12
        g = gen_random_chordal(n, (seed % 5) / 4, seed)
        assert is_chordal(g)
    # determinism
    assert gen_random_chordal(9, 0.5, 42) == gen_random_chordal(9, 0.5, 42)
    assert gen_random_chordal(9, 0.5, 42) != gen_random_chordal(9, 0.5, 43)


def test_random_chordal_density_extremes():
    g = gen_random_chordal(8, 0.0, 5)
    assert g.m == 7  # a tree
    assert gen_random_chordal(8, 1.0, 5) == complete_graph(8)
    with pytest.raises(ValueError):
        gen_random_chordal(0)
    with pytest.raises(ValueError):
        gen_random_chordal(5, 1.5)


def test_random_chordal_golden_file():
    g = gen_random_chordal(10, 0.5, 7)
    assert graph_to_text(g) == (DATA / "random_chordal_n10_s7.graph").read_text()
    assert clique_tree_to_text(clique_tree(g)) == (
        DATA / "random_chordal_n10_s7.tree.txt"
    ).read_text()


def test_mask_generators_match_the_set_based_references():
    # A changed draw order, or a changed candidate order, moves these masks.
    grid = [
        (n, density, seed)
        for n in range(1, 31)
        for density in (0, 0.02, 0.1, 0.3, 0.5, 0.7, 1)
        for seed in range(3)
    ]
    # the benchmark's random co-chordal families
    grid += [(100, 0.1, seed) for seed in range(12)]
    grid += [(60, 0.1, seed) for seed in range(10)]
    grid += [(12, 0.3, seed) for seed in range(40)]
    grid += [(150, 0.02, 150)]
    for n, density, seed in grid:
        assert (
            gen_random_chordal(n, density, seed).neighbor_masks()
            == reference_random_chordal(n, density, seed).neighbor_masks()
        ), (n, density, seed)

    # the benchmark's two-membership shapes, plus larger middle sets
    shapes = [(random_tree(20, k), k) for k in range(10)]
    shapes += [(caterpillar_tree(d // 2, d - d // 2), seed)
               for d in (60, 100) for seed in (0, d, 2 ** 31 - 1)]
    for tree, seed in shapes:
        degrees = [len(tree.neighbors(i)) for i in range(tree.n)]
        for mid, extra in ((1, 2), (2, 1)):
            sizes = [mid * deg + extra for deg in degrees]
            mids = [mid] * len(tree.edges)
            inst = gen_two_membership_cochordal(tree, sizes, mids, seed=seed)
            assert (
                inst.graph.neighbor_masks()
                == reference_two_membership(tree, sizes, mids, seed).neighbor_masks()
            ), (tree.edges, seed, mid)

    for m in range(1, 6):
        for k in range(2, 6):
            blades = [[0] + list(range(1 + b * (k - 1), 1 + (b + 1) * (k - 1)))
                      for b in range(m)]
            edges = [(u, v) for blade in blades for u in blade for v in blade if u < v]
            assert windmill_graph(m, k) == Graph(1 + m * (k - 1), edges), (m, k)


def test_random_chordal_draws_as_the_listing_loop_does():
    # The i-th set bit for i = randrange(k) is what rng.choice draws from
    # the k listed candidates, so not one graph may move.
    grid = [
        (n, density, seed)
        for n in range(1, 41)
        for density in (0, 0.3, 1)
        for seed in range(5)
    ]
    grid += [(300, density, seed) for density in (0.02, 0.3, 0.8) for seed in (0, 1)]
    for n, density, seed in grid:
        assert gen_random_chordal(n, density, seed) == reference_listing_random_chordal(
            n, density, seed
        ), (n, density, seed)


def test_random_chordal_at_scale_keeps_its_elimination_order():
    n = 600
    for seed in range(3):
        h = gen_random_chordal(n, 0.3, seed)
        assert is_perfect_elimination_order(h, tuple(range(n - 1, -1, -1)))
        assert verify_clique_tree(h, clique_tree(h))


def test_two_membership_path_shape_is_copath_family():
    inst = gen_two_membership_cochordal(
        path_tree(4), [2, 2, 2, 2], [1, 1, 1], seed=0
    )
    gc = inst.graph.complement()
    tree = clique_tree(gc)
    assert tree.node_count == 4
    assert sorted(k.bit_count() for k in tree.nodes) == [2, 2, 2, 2]
    counts, flag = mis_membership_counts(inst.graph)
    assert flag


def test_two_membership_star_shape():
    inst = gen_two_membership_cochordal(
        star_tree(4), [5, 2, 2, 2], [1, 1, 1], seed=3
    )
    from bccover import cover_cochordal, optimal_edge_ranking

    cover, meta = cover_cochordal(inst.graph)
    _, r = optimal_edge_ranking(inst.shape)
    assert len(cover) <= r == 3
    counts, flag = mis_membership_counts(inst.graph)
    assert flag


def test_two_membership_flag_always_true():
    rng = random.Random(1)
    for seed in range(60):
        d = rng.randrange(2, 8)
        tree = random_tree(d, seed)
        degree = [0] * d
        for u, v in tree.edges:
            degree[u] += 1
            degree[v] += 1
        sizes = [degree[i] + rng.randrange(1, 4) for i in range(d)]
        mids = [rng.randrange(1, 3) for _ in tree.edges]
        sizes = [
            max(
                sizes[i],
                sum(m for (u, v), m in zip(tree.edges, mids) if i in (u, v)) + 1,
            )
            for i in range(d)
        ]
        inst = gen_two_membership_cochordal(tree, sizes, mids, seed=seed)
        counts, flag = mis_membership_counts(inst.graph)
        assert flag
        gc = inst.graph.complement()
        assert is_chordal(gc)
        assert clique_tree(gc).node_count == d


def test_two_membership_declared_tree_is_the_clique_tree():
    tree = caterpillar_tree(3, 3)
    sizes = [6, 6, 6, 2, 2, 2]
    mids = [1] * len(tree.edges)
    inst = gen_two_membership_cochordal(tree, sizes, mids, seed=9)
    gc = inst.graph.complement()
    built = clique_tree(gc)
    assert built.node_count == tree.n
    assert verify_clique_tree(gc, built)
    # edge multiset matches the declared shape up to node relabeling
    declared_degrees = sorted(
        sum(1 for e in tree.edges if i in e) for i in range(tree.n)
    )
    built_degrees = sorted(
        sum(1 for e in built.edges if i in e) for i in range(built.node_count)
    )
    assert declared_degrees == built_degrees


def test_two_membership_rejects_inconsistent_parameters():
    with pytest.raises(ValueError):
        gen_two_membership_cochordal(path_tree(3), [2, 2], [1, 1], seed=0)
    with pytest.raises(ValueError):
        gen_two_membership_cochordal(path_tree(3), [2, 1, 2], [1, 1], seed=0)
    with pytest.raises(ValueError):
        # leaf clique equal to its middle set is not maximal
        gen_two_membership_cochordal(path_tree(2), [1, 2], [1], seed=0)


def test_generators_deterministic_per_seed():
    a = gen_two_membership_cochordal(path_tree(3), [3, 3, 3], [1, 1], seed=5)
    b = gen_two_membership_cochordal(path_tree(3), [3, 3, 3], [1, 1], seed=5)
    c = gen_two_membership_cochordal(path_tree(3), [3, 3, 3], [1, 1], seed=6)
    assert a.graph == b.graph
    assert a.graph != c.graph


def test_trees_and_instances_compare_by_value():
    assert path_tree(4) == path_tree(4) and hash(path_tree(4)) == hash(path_tree(4))
    assert path_tree(4) != star_tree(4) and path_tree(4) != path_tree(5)
    assert len({random_tree(9, 2), random_tree(9, 2), random_tree(9, 3)}) == 2
    assert gen_copath(5) == gen_copath(5) and gen_copath(5) != gen_copath(6)
    a = gen_two_membership_cochordal(path_tree(3), [3, 3, 3], [1, 1], seed=5)
    b = gen_two_membership_cochordal(path_tree(3), [3, 3, 3], [1, 1], seed=5)
    assert a == b and a.shape is not b.shape
    with pytest.raises(TypeError):
        hash(a)  # its expected values are a dict


def test_tree_shapes():
    assert path_tree(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert star_tree(4).edges == ((0, 1), (0, 2), (0, 3))
    cat = caterpillar_tree(3, 4)
    assert cat.n == 7
    rt = random_tree(8, 3)
    assert rt.n == 8 and len(rt.edges) == 7
    assert random_tree(8, 3).edges == rt.edges
