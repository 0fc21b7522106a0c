import random

import pytest
from hypothesis import given, settings, strategies as st

import bccover.ranking as ranking_module
from bccover import (
    CliqueTree,
    Tree,
    bfs_leaf_order,
    ceil_log2,
    clique_tree,
    clique_tree_to_text,
    edge_ranking_lower_bound,
    find_biclique_levels,
    find_partition,
    gen_copath,
    gen_cowindmill,
    gen_fig_graph,
    gen_random_chordal,
    heuristic_edge_ranking,
    is_valid_edge_ranking,
    join_clique_forest,
    max_weight_clique_tree,
    optimal_edge_ranking,
    verify_clique_tree,
    verify_partition,
)
from bccover.chordal import clique_membership_counts, complement_clique_tree
from bccover.graph import Graph, cycle_graph
from bccover.gen import caterpillar_tree, gen_two_membership_cochordal, random_tree
from bccover.ranking import (
    _combine_two, _lowest_rank, combine_children, ranked_joins, tree_to_text,
)
from helpers import (
    enumerate_trees,
    naive_combine_children,
    naive_heuristic_ranks,
    naive_is_valid_ranking,
    naive_optimal_ranks,
    random_tree_edges,
    reference_optimal_ranks,
)


def path_tree(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


@st.composite
def trees(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return Tree(n, random_tree_edges(n, random.Random(seed)))


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])  # too few edges
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (0, 1), (2, 3)])  # duplicate
    assert Tree(1, []).edges == ()


def test_optimal_ranking_rejects_what_is_not_one_tree():
    # one table of malformed trees for every public function that takes a
    # tree: each gives its documented result or ValueError, never
    # IndexError, KeyError, StopIteration or AttributeError
    split = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]
    forest = clique_tree(Graph(9, split))  # five cliques, two tree edges
    nodes = (1, 2, 4, 8)
    for bad in (((3, 6, 12), ((0, 5),)), (nodes, ((0, 1), (1, 2), (2, 4))),
                (nodes, ((-1, 0), (0, 1), (1, 2))),
                (nodes, ((0, 1), (1, 2), (2, 2)))):
        with pytest.raises(ValueError, match="invalid edge"):
            CliqueTree(*bad)  # an edge end out of range or a loop
    # (tree, a graph to check it against, whether it is a forest, whether
    # it is a clique forest of that graph, what the rankings say, what the
    # leaf walk says)
    cases = [
        (forest, Graph(9, split), True, True, "needs 4 edges", "not connected"),
        (CliqueTree((), ()), Graph(0), True, True, "at least one vertex", None),
        (CliqueTree((1, 2), ()), Graph(2), True, True,
         "needs 1 edges", "not connected"),
        (CliqueTree(nodes, ((0, 1), (1, 2))), Graph(4), True, False,
         "needs 3 edges", "not connected"),
        (CliqueTree(nodes, ((0, 1), (1, 2), (2, 3), (0, 3))), Graph(4), False,
         False, "needs 3 edges", "needs 3 edges"),
        (CliqueTree((3, 6, 12, 9), ((0, 1), (1, 2), (2, 3), (0, 3))),
         cycle_graph(4), False, False, "needs 3 edges", "needs 3 edges"),
        (CliqueTree(nodes, ((0, 1), (0, 1), (2, 3))), Graph(4), False, False,
         "not connected", "not connected"),
        (CliqueTree(nodes, ((0, 1), (1, 2), (0, 2))), Graph(4), False, False,
         "not connected", "not connected"),
        (CliqueTree(nodes, ((1, 2), (2, 3), (1, 3))), Graph(4), False, False,
         "not connected", "not connected"),
        (CliqueTree(nodes, ((0, 1), (0, 1))), Graph(4), False, False,
         "needs 3 edges", "not connected"),
        (CliqueTree((3, 6, 5), ((0, 1), (1, 2), (0, 2))), cycle_graph(3), False,
         False, "needs 2 edges", "needs 2 edges"),
    ]
    for tree, g, is_forest, valid, message, walk in cases:
        d, edges = tree.node_count, tree.edges
        for rank in (optimal_edge_ranking, heuristic_edge_ranking):
            with pytest.raises(ValueError, match=message):
                rank(tree)
        ranking = {e: k for k, e in enumerate(edges, start=1)}
        if walk is None:
            assert bfs_leaf_order(tree) == {}
            assert find_biclique_levels(tree, ranking) == {}
        else:
            for walker in (bfs_leaf_order, lambda t: find_biclique_levels(t, ranking)):
                with pytest.raises(ValueError, match=walk):
                    walker(tree)
        if is_forest:
            assert is_valid_edge_ranking(tree, ranking)
        else:
            with pytest.raises(ValueError, match="closes a cycle"):
                is_valid_edge_ranking(tree, ranking)
        if is_forest:
            joined = join_clique_forest(tree)
            if len(edges) >= d - 1:
                assert joined is tree
            else:
                assert optimal_edge_ranking(joined)[1] >= ceil_log2(d)
            assert verify_clique_tree(g, joined) is (valid and joined is tree)
            assert verify_partition(g.complement(), find_partition(tree))
        else:
            # the join refuses the record itself, so no message names a
            # joined record that the caller never made
            for join in (join_clique_forest, find_partition):
                with pytest.raises(ValueError, match="closes a cycle"):
                    join(tree)
        assert verify_clique_tree(g, tree) is valid
        text = clique_tree_to_text(tree)
        assert (text.count("K"), text.count("T:")) == (d, len(edges))
        counts, _ = clique_membership_counts(tree, g.n)
        if valid:
            assert counts == tuple(sum(k >> v & 1 for k in tree.nodes)
                                   for v in range(g.n))
        assert edge_ranking_lower_bound(tree) >= 0
        # tree_to_text and gen_two_membership_cochordal take a Tree, which
        # refuses each of these when it is made
        for takes_a_tree in (tree_to_text, gen_two_membership_cochordal):
            with pytest.raises(ValueError):
                takes_a_tree(Tree(d, edges))
    joined = join_clique_forest(forest)
    assert optimal_edge_ranking(joined)[1] == 3


def test_clique_tree_and_tree_give_one_ranking():
    # the joined clique trees of chordal graphs, as the cover builds them
    # for their co-chordal complements: from the sweep (some of them joined
    # forests) and from the rebuild, ranked as they are and as a Tree give
    # the same ranks, in the same order, and the same r
    rng = random.Random(29)
    joined = rebuilt = 0
    for seed in range(150):
        parts = [gen_random_chordal(rng.randrange(1, 16), rng.random(), seed + k)
                 for k in range(1 + seed % 3)]  # a disjoint union of 1-3
        n, edges = 0, []
        for part in parts:
            edges += [(n + u, n + v) for u, v in part.edges()]
            n += part.n
        base = clique_tree(Graph(n, edges))
        for tree in (base, max_weight_clique_tree(base.nodes)):
            work = join_clique_forest(tree)
            joined += work is not tree
            rebuilt += tree is not base and tree.edges != base.edges
            ranking, r = optimal_edge_ranking(work)
            want, want_r = optimal_edge_ranking(Tree(work.node_count, work.edges))
            assert list(ranking.items()) == list(want.items())
            assert r == want_r
    assert joined >= 20 and rebuilt >= 20


def test_ceil_log2():
    assert [ceil_log2(n) for n in range(1, 9)] == [0, 1, 2, 2, 3, 3, 3, 3]


def test_validity_examples():
    p4 = path_tree(4)
    assert is_valid_edge_ranking(p4, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    assert not is_valid_edge_ranking(p4, {(0, 1): 1, (1, 2): 1, (2, 3): 2})
    k13 = star(3)
    assert is_valid_edge_ranking(k13, {(0, 1): 1, (0, 2): 2, (0, 3): 3})
    assert not is_valid_edge_ranking(k13, {(0, 1): 1, (0, 2): 2, (0, 3): 2})
    with pytest.raises(ValueError):
        is_valid_edge_ranking(p4, {(0, 1): 1})
    with pytest.raises(ValueError):
        is_valid_edge_ranking(p4, {(0, 1): 0, (1, 2): 1, (2, 3): 1})


@settings(max_examples=150)
@given(trees(), st.integers(min_value=0, max_value=10**6))
def test_validator_matches_naive_pairwise_check(tree, seed):
    rng = random.Random(seed)
    ranks = {e: rng.randrange(1, len(tree.edges) + 1) for e in tree.edges}
    fast = is_valid_edge_ranking(tree, ranks)
    assert fast == naive_is_valid_ranking(tree, ranks)


def test_optimal_paths_match_log_formula():
    for n in range(2, 18):
        ranking, r = optimal_edge_ranking(path_tree(n))
        assert r == ceil_log2(n)
        assert is_valid_edge_ranking(path_tree(n), ranking)


def test_optimal_stars_use_degree_many_ranks():
    for m in range(1, 9):
        ranking, r = optimal_edge_ranking(star(m))
        assert r == m
        assert is_valid_edge_ranking(star(m), ranking)


def test_optimal_degenerate_cases():
    _, r = optimal_edge_ranking(Tree(2, [(0, 1)]))
    assert r == 1
    _, r = optimal_edge_ranking(Tree(1, []))
    assert r == 0


def test_exhaustive_oracle_on_adversarial_edge_orderings():
    # relabeled paths whose separating middle edges sort last lexicographically;
    # a prefix-only separation check would accept invalid assignments here
    relabeled_p4 = Tree(5, [(0, 3), (1, 4), (3, 4), (2, 0)])
    assert naive_optimal_ranks(relabeled_p4)[1] == 3  # it is a 5-vertex path
    _, r = optimal_edge_ranking(relabeled_p4)
    assert r == 3
    zigzag = Tree(6, [(0, 4), (1, 5), (2, 4), (3, 5), (4, 5)])
    _, r = optimal_edge_ranking(zigzag)
    assert naive_optimal_ranks(zigzag)[1] == r


def test_optimal_matches_exhaustive_oracle_on_random_trees():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randrange(2, 11)
        tree = Tree(n, random_tree_edges(n, rng))
        _, r = optimal_edge_ranking(tree)
        assert r == naive_optimal_ranks(tree)[1]


def test_recursion_characterization_on_all_small_trees():
    # min over cut edges of 1 + max of the two sides equals the optimum
    trees_by_size = enumerate_trees(7)
    for n, shapes in trees_by_size.items():
        for tree in shapes:
            if not tree.edges:
                continue
            _, r = optimal_edge_ranking(tree)
            best = None
            for u, v in tree.edges:
                side = _component_vertices(tree, u, (u, v))
                rest = set(range(tree.n)) - side
                r1 = _optimal_on_subset(tree, side)
                r2 = _optimal_on_subset(tree, rest)
                cand = 1 + max(r1, r2)
                best = cand if best is None else min(best, cand)
            assert best == r


def _component_vertices(tree, start, banned):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in tree.neighbors(x):
            if y in seen or (min(x, y), max(x, y)) == banned:
                continue
            seen.add(y)
            stack.append(y)
    return seen


def _optimal_on_subset(tree, vertices):
    vertices = sorted(vertices)
    relabel = {v: i for i, v in enumerate(vertices)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in tree.edges
        if u in relabel and v in relabel
    ]
    _, r = optimal_edge_ranking(Tree(len(vertices), edges))
    return r


def test_heuristic_examples():
    _, r = heuristic_edge_ranking(path_tree(8))
    assert r == 3
    for m in (1, 3, 6):
        _, r = heuristic_edge_ranking(star(m))
        assert r == m


def test_heuristic_on_forty_edge_trees():
    rng = random.Random(12)
    for _ in range(15):
        tree = Tree(41, random_tree_edges(41, rng))
        ranking, r = heuristic_edge_ranking(tree)
        assert is_valid_edge_ranking(tree, ranking)
        assert r >= edge_ranking_lower_bound(tree)
        assert r <= len(tree.edges)


@settings(max_examples=80)
@given(trees())
def test_bound_chain_lower_le_optimal_le_heuristic_le_edges(tree):
    opt_ranking, opt = optimal_edge_ranking(tree)
    heur_ranking, heur = heuristic_edge_ranking(tree)
    assert is_valid_edge_ranking(tree, opt_ranking)
    assert is_valid_edge_ranking(tree, heur_ranking)
    assert edge_ranking_lower_bound(tree) <= opt <= heur <= len(tree.edges)


def test_ranks_are_normalized_gapless():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 10)
        tree = Tree(n, random_tree_edges(n, rng))
        for ranking, r in (
            optimal_edge_ranking(tree),
            heuristic_edge_ranking(tree),
        ):
            used = set(ranking.values())
            assert used == set(range(1, r + 1))


def test_lower_bound_examples():
    assert edge_ranking_lower_bound(path_tree(9)) == 4
    assert edge_ranking_lower_bound(star(5)) == 5
    assert edge_ranking_lower_bound(Tree(2, [(0, 1)])) == 1
    assert edge_ranking_lower_bound(Tree(1, [])) == 0


def _joined_clique_trees():
    """The joined complement clique trees of copath-9, fig2, a cowindmill
    and a graph whose complement splits into three parts."""
    split = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)]
    graphs = [gen_copath(9).graph, gen_fig_graph("fig2").graph,
              gen_cowindmill(5, 3).graph, Graph(9, split).complement()]
    return [join_clique_forest(complement_clique_tree(g)) for g in graphs]


def test_lower_bound_reads_joined_clique_trees():
    # the bound takes a clique tree as optimal_edge_ranking does, reading
    # its node count and kept neighbour lists, where it raised
    # AttributeError on the missing ``n``
    for work in _joined_clique_trees():
        bound = edge_ranking_lower_bound(work)
        assert bound == edge_ranking_lower_bound(Tree(work.node_count, work.edges))
        assert 1 <= bound <= optimal_edge_ranking(work)[1]


def test_ranking_layer_reads_a_clique_tree_as_a_tree():
    # every call of the ranking layer takes a joined clique tree as it is
    # and gives what it gives on the Tree with the same edges, where
    # heuristic_edge_ranking raised AttributeError on the missing ``n``
    for work in _joined_clique_trees():
        shape = Tree(work.node_count, work.edges)
        assert optimal_edge_ranking(work) == optimal_edge_ranking(shape)
        assert heuristic_edge_ranking(work) == heuristic_edge_ranking(shape)
        assert edge_ranking_lower_bound(work) == edge_ranking_lower_bound(shape)
        assert bfs_leaf_order(work) == bfs_leaf_order(shape)
        flat = dict.fromkeys(work.edges, 1)
        for ranks in (optimal_edge_ranking(shape)[0],
                      heuristic_edge_ranking(shape)[0], flat):
            assert is_valid_edge_ranking(work, ranks) == is_valid_edge_ranking(
                shape, ranks)
        assert not is_valid_edge_ranking(work, flat)


@settings(derandomize=True, max_examples=200)
@given(trees(min_n=1, max_n=60))
def test_heuristic_ranks_match_recursive_reference(tree):
    ranking, r = heuristic_edge_ranking(tree)
    assert (ranking, r) == naive_heuristic_ranks(tree)


@settings(derandomize=True, max_examples=200)
@given(trees(min_n=1, max_n=14))
def test_optimal_ranks_match_recursive_reference(tree):
    # optimal rank maps need not be equal, so compare r and check validity
    ranking, r = optimal_edge_ranking(tree)
    assert r == naive_optimal_ranks(tree)[1]
    assert is_valid_edge_ranking(tree, ranking)


@settings(derandomize=True, max_examples=400)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), max_size=4),
)
def test_combine_children_matches_brute_force(raw, repeats):
    # visible ranks over levels 1..6; ``repeats`` copies earlier lists, so
    # children with equal lists are common
    lists = [v << 1 for v in raw]
    for i, j in enumerate(repeats[: len(lists) - 1]):
        lists[i + 1] = lists[min(j, i)]
    ranks, union = combine_children(lists)
    assert union == naive_combine_children(lists)
    seen = 0
    for x, vis in zip(ranks, lists):
        assert x >= 1 and not vis >> x & 1
        mask = 1 << x | vis >> (x + 1) << (x + 1)
        assert not seen & mask
        seen |= mask
    assert seen == union


def test_one_child_rule_matches_brute_force():
    # the rule a vertex with one child applies, for every vis over levels 0..9
    for vis in range(1 << 10):
        x, union = _lowest_rank(vis, vis.bit_length())
        assert union == naive_combine_children([vis])
        assert x >= 1 and not vis >> x & 1
        # combine_children has no one-list branch: its general path agrees
        assert combine_children([vis]) == ([x], union)


def test_two_child_rule_matches_combine_children_on_every_pair():
    # every ordered pair of lists over levels 1..8, equal lists included:
    # the same ranks, in list order, and the same union
    for a in range(0, 1 << 9, 2):
        for b in range(0, 1 << 9, 2):
            assert _combine_two(a, b) == combine_children([a, b])


def _two_membership_trees():
    """Joined complement clique trees of two-membership instances on random,
    caterpillar and spider shapes."""
    rng = random.Random(39)
    shapes = [random_tree(d, seed) for d in (5, 20, 60) for seed in range(4)]
    shapes += [caterpillar_tree(s, l) for s, l in ((10, 10), (30, 30), (50, 50))]
    shapes += [_spider(legs, 3) for legs in (2, 3, 5)]
    for seed, shape in enumerate(shapes):
        mids = [rng.randrange(1, 3) for _ in shape.edges]
        sizes = [sum(m for e, m in zip(shape.edges, mids) if node in e)
                 + rng.randrange(1, 3) for node in range(shape.n)]
        g = gen_two_membership_cochordal(shape, sizes, mids, seed).graph
        yield join_clique_forest(complement_clique_tree(g))


def _spider(legs, length):
    """``legs`` paths of ``length`` edges each, joined at node 0."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges.append((0, first))
        edges += [(first + k, first + k + 1) for k in range(length - 1)]
    return Tree(1 + legs * length, edges)


def test_optimal_ranks_match_the_all_combine_reference():
    # the two-child rule leaves every rank as combine_children gave it
    trees = [caterpillar_tree(s, l) for s, l in ((5, 5), (50, 50), (100, 300))]
    trees += [_spider(legs, length) for legs in (2, 3, 7) for length in (1, 4, 30)]
    trees += [random_tree(n, seed) for n in (10, 100, 1000, 5000) for seed in range(3)]
    trees.append(star(1100))
    trees += list(_two_membership_trees())
    for seed in range(60):
        g = gen_random_chordal(10 + seed, (0.2, 0.4, 0.6)[seed % 3], seed)
        base = clique_tree(g)
        trees += [join_clique_forest(t) for t in (base, max_weight_clique_tree(base.nodes))]
        trees.append(join_clique_forest(complement_clique_tree(g.complement())))
    for tree in trees:
        ranks, r = optimal_edge_ranking(tree)
        want = reference_optimal_ranks(tree)
        assert ranks == want
        assert r == max(want.values(), default=0)


def test_one_child_vertices_make_no_combine_call(monkeypatch):
    calls = []
    combine = combine_children

    def counting(lists):
        calls.append(len(lists))
        return combine(lists)

    monkeypatch.setattr(ranking_module, "combine_children", counting)
    ranking, r = optimal_edge_ranking(path_tree(2000))
    assert r == ceil_log2(2000) and calls == []
    # node 0 in the middle of the path: the root alone has two children,
    # and the two-child rule ranks it
    middle = Tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)])
    ranking, r = optimal_edge_ranking(middle)
    assert r == ceil_log2(9) and calls == []
    assert is_valid_edge_ranking(middle, ranking)
    # a third path off the root: the one combine_children call left
    spider = Tree(10, middle.edges + ((0, 9),))
    ranking, r = optimal_edge_ranking(spider)
    assert calls == [3] and is_valid_edge_ranking(spider, ranking)
    del calls[:]
    # every spine vertex but the last has one leg and one spine child
    optimal_edge_ranking(caterpillar_tree(50, 50))
    assert calls == []
    optimal_edge_ranking(random_tree(20, 1))
    assert sorted(calls) == [3, 4, 5]


def test_ranked_joins_do_not_depend_on_the_edge_order():
    # the joined clique trees of the 252-graph set (the MCS sweep's and the
    # rebuilt one), ranked: the sweep runs in (rank, edge) order however
    # the edges come in
    rng = random.Random(31)
    swept = 0
    for n in range(8, 15):
        for density in (0.2, 0.35, 0.5):
            for seed in range(12):
                base = clique_tree(gen_random_chordal(n, density, seed))
                for tree in (base, max_weight_clique_tree(base.nodes)):
                    work = join_clique_forest(tree)
                    if work.node_count < 2:
                        continue
                    ranks = optimal_edge_ranking(work)[0]
                    edges = sorted(work.edges)
                    want = ranked_joins(work.node_count, edges, ranks)
                    assert [(k, e) for k, e, _, _ in want] == sorted(
                        (ranks[e], e) for e in edges
                    )
                    shuffled = list(edges)
                    rng.shuffle(shuffled)
                    for order in (shuffled, edges[::-1]):
                        assert ranked_joins(work.node_count, order, ranks) == want
                    swept += 1
    assert swept >= 480


def test_optimal_matches_search_reference_on_all_trees_to_eleven_nodes():
    for shapes in enumerate_trees(11).values():
        for tree in shapes:
            ranking, r = optimal_edge_ranking(tree)
            assert r == naive_optimal_ranks(tree)[1]
            assert is_valid_edge_ranking(tree, ranking)


def test_optimal_matches_search_reference_up_to_sixty_nodes():
    # random, path-like and bushy trees; the reference is exponential, so a
    # tree is compared only where it solves at most 500 subtrees
    rng = random.Random(60)
    compared = 0
    for i in range(150):
        n = rng.randrange(2, 61)
        if i % 3 == 0:
            edges = random_tree_edges(n, rng)
        elif i % 3 == 1:
            edges = [(rng.randrange(max(0, v - 2), v), v) for v in range(1, n)]
        else:
            edges = [(rng.randrange(min(v, 4)), v) for v in range(1, n)]
        tree = Tree(n, edges)
        ranking, r = optimal_edge_ranking(tree)
        assert is_valid_edge_ranking(tree, ranking)
        reference = naive_optimal_ranks(tree, node_cap=500)
        if reference is not None:
            assert r == reference[1]
            compared += 1
    assert compared >= 100


def test_optimal_between_lower_bound_and_heuristic_on_large_trees():
    for n, seed in ((200, 0), (500, 1), (1000, 2), (2000, 3)):
        tree = random_tree(n, seed)
        ranking, r = optimal_edge_ranking(tree)
        assert is_valid_edge_ranking(tree, ranking)
        assert edge_ranking_lower_bound(tree) <= r <= heuristic_edge_ranking(tree)[1]


def test_optimal_ranks_wide_and_long_trees():
    # no size cap and no recursion: a 1100-leaf star, a 1000-leg spider and a
    # 20000-node path, with their known r
    tree = star(1100)
    ranking, r = optimal_edge_ranking(tree)
    assert r == 1100 and is_valid_edge_ranking(tree, ranking)
    legs = [(0, 1 + 2 * i) for i in range(1000)]
    legs += [(1 + 2 * i, 2 + 2 * i) for i in range(1000)]
    spider = Tree(2001, legs)  # 1000 legs of 2 edges each
    ranking, r = optimal_edge_ranking(spider)
    assert r == 1001 and is_valid_edge_ranking(spider, ranking)
    tree = path_tree(20000)
    ranking, r = optimal_edge_ranking(tree)
    assert r == ceil_log2(20000) and is_valid_edge_ranking(tree, ranking)


def test_heuristic_ranks_a_wide_star_without_recursion():
    tree = star(1100)
    ranking, r = heuristic_edge_ranking(tree)
    assert r == 1100
    assert is_valid_edge_ranking(tree, ranking)


class _CountingLists(tuple):
    """Neighbour lists that count how often a list is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def test_heuristic_builds_one_side_per_cut():
    # a count, not a clock: each subtree is walked twice, once for the
    # balance of its cuts and once for the chosen side, so a path reads
    # about 2 n log2 n lists; a side built per inner edge of every subtree
    # would read millions
    tree = path_tree(2000)
    counting = _CountingLists(tree._adj)
    object.__setattr__(tree, "_adj", counting)  # a Tree refuses assignment
    ranking, r = heuristic_edge_ranking(tree)
    assert r == ceil_log2(2000)
    assert counting.reads <= 2 * tree.n * ceil_log2(tree.n)
