import random
from collections import Counter
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bccover import (
    CliqueTree,
    NotChordalError,
    clique_tree,
    clique_tree_to_text,
    complete_graph,
    cycle_graph,
    gen_fig_graph,
    gen_random_chordal,
    is_chordal,
    is_perfect_elimination_order,
    join_clique_forest,
    max_weight_clique_tree,
    mcs_order,
    mis_membership_counts,
    path_graph,
    verify_clique_tree,
)
import bccover.chordal as chordal_module
from bccover.ranking import neighbor_lists
from bccover.graph import Graph, mask_vertices, vertex_mask
from bccover.gen import gen_copath, gen_two_membership_cochordal, random_tree
from helpers import (
    er_graph,
    induced_subgraph,
    naive_mcs_order,
    naive_verify_clique_tree,
    reference_clique_tree,
    reference_max_member_clique_tree,
)


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_mcs_order_is_bijection():
    order = mcs_order(path_graph(5))
    assert sorted(order) == list(range(5))
    assert is_perfect_elimination_order(path_graph(5), order)


@st.composite
def mcs_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    kind = draw(st.sampled_from(["gnp", "chordal", "cochordal"]))
    if kind == "gnp":
        p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]))
        return er_graph(n, p, random.Random(seed))
    h = gen_random_chordal(n, draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])), seed)
    return h if kind == "chordal" else h.complement()


@settings(derandomize=True, max_examples=300)
@given(mcs_cases())
def test_mcs_order_matches_quadratic_reference(g):
    assert mcs_order(g) == naive_mcs_order(g)


def test_mcs_order_of_a_long_path():
    # the complement of copath-n: vertex 0 takes position n, then each next
    # vertex is the one unlabeled vertex with a labeled neighbour
    g = path_graph(3000)
    assert mcs_order(g) == tuple(range(2999, -1, -1))
    assert is_perfect_elimination_order(g, mcs_order(g))


def test_mcs_on_complete_graph_any_order_is_peo():
    k3 = complete_graph(3)
    assert is_perfect_elimination_order(k3, mcs_order(k3))
    for perm in permutations(range(3)):
        assert is_perfect_elimination_order(k3, perm)


def test_c4_has_no_peo_at_all():
    c4 = cycle_graph(4)
    for perm in permutations(range(4)):
        assert not is_perfect_elimination_order(c4, perm)
    assert not is_perfect_elimination_order(c4, mcs_order(c4))


def test_fig3_complement_alphabetical_order_is_peo():
    g = gen_fig_graph("fig3").graph.complement()
    assert is_perfect_elimination_order(g, tuple(range(6)))


def test_peo_rejects_malformed_ordering():
    with pytest.raises(ValueError):
        is_perfect_elimination_order(path_graph(3), (0, 0, 2))


def test_is_chordal_basics():
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    for n in (1, 2, 5, 9):
        assert is_chordal(path_graph(n))
    assert is_chordal(Graph(0))
    assert is_chordal(Graph(4))  # edgeless


def test_is_chordal_matches_networkx_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 10)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ],
        )
        assert is_chordal(g) == nx.is_chordal(to_nx(g))


def test_random_chordal_generator_outputs_are_chordal():
    for seed in range(200):
        g = gen_random_chordal(2 + seed % 11, (seed % 5) / 4, seed)
        assert is_chordal(g)


def test_clique_tree_examples():
    t = clique_tree(path_graph(5))
    assert all(isinstance(k, int) for k in t.nodes)
    assert sorted(map(mask_vertices, t.nodes)) == [[0, 1], [1, 2], [2, 3], [3, 4]]
    degrees = [sum(1 for e in t.edges if i in e) for i in range(4)]
    assert sorted(degrees) == [1, 1, 2, 2]  # a path of cliques

    t = clique_tree(complete_graph(6))
    assert t.node_count == 1 and t.edges == ()

    g3c = gen_fig_graph("fig3").graph.complement()
    t = clique_tree(g3c)
    assert [mask_vertices(k) for k in t.nodes] == [
        [0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5],
    ]
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    assert [mask_vertices(m) for m in t.mids] == [[1, 2], [2, 3], [3, 4]]


def test_clique_tree_rejects_non_chordal_with_certificate():
    with pytest.raises(NotChordalError) as err:
        clique_tree(cycle_graph(4))
    assert err.value.position is not None
    assert 1 <= err.value.position <= 4


def _clique_tree_outcome(build, g):
    try:
        tree = build(g)
    except NotChordalError as exc:
        return str(exc), exc.position
    return tree.nodes, tree.edges


def test_one_sweep_matches_the_three_pass_reference():
    # the sweep's two mask tests against MCS order, elimination check and
    # replay: the same nodes and edges, or the same message and position
    rng = random.Random(2358)
    chordal = not_chordal = 0
    for k in range(2400):
        n = rng.randrange(0, 25)
        if k % 3 == 0:
            g = er_graph(n, rng.random(), rng)
        else:
            h = gen_random_chordal(max(n, 1), rng.random(), k)
            g = h if k % 3 == 1 else h.complement()
        got = _clique_tree_outcome(clique_tree, g)
        assert got == _clique_tree_outcome(reference_clique_tree, g), k
        if isinstance(got[1], int):
            not_chordal += 1
        else:
            chordal += 1
    assert chordal >= 500 and not_chordal >= 500


def test_clique_tree_parents_match_the_max_over_members_rule():
    # a clique started from a one-member neighbourhood reads its parent off
    # that member's clique; the reference takes the max over the members
    # every time.  Co-path complements start every clique from one member,
    # random chordal graphs and two-membership complements also from more
    rng = random.Random(37)
    graphs = [gen_copath(n).graph.complement() for n in range(3, 60)]
    graphs += [gen_random_chordal(rng.randrange(1, 40), rng.random(), seed)
               for seed in range(150)]
    for seed in range(60):
        d = rng.randrange(2, 10)
        shape = random_tree(d, seed)
        mids = [rng.randrange(1, 4) for _ in shape.edges]
        sizes = [sum(m for e, m in zip(shape.edges, mids) if node in e)
                 + rng.randrange(1, 4) for node in range(d)]
        graphs.append(gen_two_membership_cochordal(
            shape, sizes, mids, seed).graph.complement())
    bases = Counter()
    for g in graphs:
        want, sizes = reference_max_member_clique_tree(g)
        got = clique_tree(g)
        assert (got.nodes, got.edges) == (want.nodes, want.edges)
        bases.update(min(size, 2) for size in sizes)
    assert bases[1] >= 1000 and bases[2] >= 500


def test_clique_tree_runs_the_elimination_check_only_on_failure(monkeypatch):
    calls = Counter()
    for name in ("mcs_order", "_peo_failure"):
        original = getattr(chordal_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chordal_module, name, counted)
    for g in (path_graph(9), gen_random_chordal(30, 0.4, 1), Graph(3)):
        clique_tree(g)
    assert calls == {}
    with pytest.raises(NotChordalError):
        clique_tree(cycle_graph(6))
    assert calls == {"mcs_order": 1, "_peo_failure": 1}


def test_clique_tree_on_disconnected_graph_is_forest():
    g = Graph(5, [(0, 1), (2, 3)])  # plus isolated vertex 4
    t = clique_tree(g)
    assert t.node_count == 3
    assert len(t.edges) == 0
    assert verify_clique_tree(g, t)


def test_clique_tree_node_sets_match_networkx_cliques():
    rng = random.Random(23)
    for seed in range(60):
        g = gen_random_chordal(rng.randrange(2, 13), rng.random(), seed)
        t = clique_tree(g)
        ours = sorted(map(mask_vertices, t.nodes))
        theirs = sorted(sorted(c) for c in nx.find_cliques(to_nx(g)))
        assert ours == theirs
        assert t.node_count <= g.n


def test_verify_clique_tree_property():
    rng = random.Random(7)
    for seed in range(200):
        g = gen_random_chordal(rng.randrange(1, 14), rng.random(), seed + 1000)
        assert verify_clique_tree(g, clique_tree(g))


def test_verify_rejects_star_rewiring_of_fig3_tree():
    g3c = gen_fig_graph("fig3").graph.complement()
    t = clique_tree(g3c)
    hub = 3  # {d,e,f}
    edges = tuple(sorted((min(i, hub), max(i, hub)) for i in range(3)))
    star = CliqueTree(t.nodes, edges)
    assert not verify_clique_tree(g3c, star)


def test_verify_rejects_single_node_tree_for_wrong_graph():
    assert verify_clique_tree(complete_graph(3), clique_tree(complete_graph(3)))
    bad = CliqueTree((vertex_mask({0, 1}),), ())
    assert not verify_clique_tree(complete_graph(3), bad)
    out_of_range = CliqueTree((vertex_mask({0, 1, 2, 3}),), ())
    assert not verify_clique_tree(complete_graph(3), out_of_range)


def _forest_or_refused(nodes, edges):
    """Yields ``CliqueTree(nodes, edges)`` when the edges form a forest (by
    networkx, counting a repeated edge); else nothing, once the record has
    refused them when made."""
    multigraph = nx.MultiGraph(edges)
    multigraph.add_nodes_from(range(len(nodes)))
    if nx.is_forest(multigraph):
        yield CliqueTree(nodes, edges)
        return
    with pytest.raises(ValueError, match="closes a cycle"):
        CliqueTree(nodes, edges)


def _clique_tree_variants(t, n, rng):
    """Trees over the cliques of ``t`` (a clique tree of a graph on ``n``
    vertices), some valid and some not: ``t`` itself, its low-degree
    rebuild and a relabelling, then a duplicated, shrunk, dropped or
    out-of-range node, random rewirings, dropped, repeated and extra edges,
    and random forests over the nodes.  A record is a forest when made: a
    relabelling with a pair written j > i, and a rewiring or an extra edge
    that repeats an edge or closes a cycle, are refused by the constructor,
    which is checked here, and only the ordered forest is yielded."""
    nodes, edges, d = list(t.nodes), list(t.edges), t.node_count
    yield t
    yield max_weight_clique_tree(nodes)
    perm = list(range(d))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j])[:: rng.choice((1, -1))] for i, j in edges]
    relabelled = tuple(nodes[perm.index(i)] for i in range(d))
    if any(i > j for i, j in pairs):
        with pytest.raises(ValueError, match="not in order"):
            CliqueTree(relabelled, tuple(sorted(pairs)))
    yield CliqueTree(relabelled, tuple(sorted(tuple(sorted(e)) for e in pairs)))
    k = rng.randrange(d)
    yield CliqueTree(tuple(nodes + [nodes[k]]), tuple(edges + [(k, d)]))
    yield CliqueTree(tuple(nodes + [nodes[k]]), tuple(edges))
    low = nodes[k] & -nodes[k]
    shrunk = nodes[:k] + [nodes[k] ^ low] + nodes[k + 1:]
    yield CliqueTree(tuple(shrunk), tuple(edges))
    yield CliqueTree(tuple(nodes + [nodes[k] ^ low]), tuple(edges + [(k, d)]))
    wider = nodes[:k] + [nodes[k] | 1 << n] + nodes[k + 1:]
    yield CliqueTree(tuple(wider), tuple(edges))
    yield CliqueTree(tuple(nodes + [1 << n]), tuple(edges))
    relabel = lambda i: i - (i > k)
    yield CliqueTree(
        tuple(nodes[:k] + nodes[k + 1:]),
        tuple((relabel(i), relabel(j)) for i, j in edges if k not in (i, j)),
    )
    if d < 2:
        return
    for _ in range(3):  # replace one edge by a random one
        rewired = edges[:]
        if rewired:
            rewired.pop(rng.randrange(len(rewired)))
        i, j = rng.sample(range(d), 2)
        yield from _forest_or_refused(
            tuple(nodes), tuple(rewired + [(min(i, j), max(i, j))]))
    i, j = rng.sample(range(d), 2)  # an extra edge: a cycle, unless a join
    yield from _forest_or_refused(
        tuple(nodes), tuple(edges + [(min(i, j), max(i, j))]))
    if edges:
        yield CliqueTree(tuple(nodes), tuple(edges[1:]))
        assert not list(_forest_or_refused(tuple(nodes), tuple(edges + [edges[0]])))
    for _ in range(3):  # a random forest over the nodes
        parent = list(range(d))
        forest = []
        pairs = list(combinations(range(d), 2))
        rng.shuffle(pairs)
        for i, j in pairs[:d]:
            while parent[i] != i:
                i = parent[i]
            while parent[j] != j:
                j = parent[j]
            if i != j:
                parent[i] = j
                forest.append((min(i, j), max(i, j)))
        yield CliqueTree(tuple(nodes), tuple(sorted(forest)))


def test_verify_clique_tree_matches_pairwise_reference():
    # the per-vertex count agrees with the pairwise BFS path check, on
    # trees over the cliques of random chordal graphs (some disconnected)
    rng = random.Random(1993)
    verdicts = Counter()
    for seed in range(120):
        g = gen_random_chordal(rng.randrange(1, 10), rng.random(), seed)
        if seed % 3 == 0:
            h = gen_random_chordal(rng.randrange(1, 5), rng.random(), seed + 1)
            g = Graph(g.n + h.n, list(g.edges())
                      + [(u + g.n, v + g.n) for u, v in h.edges()])
        for tree in _clique_tree_variants(clique_tree(g), g.n, rng):
            expected = naive_verify_clique_tree(g, tree)
            assert verify_clique_tree(g, tree) is expected, (seed, tree)
            verdicts[expected] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 600


def test_built_trees_equal_the_checked_record():
    # the sweep's tree, the rebuild's and the joined forest skip the shape
    # check when made; each equals the public record made from its fields,
    # which runs it, so no non-forest reaches the unchecked path unseen
    graphs = [gen_random_chordal(n, density, seed) for n in range(8, 61)
              for density in (0.2, 0.35, 0.5) for seed in range(5)]
    graphs += [gen_copath(k).graph.complement() for k in range(2, 41)]
    rng = random.Random(46)
    for seed in range(60):  # disjoint unions of two to four pieces
        edges, n = [], 0
        for k in range(2 + seed % 3):
            part = gen_random_chordal(rng.randrange(1, 20), rng.random(), seed + k)
            edges += [(n + u, n + v) for u, v in part.edges()]
            n += part.n
        graphs.append(Graph(n, edges))
    joined = 0
    for g in graphs:
        base = clique_tree(g)
        for tree in (base, max_weight_clique_tree(base.nodes)):
            work = join_clique_forest(tree)
            joined += work is not tree
            for built in (tree, work):
                assert CliqueTree(built.nodes, built.edges) == built, g
    assert len(graphs) == 894 and joined >= 100


def test_counting_identity_mids_plus_n_equals_clique_sizes():
    for seed in range(80):
        g = gen_random_chordal(2 + seed % 12, (seed % 4) / 3, seed)
        t = clique_tree(g)
        assert sum(m.bit_count() for m in t.mids) + g.n == sum(
            k.bit_count() for k in t.nodes
        )


def test_subtrees_of_clique_trees_are_clique_trees():
    rng = random.Random(99)
    for seed in range(150):
        g = gen_random_chordal(rng.randrange(2, 12), rng.random(), seed)
        t = clique_tree(g)
        if t.node_count < 2 or len(t.edges) == 0:
            continue
        # grow a random connected subtree
        adj = neighbor_lists(t.node_count, t.edges)
        start = rng.randrange(t.node_count)
        chosen = {start}
        frontier = set(adj[start])
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
        new_nodes = tuple(
            vertex_mask(to_new[v] for v in mask_vertices(t.nodes[i]))
            for i in sub_nodes
        )
        new_edges = tuple(
            sorted(
                (relabel[i], relabel[j])
                for i, j in t.edges
                if i in chosen and j in chosen
            )
        )
        sub_tree = CliqueTree(new_nodes, new_edges)
        assert verify_clique_tree(induced, sub_tree)


def test_mis_membership_examples():
    counts, flag = mis_membership_counts(gen_fig_graph("fig2").graph)
    assert counts == (1, 2, 2, 2, 1) and flag

    counts, flag = mis_membership_counts(gen_fig_graph("fig3").graph)
    assert counts == (1, 2, 3, 3, 2, 1) and not flag

    counts, flag = mis_membership_counts(complete_graph(6))
    assert counts == (1,) * 6 and flag

    with pytest.raises(NotChordalError):
        mis_membership_counts(cycle_graph(5))  # C5 complement is C5


def test_clique_tree_serialization():
    text = clique_tree_to_text(clique_tree(path_graph(3)))
    assert text == "K0: 0 1\nK1: 1 2\nT: 0 1 | mid: 1\n"
