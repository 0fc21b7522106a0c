#!/usr/bin/env python3
"""
Edge-rankings of trees
======================

An edge-ranking labels tree edges with 1..r so that any two equal labels are
separated by a bigger one; r is the number of "levels" a divide-and-conquer
pass over the tree needs.  Paths need ceil(log2(n)) ranks, stars need one
rank per edge, and everything else lands in between.
"""

import random

from bccover import (
    Tree,
    ceil_log2,
    edge_ranking_lower_bound,
    heuristic_edge_ranking,
    is_valid_edge_ranking,
    optimal_edge_ranking,
)

print("paths: optimal rank count is ceil(log2(number of nodes))")
for n in (2, 4, 8, 9, 16, 17):
    tree = Tree(n, [(i, i + 1) for i in range(n - 1)])
    ranking, r = optimal_edge_ranking(tree)  # ranking: {(i, j): rank}
    print("  P%-3d r=%d  ranks=%s" % (n, r, [ranking[e] for e in tree.edges]))
    assert r == ceil_log2(n)

print("\nstars: every edge needs its own rank (they pairwise touch)")
for m in (3, 5, 8):
    tree = Tree(m + 1, [(0, i) for i in range(1, m + 1)])
    _, r = optimal_edge_ranking(tree)
    print("  star with %d edges: r=%d" % (m, r))
    assert r == m

print("\nrandom trees: exact vs balanced-separator heuristic")
rng = random.Random(1)
for _ in range(6):
    n = rng.randrange(5, 40)
    tree = Tree(n, [(rng.randrange(v), v) for v in range(1, n)])
    opt_ranking, opt = optimal_edge_ranking(tree)
    heur_ranking, heur = heuristic_edge_ranking(tree)
    print("  n=%-2d  lower bound %d  exact %d  heuristic %d"
          % (n, edge_ranking_lower_bound(tree), opt, heur))
    assert is_valid_edge_ranking(tree, opt_ranking)
    assert is_valid_edge_ranking(tree, heur_ranking)
    assert edge_ranking_lower_bound(tree) <= opt <= heur
