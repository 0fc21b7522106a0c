#!/usr/bin/env python3
"""
Covering a co-chordal graph, stage by stage
===========================================

The constructive pipeline for a graph whose complement is chordal:

1. build a clique tree of the complement,
2. rank its edges (an edge-ranking: equal ranks must be separated by a
   larger rank on the path between them),
3. cut the tree top rank first, emitting one biclique per cut, grouped
   into levels,
4. greedily merge each level into as few bicliques as possible.

We trace it on the 5-vertex co-path, whose complement is a plain path.
"""

from bccover import (
    Tree,
    clique_tree,
    cover_cochordal,
    find_biclique_levels,
    gen_copath,
    merge_bicliques,
    optimal_edge_ranking,
    verify_cover,
)
from bccover.graph import mask_vertices

inst = gen_copath(5)
g = inst.graph
name = inst.label_of
print("graph: vertices a..e, edges",
      " ".join(name(u) + name(v) for u, v in g.edges()))

# Stage 1: clique tree of the complement (a path a-b-c-d-e, so its maximal
# cliques are the four consecutive pairs).  Each clique is a vertex mask, and
# each tree edge's middle set is the mask of its two cliques' intersection.

tree = clique_tree(g.complement())
print("\nclique tree of the complement:")
for i, node in enumerate(tree.nodes):
    print("  K%d = {%s}" % (i, ",".join(map(name, mask_vertices(node)))))
print("  tree edges:", tree.edges, "middle sets:",
      [set(map(name, mask_vertices(m))) for m in tree.mids])

# Stage 2: optimal edge-ranking of the clique tree.  A path with 4 nodes
# needs ceil(log2(4)) = 2 ranks.

ranking, r = optimal_edge_ranking(Tree(tree.node_count, tree.edges))
print("\nranking (r = %d):" % r, ranking.ranks)

# Stage 3: cut top rank first.  The rank-2 edge splits the tree in half and
# produces the big biclique; the two rank-1 edges produce singleton pairs at
# level 2.

levels = find_biclique_levels(tree, ranking)
for level in sorted(levels):
    rendered = [
        "({%s},{%s}) ord %d"
        % (",".join(map(name, sorted(b.left))),
           ",".join(map(name, sorted(b.right))), o)
        for b, o in levels[level]
    ]
    print("level %d: %s" % (level, "; ".join(rendered)))

# Stage 4: merge within each level.  The two level-2 bicliques share c on
# one side, and a-e are not adjacent in the complement, so they fuse.

merged = merge_bicliques(levels[2], g)
print("level 2 after merging:", merged)

cover, meta = cover_cochordal(g)
print("\nfull pipeline: cover of size %d (levels before %s, after %s)"
      % (len(cover), meta.level_sizes_before, meta.level_sizes_after))
assert verify_cover(g, cover)
assert len(cover) == inst.expected["bc"]
print("verified; matches the known cover number", inst.expected["bc"])
