"""Instance generators: worked-example graphs and seeded random families.

The named instances carry their known cover numbers so tests and the CLI can
pin results without re-deriving them.  All random generators are
deterministic functions of their seed.

Graphs are built as neighbourhood masks, as :class:`Graph` stores them, and
no edge list is made.  A clique or windmill blade is one vertex mask that
each member ORs into its own; :func:`gen_random_chordal` grows each clique
by ANDing its members' masks, O(n * k) big-int steps for k-vertex cliques.
Every seeded output is the graph that the earlier set-based generators
gave, bit for bit.
"""

from __future__ import annotations

import random

from ._record import FrozenRecord, setfield
from .graph import Graph, complete_graph, mask_vertices, path_graph, vertex_mask
from .ranking import Tree, ceil_log2


def _letters(n):
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple("v%d" % i for i in range(n))


class NamedInstance(FrozenRecord):
    """A generated graph with its label table and known values."""

    __slots__ = ("name", "graph", "labels", "expected", "source", "shape")

    def __init__(self, name, graph, labels, expected=None, source="", shape=None):
        setfield(self, "name", name)
        setfield(self, "graph", graph)
        setfield(self, "labels", labels)
        setfield(self, "expected", {} if expected is None else expected)
        setfield(self, "source", source)
        setfield(self, "shape", shape)

    def label_of(self, v):
        return self.labels[v]


def gen_copath(n):
    """Complement of the n-vertex path; its cover number is
    ceil(log2(n - 1))."""
    if n < 2:
        raise ValueError("co-path needs at least 2 vertices")
    g = path_graph(n).complement()
    return NamedInstance(
        name="copath-%d" % n,
        graph=g,
        labels=_letters(n),
        expected={"bc": ceil_log2(n - 1), "mc_complement": n - 1},
        source="co-path closed form",
        shape=Tree(n - 1, [(i, i + 1) for i in range(n - 2)]) if n > 2 else Tree(1, []),
    )


def windmill_graph(m, k):
    """m copies of K_k sharing vertex 0."""
    if m < 1 or k < 2:
        raise ValueError("windmill needs m >= 1 blades of size k >= 2")
    blade = (1 << (k - 1)) - 1
    return _clique_union(
        1 + m * (k - 1), (blade << (1 + b * (k - 1)) | 1 for b in range(m))
    )


def _clique_union(n, cliques):
    """Graph on 0..n-1 whose edges are the pairs inside some vertex mask of
    ``cliques``: each member ORs in its clique's mask, one big-int step per
    member."""
    masks = [0] * n
    for clique in cliques:
        for u in mask_vertices(clique):
            masks[u] |= clique
    return Graph._from_masks([mask & ~(1 << u) for u, mask in enumerate(masks)])


def gen_cowindmill(m, k):
    """Complement of the windmill with m blades of size k; its cover number
    is ceil(log2(m))."""
    g = windmill_graph(m, k).complement()
    return NamedInstance(
        name="cowindmill-%d-%d" % (m, k),
        graph=g,
        labels=_letters(g.n),
        expected={"bc": ceil_log2(m), "mc_complement": m},
        source="co-windmill closed form",
    )


_FIGURE_IDS = ("fig1_c4c", "fig1_k5", "fig2", "fig3")


def gen_fig_graph(instance_id):
    """Small catalog of worked-example instances with pinned values."""
    if instance_id == "fig1_c4c":
        return NamedInstance(
            name="fig1_c4c",
            graph=Graph(4, [(0, 2), (1, 3)]),
            labels=_letters(4),
            expected={"bc": 2, "mc_complement": 4, "lb_log_mc": 2, "lb_log_chi": 1},
            source="4-cycle complement example",
        )
    if instance_id == "fig1_k5":
        return NamedInstance(
            name="fig1_k5",
            graph=complete_graph(5),
            labels=_letters(5),
            expected={"bc": 3, "mc_complement": 5, "lb_log_mc": 3},
            source="complete graph example",
        )
    if instance_id == "fig2":
        inst = gen_copath(5)
        return NamedInstance(
            name="fig2",
            graph=inst.graph,
            labels=inst.labels,
            expected={"bc": 2, "mc_complement": 4},
            source="5-vertex co-path walkthrough",
            shape=inst.shape,
        )
    if instance_id == "fig3":
        edges = [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)]
        return NamedInstance(
            name="fig3",
            graph=Graph(6, edges),
            labels=_letters(6),
            expected={"bc": 3, "mc_complement": 4},
            source="two-rank counterexample",
        )
    raise ValueError(
        "unknown instance id %r (known: %s)" % (instance_id, ", ".join(_FIGURE_IDS))
    )


def gen_random_chordal(n, density=0.5, seed=0):
    """Random chordal graph built by simplicial vertex additions.

    Each new vertex attaches to a greedily grown clique of the current graph;
    the density knob scales the target clique size (0 gives a tree, 1 the
    complete graph).  Chordal by construction: the reverse insertion order is
    a perfect elimination ordering.

    The clique grows from a random anchor; each next member is drawn from
    the ascending list of vertices adjacent to every member so far, the set
    bits of ``common``, the AND of the members' neighbourhood masks.  A
    k-vertex clique costs O(k) big-int steps and k candidate listings, so
    the graph costs O(n * k) big-int steps; the draws, and so every seeded
    graph, are those of the earlier set-based loop.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    masks = [0] * n
    for v in range(1, n):
        target = 1 + round(density * (v - 1))
        anchor = rng.randrange(v)
        clique = 1 << anchor
        common = masks[anchor]
        for _ in range(target - 1):
            if not common:
                break
            u = rng.choice(mask_vertices(common))
            clique |= 1 << u
            common &= masks[u]
        masks[v] = clique
        for u in mask_vertices(clique):
            masks[u] |= 1 << v
    return Graph._from_masks(masks)


def gen_two_membership_cochordal(tree, node_sizes, mid_sizes, seed=0):
    """Co-chordal instance whose complement's clique tree is ``tree`` and in
    which every vertex of the complement lies in at most two maximal cliques.

    ``node_sizes[i]`` is the total size of clique i; ``mid_sizes`` aligns
    with ``tree.edges`` and gives each middle set's size.  Middle sets are
    pairwise disjoint by construction (each lives on exactly its one tree
    edge), so membership counts never exceed two.  Vertex ids are shuffled by
    the seed.  Returns the complement graph as a :class:`NamedInstance`.
    """
    d = tree.n
    if len(node_sizes) != d:
        raise ValueError("need one size per tree node")
    if len(mid_sizes) != len(tree.edges):
        raise ValueError("need one size per tree edge")
    if any(s < 1 for s in node_sizes) or any(s < 1 for s in mid_sizes):
        raise ValueError("sizes must be at least 1")
    members = [[] for _ in range(d)]
    n = 0
    for (i, j), size in zip(tree.edges, mid_sizes):
        mid = range(n, n + size)
        members[i].append(mid)
        members[j].append(mid)
        n += size
    for i in range(d):
        total = sum(map(len, members[i]))
        if node_sizes[i] < total:
            raise ValueError(
                "clique %d of size %d cannot hold middle sets totalling %d"
                % (i, node_sizes[i], total)
            )
        if len(members[i]) == 1 and node_sizes[i] == total:
            raise ValueError(
                "leaf clique %d equals its middle set and would not be maximal" % i
            )
        members[i].append(range(n, n + node_sizes[i] - total))
        n += node_sizes[i] - total

    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    chordal = _clique_union(
        n, (vertex_mask(perm[v] for part in parts for v in part) for parts in members)
    )
    return NamedInstance(
        name="two-membership-%d-%d" % (d, seed),
        graph=chordal.complement(),
        labels=_letters(n),
        expected={"mc_complement": d},
        source="declared clique-tree construction",
        shape=tree,
    )


# -- tree shapes for the two-membership generator ------------------------------


def path_tree(d):
    return Tree(d, [(i, i + 1) for i in range(d - 1)])


def star_tree(d):
    return Tree(d, [(0, i) for i in range(1, d)])


def caterpillar_tree(spine, legs):
    """Path of ``spine`` nodes with ``legs`` extra leaves hung off it,
    round-robin."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    node = spine
    for t in range(legs):
        edges.append((t % spine, node))
        node += 1
    return Tree(spine + legs, edges)


def random_tree(d, seed=0):
    rng = random.Random(seed)
    return Tree(d, [(rng.randrange(v), v) for v in range(1, d)])
