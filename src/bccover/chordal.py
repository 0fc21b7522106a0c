"""Chordality recognition and clique trees via maximum cardinality search.

MCS labels vertices from position n down to 1, always taking an unlabeled
vertex with the largest number of labeled neighbors (ties broken by smallest
index, for determinism).  On a chordal graph the resulting ordering is a
perfect elimination ordering.  :func:`clique_tree` runs one sweep that emits
the maximal cliques together with a tree on them and, with one mask test
per vertex, proves the graph chordal as it goes.  Each clique is an ``int``
vertex mask (bit v set iff v is in it) from the sweep on; the "middle set" of
a tree edge, the intersection of its end cliques, is derived from the two
masks when it is read.

A disconnected chordal graph yields a clique *forest* with one tree per
component; ``CliqueTree`` holds forests as well.
"""

from __future__ import annotations

from ._record import FrozenRecord, setfield
from .errors import NotChordalError
from .graph import find_root, mask_vertices
from .ranking import check_edges, neighbor_lists


class CliqueTree(FrozenRecord):
    """Maximal cliques of a chordal graph arranged in a tree (or forest).

    ``nodes[i]`` is a maximal clique as an ``int`` vertex mask; ``edges``
    are pairs of node indices with i < j, refused when made if out of range
    or a loop (``ranking.check_edges``).  ``mids[k]``, the middle set of
    ``edges[k]``, is derived: the mask of the two end cliques' intersection,
    computed on each read.  The sorted neighbour lists ``_adj``, as
    :class:`bccover.ranking.Tree` keeps them, are derived from the edges
    on first read and kept, outside equality, hashing and ``repr``.
    """

    __slots__ = ("nodes", "edges", "_adj")
    _hidden = ("_adj",)

    def __init__(self, nodes, edges):
        check_edges(len(nodes), edges)
        setfield(self, "nodes", nodes)
        setfield(self, "edges", edges)

    def _values(self):
        return self.nodes, self.edges

    def __getattr__(self, name):
        # reached only for a slot not yet set: the neighbour lists ``_adj``
        # are built on first use, so the ranking and the level cuts of one
        # tree share one build
        if name != "_adj":
            raise AttributeError(
                "%r object has no attribute %r" % (type(self).__name__, name)
            )
        adj = tuple(map(tuple, neighbor_lists(len(self.nodes), self.edges)))
        setfield(self, "_adj", adj)
        return adj

    @property
    def node_count(self):
        return len(self.nodes)

    @property
    def mids(self):
        nodes = self.nodes
        return tuple(nodes[i] & nodes[j] for i, j in self.edges)


def _mcs(g):
    """Maximum cardinality search of ``g``: yields ``(v, k)``, the vertex
    given the next position, n first, and its number k of labeled
    neighbours.

    Among vertices with equally many labeled neighbors the smallest index
    wins.  The unlabeled vertices are kept in one mask per labeled-neighbour
    count (a bucket queue): the next vertex is the lowest bit of the highest
    non-empty bucket, and its unlabeled neighbours move up one bucket.  Every
    unlabeled vertex sits in a bucket at or below the one just emptied, so a
    step walks down from there and stops at the last bucket holding one of
    the neighbours.  A step that takes a vertex from bucket k touches at most
    buckets 0..k, and those k sum to m over the whole search, so it takes
    O(n + m) mask operations; a step whose neighbours are all labeled
    touches none.
    """
    n = g.n
    masks = g.neighbor_masks()
    unlabeled = (1 << n) - 1
    buckets = [unlabeled] + [0] * n  # buckets[k]: unlabeled, k labeled neighbours
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unlabeled ^= low
        v = low.bit_length() - 1
        yield v, top
        moving = masks[v] & unlabeled
        if moving:
            for k in range(top, -1, -1):  # downwards, so no vertex moves twice
                moved = buckets[k] & moving
                if moved:
                    buckets[k] ^= moved
                    buckets[k + 1] |= moved
                    moving ^= moved
                    if not moving:
                        break
        if buckets[top + 1]:
            top += 1


def mcs_order(g):
    """Maximum cardinality search ordering of ``g`` as a vertex tuple, whose
    item i is the vertex at position i + 1: positions filled from n down to
    1, ties to the smallest index (see :func:`_mcs`)."""
    return tuple(v for v, _ in _mcs(g))[::-1]


def is_perfect_elimination_order(g, ordering):
    """True iff, for every vertex of the sequence ``ordering``, its later
    neighbors form a clique."""
    return _peo_failure(g, ordering) is None


def _peo_failure(g, ordering):
    """1-based position of the first simpliciality failure, or None."""
    if sorted(ordering) != list(range(g.n)):
        raise ValueError("ordering is not a bijection over the vertices")
    masks = g.neighbor_masks()
    unplaced = (1 << g.n) - 1  # vertices at this position or later
    for i, v in enumerate(ordering, start=1):
        unplaced ^= 1 << v
        later = masks[v] & unplaced
        for u in mask_vertices(later):
            if later & ~masks[u] & ~(1 << u):
                return i
    return None


def is_chordal(g):
    return is_perfect_elimination_order(g, mcs_order(g))


def clique_tree(g):
    """Clique tree (or forest) of a chordal graph, from one MCS sweep.

    Whenever the labeled-neighbor count fails to grow, the current clique is
    complete and a new one starts from the new vertex's labeled
    neighborhood; it attaches to the clique of its most recently labeled
    member, the highest of its members' cliques (a one-member neighbourhood
    reads its member's clique directly, with no walk over the mask).  The
    sweep also proves chordality: a vertex's labeled neighborhood must lie
    inside the current clique when it extends it (and then, as large,
    equals it), or inside the clique it attaches to when it starts one.
    Both hold on a chordal graph; when both hold, every mask built is a
    clique, so each labeled neighborhood is one and the order is a perfect
    elimination order (Blair and Peyton).  Only a failed test runs
    :func:`_peo_failure`, to name the position in the
    :class:`NotChordalError` raised.
    """
    masks = g.neighbor_masks()
    labeled = 0
    clique_of = [0] * g.n
    cliques = []  # as vertex masks
    tree_edges = []
    prev_card = 0
    for v, card in _mcs(g):
        bit = 1 << v
        base = labeled & masks[v]
        if card > prev_card:
            host = cliques[-1]
        else:
            host = 0
            if card:  # the latest labeled member's clique is the highest
                if card == 1:
                    parent = clique_of[base.bit_length() - 1]
                else:
                    parent = max(map(clique_of.__getitem__,
                                     mask_vertices(base)))
                host = cliques[parent]
                tree_edges.append((parent, len(cliques)))
            cliques.append(base)
        if base & ~host:
            failure = _peo_failure(g, mcs_order(g))
            raise NotChordalError(
                "graph is not chordal (elimination check fails at position %d)"
                % failure,
                position=failure,
            )
        clique_of[v] = len(cliques) - 1
        cliques[-1] |= bit
        labeled |= bit
        prev_card = card

    return CliqueTree(tuple(cliques), tuple(sorted(tree_edges)))


def verify_clique_tree(g, tree):
    """Check every clique-tree invariant of ``tree`` against ``g``.

    Validates that the nodes are distinct maximal cliques covering all
    edges, the forest structure (one tree per component of ``g``), and the
    clique-intersection property: the nodes holding each vertex v form one
    subtree.  In a forest, the nodes holding v span as many subtrees as they
    outnumber the edges between them, and those are the edges whose middle
    set holds v; so the property is one count per vertex, with no walk
    along tree paths.
    """
    nodes = tree.nodes
    d = len(nodes)

    # nodes are distinct maximal cliques covering all edges
    n = g.n
    masks = g.neighbor_masks()
    reach = [0] * n  # reach[u]: union of the nodes containing u
    holding = [0] * n  # nodes holding u, less the edges whose mid holds u
    for clique in nodes:
        if clique >> n:
            return False  # a vertex out of range
        common = (1 << n) - 1  # common neighbours of the node's members
        for u in mask_vertices(clique):
            if clique & ~masks[u] & ~(1 << u):
                return False  # not a clique
            common &= masks[u]
            reach[u] |= clique
            holding[u] += 1
        if common:
            return False  # extendable, not maximal
    if len(set(nodes)) != d:
        return False  # a node repeated; one inside another is not maximal
    if any(mask & ~r for mask, r in zip(masks, reach)):
        return False  # an edge lies in no node

    # forest structure: acyclic
    parent = list(range(d))
    for i, j in tree.edges:
        ri, rj = find_root(parent, i), find_root(parent, j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj

    # clique-intersection property, and one tree per component of g
    for mid in tree.mids:
        if not mid:
            return False  # given the count: a tree spans two components
        for u in mask_vertices(mid):
            holding[u] -= 1
    return all(count == 1 for count in holding)


def complement_clique_tree(g):
    """Clique tree (or forest) of the complement of ``g``.

    Raises :class:`NotChordalError` when the complement is not chordal.
    """
    try:
        return clique_tree(g.complement())
    except NotChordalError as exc:
        raise NotChordalError(
            "complement is not chordal: %s" % exc, position=exc.position
        ) from exc


def clique_membership_counts(tree, n):
    """Per-vertex count of the nodes of ``tree`` containing it, for vertices
    0..n-1, each of which must lie in some node.  Returns
    ``(counts, all_le_two)``.

    ``tree`` must be a clique tree or forest, joined or not (a joined
    forest's synthetic middle sets are empty); both callers,
    :func:`bccover.cover.cover_cochordal` and :func:`mis_membership_counts`,
    pass one.  There the nodes holding a vertex span one subtree, so a
    vertex lies in one node more than the number of middle sets holding it
    (the identity :func:`verify_clique_tree` checks), and the counts are
    read off the middle sets alone: every count is at most two exactly when
    the middle sets are pairwise disjoint, and only a vertex in two or more
    of them needs counting one by one.
    """
    mids = tree.mids
    seen = shared = 0  # vertices in a middle set, in two or more of them
    for mid in mids:
        shared |= seen & mid
        seen |= mid
    counts = [1] * n
    for v in mask_vertices(seen ^ shared):
        counts[v] = 2
    if shared:
        for mid in mids:
            mid &= shared
            while mid:  # one lowest bit at a time: a middle set is small
                low = mid & -mid
                counts[low.bit_length() - 1] += 1
                mid ^= low
    return tuple(counts), not shared


def mis_membership_counts(g):
    """Per-vertex count of maximal independent sets of ``g`` containing it.

    Computed as the number of clique-tree nodes of the complement containing
    each vertex.  Returns ``(counts, all_le_two)`` where the flag says whether
    every vertex lies in at most two maximal independent sets.  Raises
    :class:`NotChordalError` when the complement is not chordal.
    """
    return clique_membership_counts(complement_clique_tree(g), g.n)


def clique_tree_to_text(tree):
    """Serialize a clique tree: one ``K<i>:`` line per node, one ``T:`` line
    per tree edge with its middle set."""
    lines = []
    for i, clique in enumerate(tree.nodes):
        lines.append("K%d: %s" % (i, " ".join(map(str, mask_vertices(clique)))))
    for (i, j), mid in zip(tree.edges, tree.mids):
        lines.append(
            "T: %d %d | mid: %s" % (i, j, " ".join(map(str, mask_vertices(mid))))
        )
    return "\n".join(lines) + "\n"
