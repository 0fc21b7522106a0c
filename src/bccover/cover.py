"""Constructing biclique partitions and covers of co-chordal graphs.

Everything here works off a clique tree of the complement.  Cutting a tree
edge e splits the cliques into two groups; the vertices on one side minus
mid(e), against the vertices on the other side minus mid(e), always form a
biclique of the original graph.  Recursing on both sides turns a clique tree
with d nodes into a biclique partition of size d - 1.  Driving the cuts by an
edge-ranking groups the partition into levels, and bicliques within one level
can often be merged into a single larger biclique, which is where covers
smaller than d - 1 come from.

A :class:`Biclique` keeps its sides as vertex masks, and the cuts, the merge
and the verification work on those masks alone.  A cut is a biclique by
construction, and the level sweep hands each cut over as ints: its side
masks and their common neighbourhoods, read off the clique tree.  A
:class:`Biclique` is built only for a member a caller gets.  The final
:func:`verify_cover` of :func:`cover_cochordal` is the one check of the
result: one coverage pass compared with the graph's masks.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush
from operator import itemgetter

from ._record import Record
from .chordal import CliqueTree, clique_membership_counts, complement_clique_tree
from .graph import find_root, mask_vertices, vertex_mask
from .ranking import bfs, optimal_edge_ranking, ranked_joins


class Biclique:
    """An unordered pair of nonempty disjoint sets of non-negative vertices.

    Each side is kept as an ``int`` vertex mask (bit v set iff v is on that
    side), which cannot hold a negative vertex; ``left`` and ``right`` build
    a frozenset from it on each read.
    """

    __slots__ = ("_left", "_right")

    def __init__(self, left, right):
        try:
            left, right = vertex_mask(left), vertex_mask(right)
        except ValueError:  # a negative shift count
            raise ValueError("biclique vertices must be non-negative") from None
        self._set(left, right)

    @classmethod
    def _from_masks(cls, left, right):
        """Biclique with side masks ``left`` and ``right``."""
        b = cls.__new__(cls)
        b._set(left, right)
        return b

    def _set(self, left, right):
        if not left or not right:
            raise ValueError("both sides of a biclique must be nonempty")
        if left & right:
            raise ValueError("biclique sides must be disjoint")
        self._left, self._right = left, right

    @property
    def left(self):
        return frozenset(mask_vertices(self._left))

    @property
    def right(self):
        return frozenset(mask_vertices(self._right))

    def canonical(self):
        """Copy with the side containing the smallest vertex first."""
        if self._right & -self._right < self._left & -self._left:
            return Biclique._from_masks(self._right, self._left)
        return self

    def _sorted_sides(self):
        """Both sides as sorted vertex lists, in canonical order."""
        first, second = sorted((self._left, self._right), key=lambda m: m & -m)
        return mask_vertices(first), mask_vertices(second)

    def edge_set(self):
        """Edges of the biclique as normalized (u, v) pairs."""
        left, right = mask_vertices(self._left), mask_vertices(self._right)
        return {(min(u, v), max(u, v)) for u in left for v in right}

    def __eq__(self, other):
        if not isinstance(other, Biclique):
            return NotImplemented
        return {self._left, self._right} == {other._left, other._right}

    def __hash__(self):
        return hash(frozenset((self._left, self._right)))

    def __repr__(self):
        return "Biclique(%s)" % ", ".join(
            "{%s}" % ",".join(map(str, side)) for side in self._sorted_sides()
        )


# -- working trees ------------------------------------------------------------


def join_clique_forest(tree):
    """Connect a clique forest into one tree with synthetic empty middle sets.

    Component representatives (lowest node index each) are chained in
    ascending order; a tree, d - 1 edges on its d nodes, comes back as it
    is.  Raises ValueError on an edge that closes a cycle, a repeated edge
    included: the record is no forest.
    """
    d = tree.node_count
    parent = list(range(d))
    for e in tree.edges:
        a, b = find_root(parent, e[0]), find_root(parent, e[1])
        if a == b:
            raise ValueError("edge %r closes a cycle" % (e,))
        parent[a] = b
    if len(tree.edges) >= d - 1:
        return tree
    reps = {}
    for i in range(d):
        reps.setdefault(find_root(parent, i), i)
    chain = sorted(reps.values())
    extra = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    return CliqueTree(tree.nodes, tuple(sorted(tree.edges + tuple(extra))))


def max_weight_clique_tree(nodes):
    """Rebuild a clique tree over the clique masks ``nodes`` as a
    maximum-weight spanning forest of the clique intersection graph.

    Any maximum-weight spanning tree of the intersection graph is a valid
    clique tree, so within each weight class we are free to pick edges that
    keep node degrees low; chained trees have much smaller edge-ranking
    numbers than stars, which is what the cover pipeline wants.  Each weight
    class, heaviest first, takes the pair of nodes in different components
    with the smallest key ``(larger degree, degree sum, i, j)``, until none
    is left.  The key is kept as the one int
    ``((larger * (2d + 1) + sum) * d + i) * d + j``, which orders as the
    tuple does (a degree sum is at most 2d - 2, and i, j < d), so the heap
    compares ints and the pair is read back off the key.

    When every vertex lies in at most two cliques the intersection graph is
    itself a forest and this returns its edges, the only clique forest, so
    :func:`cover_cochordal` skips the call there and keeps the MCS sweep's
    tree (see its docstring for why).

    Only pairs that share a vertex get a weight, the size of their
    intersection: in node order, each vertex keeps a mask of the cliques
    holding it so far, and clique j meets the earlier cliques in the union
    of its vertices' masks: one OR per clique member and one step per
    intersecting pair.  Each class is a lazy heap of keys.  Degrees only grow,
    so a key in the heap is never above the pair's current key; a popped key
    that still matches its recomputed value is therefore the true minimum
    and its pair is taken, a stale key goes back with its new value, and a
    pair whose ends are already joined is dropped for good (components only
    merge).  Each node carries its component's label, and a join relabels
    the smaller component, so whether a pair is joined is two list reads.
    That takes the same edges, in the same order, as rescanning the
    class for its minimum after every edge.  A pair whose ends are joined
    when its class starts is never heaped: it would only be popped and
    dropped, touching no degree or component, and as the keys are distinct
    the other pairs come off the heap in the same order without it.  So
    the rebuild returns at d - 1 edges, when every pair left is joined; it
    does not know the number of components, so a disconnected intersection
    graph still drains its heaps.
    """
    d = len(nodes)
    holders = [0] * max(nodes, default=0).bit_length()  # v: mask of cliques
    pairs = defaultdict(list)  # weight: pairs (i, j), i < j
    for j, clique in enumerate(nodes):
        met = 0  # the cliques before j that meet it
        for v in mask_vertices(clique):
            met |= holders[v]
            holders[v] |= 1 << j
        for i in mask_vertices(met):
            pairs[(nodes[i] & clique).bit_count()].append((i, j))
    span = 2 * d + 1  # a degree sum is below it
    label = list(range(d))  # node: its component's label
    members = [[i] for i in range(d)]  # label: the nodes that carry it
    degree = [0] * d
    edges = []
    for w in sorted(pairs, reverse=True):
        heap = []
        for i, j in pairs[w]:
            if label[i] != label[j]:
                di, dj = degree[i], degree[j]
                top = di if di > dj else dj
                heap.append(((top * span + di + dj) * d + i) * d + j)
        heapify(heap)
        while heap:
            popped = heappop(heap)
            rest, j = divmod(popped, d)
            i = rest % d
            li, lj = label[i], label[j]
            if li == lj:
                continue
            di, dj = degree[i], degree[j]
            top = di if di > dj else dj
            now = ((top * span + di + dj) * d + i) * d + j
            if now != popped:
                heappush(heap, now)
                continue
            if len(members[li]) > len(members[lj]):
                li, lj = lj, li
            for k in members[li]:
                label[k] = lj
            members[lj] += members[li]
            members[li] = None
            degree[i] = di + 1
            degree[j] = dj + 1
            edges.append((i, j))
            if len(edges) == d - 1:
                return CliqueTree(tuple(nodes), tuple(sorted(edges)))
    return CliqueTree(tuple(nodes), tuple(sorted(edges)))


def bfs_leaf_order(tree):
    """1-based BFS positions of the nodes of one tree (a clique tree or a
    ``Tree``), starting from the lowest-index leaf, visiting neighbors in
    ascending order.  Raises ValueError on a node left unreached (an
    unjoined forest), and then on too many edges (a cycle)."""
    return {v: pos for pos, v in enumerate(_leaf_bfs(tree), start=1)}


def _leaf_bfs(tree):
    """The nodes of one tree in the BFS order of :func:`bfs_leaf_order`,
    along the tree's kept neighbour lists; raises as it does."""
    if not tree.node_count:
        return []
    adj = tree._adj
    start = next((i for i, around in enumerate(adj) if len(around) <= 1), 0)
    return bfs(adj, start)[0]


def find_partition(tree):
    """Biclique partition of G from a clique tree of its complement.

    The members are the cuts of ``tree``, joined first when a forest, along
    its optimal edge-ranking: one per tree edge, so (node count - 1) of
    them, each made a :class:`Biclique` from its side masks here, level 1
    first and each level in BFS order, as :func:`merge_bicliques` reads
    them.  They are the cuts :func:`cover_cochordal` merges only when the
    cover keeps this tree: it rebuilds it when a complement vertex lies in
    three or more cliques, and ``bccover partition`` passes the MCS sweep's.
    """
    work = join_clique_forest(tree)
    if work.node_count <= 1:
        return []
    ranking, _ = optimal_edge_ranking(work)
    levels = find_biclique_levels(work, ranking)
    return [Biclique._from_masks(left, right) for level in sorted(levels)
            for _, left, right, _, _ in levels[level]]


def find_biclique_levels(tree, ranking):
    """The cuts of a biclique partition grouped by ranking level, as side
    masks with their common neighbourhoods.

    ``tree`` is one tree: a forest raises ValueError, so join it with
    :func:`join_clique_forest` first.  It is cut along every edge, in one
    union-find sweep over its edges in (rank, edge) order
    (:func:`bccover.ranking.ranked_joins`): an edge of rank k cuts its
    component among the edges ranked <= k, and the two sides of that cut
    are the parts it joins.  A part keeps the union of its cliques as a
    vertex mask and its smallest :func:`bfs_leaf_order` position, kept in
    one list by node index; the walk reads the neighbour lists the tree
    keeps, which :func:`bccover.ranking.optimal_edge_ranking` has built
    when it ranked the same tree.  The sweep checks each rank as it
    buckets the edges, so the ranks are read once.  With r the top rank
    among the edges, the cut along an edge of rank k lands in level
    r + 1 - k, annotated with the smaller position of its two sides.
    Returns ``{level: [(ord, left, right, common_left, common_right),
    ...]}``, five ints per cut, each level sorted by ord: ``left`` and
    ``right`` are the cut's side masks, and the flattened cuts form a
    biclique partition.  Raises ValueError on a missing or
    non-positive rank, or when two edges of one rank meet: ``ranking``, the
    ``{(i, j): rank}`` dict, is not a valid edge-ranking of the tree.

    ``common_left`` is the mask of the vertices of G adjacent to every
    vertex of ``left``, and ``common_right`` the same for ``right``,
    worked out from the tree alone.  Let H be the chordal
    graph whose maximal cliques are the nodes, V the union of the nodes,
    and for a vertex v in some middle set let ``reach[v]`` be the union of
    the two end cliques of every edge whose middle set holds v: the cliques
    holding v span a subtree of two or more nodes, so that is N_H[v].  The
    cut at sweep step t joins parts a and b along edge e, and its left side
    is ``left = U_a - mid(e)``, U_a being the union of part a's cliques.
    Every clique of part a meets ``left``: a clique inside mid(e) would lie
    inside the end clique of e in part b.  So U_a lies inside N_H[left].  A
    vertex of ``left`` in no middle set of an edge joined after step t has
    all its cliques in one part, as the path between two of them through
    e would put it in mid(e); that part is a, so N_H of it lies inside U_a.
    Hence N_H[left] = U_a | N_H[left & later], ``later`` being the union of
    the middle sets joined after step t, and G's common neighbourhood of
    ``left`` is V - N_H[left].  The right side is the same with part b.
    ``later`` is one running mask: it starts as the union of all middle
    sets, and a per-vertex count of the middle sets not yet joined clears
    a vertex's bit at the step that joins the last middle set holding it.
    """
    d = tree.node_count
    if d <= 1:
        return {}
    low = [0] * d  # a part's smallest BFS position, at its root
    for pos, v in enumerate(_leaf_bfs(tree), start=1):
        low[v] = pos
    edges = tree.edges
    joins = ranked_joins(d, edges, ranking)
    if len(joins) < len(edges):
        raise ValueError(
            "not an edge-ranking: two edges of rank %d meet" % joins[-1][0]
        )
    nodes = tree.nodes
    masks = list(nodes)
    r = joins[-1][0]
    everything = 0
    for clique in nodes:
        everything |= clique
    reach = [0] * everything.bit_length()
    pending = [0] * everything.bit_length()  # middle sets not yet joined
    later = 0
    for i, j in edges:
        mid = rest = nodes[i] & nodes[j]
        while rest:  # one lowest bit at a time: a middle set is small
            bit = rest & -rest
            v = bit.bit_length() - 1
            reach[v] |= nodes[i] | nodes[j]
            pending[v] += 1
            rest ^= bit
        later |= mid
    levels = {}
    rank = 0
    for k, (i, j), a, b in joins:
        if k != rank:  # the joins come in rank order: one list per rank
            rank = k
            levels[r + 1 - k] = items = []
        mid = rest = nodes[i] & nodes[j]
        while rest:  # later: the middle sets joined after this step
            bit = rest & -rest
            v = bit.bit_length() - 1
            pending[v] -= 1
            if not pending[v]:
                later ^= bit
            rest ^= bit
        part_a, part_b = masks[a], masks[b]
        left, right = part_a ^ mid, part_b ^ mid  # mid(e) is in both
        near, rest = part_a, left & later
        while rest:
            bit = rest & -rest
            near |= reach[bit.bit_length() - 1]
            rest ^= bit
        common_left = everything ^ near  # near lies inside everything
        near, rest = part_b, right & later
        while rest:
            bit = rest & -rest
            near |= reach[bit.bit_length() - 1]
            rest ^= bit
        first = low[a]
        if first < low[b]:
            low[b] = first
        else:
            first = low[b]
        items.append((first, left, right, common_left, everything ^ near))
        masks[b] = part_a | part_b
    for items in levels.values():
        items.sort()  # joins of one rank join disjoint parts: no two ords tie
    return levels


def merge_bicliques(items):
    """Greedy left-to-right merge of one level's bicliques.

    ``items`` is a list of ``(ord, left, right, common_left, common_right)``
    items, as :func:`find_biclique_levels` makes them: the side masks of a
    biclique and the masks of the vertices adjacent to every vertex of each
    side.  Sorted by ``ord``, ties in list order, each incoming biclique is
    unioned into any already-kept member for which one of the two side
    orientations stays a biclique; if no merge succeeds it is kept as a new
    member, and each member is returned as a :class:`Biclique`.
    Raises ValueError when an item's right side is not inside its
    ``common_left``: it is not a biclique.

    A member is kept as four masks: its sides L and R and their common
    neighbourhoods N(L) and N(R).  Joining sides L' and R' to it keeps a
    biclique iff ``R | R'`` lies inside ``N(L) & N(L')``, one mask test.
    The merge reads no graph.
    """
    kept = []
    for _, left, right, common_l, common_r in sorted(items, key=itemgetter(0)):
        if right & ~common_l:
            raise ValueError("sides %s and %s: right side not inside common_left"
                             % (mask_vertices(left), mask_vertices(right)))
        append = True
        for entry in kept:
            kept_l, kept_r, kept_cl, kept_cr = entry
            if not (kept_r | right) & ~(kept_cl & common_l):
                entry[:] = (kept_l | left, kept_r | right,
                            kept_cl & common_l, kept_cr & common_r)
                append = False
            elif not (kept_r | left) & ~(kept_cl & common_r):
                entry[:] = (kept_l | right, kept_r | left,
                            kept_cl & common_r, kept_cr & common_l)
                append = False
        if append:
            kept.append([left, right, common_l, common_r])
    return [Biclique._from_masks(l, r) for l, r, _, _ in kept]


class CoverMetadata(Record):
    """What the cover pipeline did and saw along the way.

    ``verified`` records the pipeline's own check of its result: the cover
    passes :func:`verify_cover` and has at most ``mc_complement - 1``
    members.  Callers read it instead of verifying the cover again.
    ``ranking_optimal`` is a read-only class attribute, always True: the
    ranking is exact at every size.
    """

    __slots__ = (
        "mc_complement", "ranking_r", "all_le_two", "level_sizes_before",
        "level_sizes_after", "tree", "verified",
    )
    ranking_optimal = True

    def __init__(self, mc_complement, ranking_r, all_le_two,
                 level_sizes_before=None, level_sizes_after=None, tree=None,
                 verified=False):
        self.mc_complement = mc_complement
        self.ranking_r = ranking_r
        self.all_le_two = all_le_two
        self.level_sizes_before = (
            {} if level_sizes_before is None else level_sizes_before
        )
        self.level_sizes_after = {} if level_sizes_after is None else level_sizes_after
        self.tree = tree
        self.verified = verified


def cover_cochordal(g):
    """Biclique cover of a co-chordal graph; size is at most mc(complement)-1.

    Pipeline: clique tree of the complement, rebuilt as a low-degree
    maximum-weight spanning tree (star-shaped trees coming out of the MCS
    sweep would inflate the ranking for no reason); an optimal edge-ranking
    of that tree; level decomposition; greedy merge per level.

    The rebuild runs only when some complement vertex lies in three or more
    cliques; ``meta.all_le_two`` says which path was taken.  When every
    vertex lies in at most two, the clique intersection graph is a forest,
    so the sweep's tree is the only clique tree and the rebuild would give
    back its edges: a cycle K1...Kt of the intersection graph would pass
    through distinct shared vertices v1...vt, each in only the two cliques
    beside it, and these form a cycle of the complement.  For t = 3 that is
    a triangle in no clique; for t >= 4 chordality gives a chord, and the
    clique holding the chord puts one of its ends in a third clique.

    Returns ``(cover, CoverMetadata)``; ``meta.verified`` says whether the
    cover passed the final check.  Raises :class:`NotChordalError` when the
    complement is not chordal.
    """
    base = complement_clique_tree(g)
    _, all_le_two = clique_membership_counts(base, g.n)
    tree = base if all_le_two else max_weight_clique_tree(base.nodes)
    work = join_clique_forest(tree)
    d = work.node_count
    meta = CoverMetadata(mc_complement=d, ranking_r=0, all_le_two=all_le_two,
                         tree=work)
    if d <= 1:
        # at most one maximal clique in the complement: g has no edges
        meta.verified = verify_cover(g, [])
        return [], meta

    ranking, r = optimal_edge_ranking(work)
    levels = find_biclique_levels(work, ranking)
    cover = []
    for level in range(1, r + 1):
        items = levels.get(level, [])
        merged = merge_bicliques(items)
        meta.level_sizes_before[level] = len(items)
        meta.level_sizes_after[level] = len(merged)
        cover.extend(merged)

    meta.ranking_r = r
    meta.verified = len(cover) <= d - 1 and verify_cover(g, cover)
    return cover, meta


# -- verification -------------------------------------------------------------


def _coverage(g, bicliques):
    """For :func:`cover_defects`: ``(covered, twice, bad)``, per-vertex
    masks of the edges the members cover, where ``covered[u]`` has bit v
    set when some member covers (u, v) and ``twice[u]`` when at least two
    do, and the indices of the members that are not biclique subgraphs of
    ``g``, which cover nothing."""
    covered = [0] * g.n
    twice = [0] * g.n
    bad = []
    for index, b in enumerate(bicliques):
        if b._right & ~g.common_neighbors(b._left):
            bad.append(index)
            continue
        for side, other in ((b._left, b._right), (b._right, b._left)):
            for u in mask_vertices(side):
                twice[u] |= covered[u] & other
                covered[u] |= other
    return covered, twice, bad


def _first_edge(rows):
    """Lexicographically first (u, v), u < v, with bit v set in ``rows[u]``;
    None when there is none."""
    for u, row in enumerate(rows):
        row >>= u + 1
        if row:
            return u, u + (row & -row).bit_length()
    return None


def verify_cover(g, bicliques):
    """True iff every member is a biclique of ``g`` and every edge of ``g``
    is covered at least once.

    One pass ORs each member's sides into per-vertex coverage masks, and
    the result must equal the graph's masks: a member with a non-edge
    between its sides puts that pair in, and an uncovered edge leaves its
    bit out.  A member with a vertex outside 0..n-1 fails at once."""
    n = g.n
    covered = [0] * n
    for b in bicliques:
        left, right = b._left, b._right
        if (left | right) >> n:
            return False
        for u in mask_vertices(left):
            covered[u] |= right
        for u in mask_vertices(right):
            covered[u] |= left
    return tuple(covered) == g.neighbor_masks()


def verify_partition(g, bicliques):
    """True iff every member is a biclique of ``g`` and every edge of ``g``
    is covered exactly once.  Once the members are bicliques that cover
    every edge, their |L|·|R| pairs add up to m exactly when none is
    covered twice."""
    return verify_cover(g, bicliques) and sum(
        b._left.bit_count() * b._right.bit_count() for b in bicliques
    ) == g.m


def cover_defects(g, bicliques, partition=False):
    """Human-readable list of violations (empty when valid)."""
    covered, twice, bad = _coverage(g, bicliques)
    if bad:
        return ["member %d is not a biclique subgraph" % index for index in bad]
    problems = []
    masks = g.neighbor_masks()
    uncovered = _first_edge([m & ~c for m, c in zip(masks, covered)])
    if uncovered is not None:
        problems.append("edge %d %d is uncovered" % uncovered)
    repeated = _first_edge(twice) if partition else None
    if repeated is not None:
        u, v = repeated
        edge = 1 << u | 1 << v
        times = sum(
            edge & b._left != 0 and edge & b._right != 0 for b in bicliques
        )
        problems.append("edge %d %d is covered %d times" % (u, v, times))
    return problems


# -- serialization ------------------------------------------------------------


def bicliques_to_text(bicliques):
    lines = [
        "L: %s | R: %s" % tuple(" ".join(map(str, side)) for side in b._sorted_sides())
        for b in bicliques
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def cover_to_json_dict(cover, meta):
    """Fixed-schema JSON form of a cover and its :class:`CoverMetadata`."""
    return {
        "size": len(cover),
        "bicliques": [list(b._sorted_sides()) for b in cover],
        "ranking_r": meta.ranking_r,
        "ranking_optimal": meta.ranking_optimal,
        "all_leq2_flag": meta.all_le_two,
    }


def bicliques_from_text(text, n):
    """Bicliques of a cover file for a graph on ``n`` vertices.  Raises
    ValueError on a malformed line, and on a vertex outside 0..n-1 before
    any mask is built for it."""
    malformed = "line %d: expected 'L: ... | R: ...'"
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            left_part, right_part = line.split("|")
            left = [int(x) for x in left_part.split(":", 1)[1].split()]
            right = [int(x) for x in right_part.split(":", 1)[1].split()]
        except (ValueError, IndexError):
            raise ValueError(malformed % lineno) from None
        for v in left + right:
            if not 0 <= v < n:
                raise ValueError("line %d: vertex %d out of range" % (lineno, v))
        try:
            out.append(Biclique(left, right))
        except ValueError:
            raise ValueError(malformed % lineno) from None
    return out
