"""Edge-rankings of trees, and the tree walks they share.

An edge-ranking maps every tree edge to a rank in {1..r} so that any two
distinct edges of equal rank are separated, on the path between them, by an
edge of strictly larger rank.  :func:`optimal_edge_ranking` finds the
minimum r exactly, at any size, in one bottom-up pass over the tree rooted
at 0.  Each vertex keeps ``vis``, an int whose bit k says that an edge
below it has rank k with no larger rank in between.  A vertex combines its
children's ``vis`` into the smallest ``vis`` it can have, in one walk down
the levels from the top: at most its visible levels plus its degree.  At
each free level one greedy check (:func:`_fits`) hands children with equal
``vis`` out together and runs of free levels in bulk, so a step grows with
the number of distinct child lists and visible levels.  A vertex with one
child takes the lowest rank free in that child's ``vis``
(:func:`_lowest_rank`, which :func:`combine_children` also ends on) with
no child list built, and a leaf is skipped; on a path, every vertex is one or
the other.  A vertex with two children decides each level in closed form
(:func:`_combine_two`), with the ranks and union that
:func:`combine_children` gives; that one runs only at three or more.

A ranking is valid iff, for every k, each component of the subgraph of
edges ranked <= k contains at most one edge ranked exactly k: the one
union-find sweep :func:`ranked_joins` checks it, and checks each rank as
it buckets the edges, for :func:`is_valid_edge_ranking` and for the level
cuts of the cover.

A :class:`Tree` is a frozen record of n and its sorted edges; it keeps
its neighbour lists, derived from the edges, outside equality.  A
``chordal.CliqueTree`` keeps them the same way, built on first read, so a
cover builds its joined tree's lists once.  Both are forests when made
(``graph.check_forest``), so a walk's one test is that it reaches every node.

One copy of each tree walk: :func:`neighbor_lists` and :func:`bfs` serve
``Tree``, ``CliqueTree``, :func:`optimal_edge_ranking` and the level cuts'
``cover.bfs_leaf_order`` walk.  The last two take a ``Tree`` or a clique
tree that is one tree, read through ``node_count``, ``edges`` and the kept
lists, so the cover ranks its joined clique tree as it is.

:func:`heuristic_edge_ranking` ranks by balanced separators, with two walks
per subtree.  The cover and the partition both cut along the optimal
ranking, so nothing in the construction calls it.
"""

from __future__ import annotations

from ._record import FrozenRecord, setfield
from .errors import GraphFormatError
from .graph import check_forest, find_root, read_text


def ceil_log2(n):
    """Smallest k with 2**k >= n (0 for n <= 1)."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class Tree(FrozenRecord):
    """A connected acyclic graph on vertices 0..n-1; ``node_count`` is n.
    Trees with the same n and edges are equal and hash equal."""

    __slots__ = ("n", "edges", "_adj")
    _hidden = ("edges", "_adj")

    def __init__(self, n, edges):
        norm = sorted((min(u, v), max(u, v)) for u, v in edges)
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        if len(norm) < n - 1:  # before the forest check sizes anything by n
            raise ValueError("a tree on %d vertices needs %d edges" % (n, n - 1))
        check_forest(n, norm)  # more edges close a cycle; n - 1 connect
        setfield(self, "n", n)
        setfield(self, "edges", tuple(norm))
        setfield(self, "_adj", tuple(map(tuple, neighbor_lists(n, norm))))

    def _values(self):
        return self.n, self.edges

    @property
    def node_count(self):
        return self.n

    def neighbors(self, v):
        return self._adj[v]


def neighbor_lists(n, edges):
    """Sorted neighbour lists of the nodes 0..n-1 of the forest with the
    pairs ``edges``, which both callers, the tree records, have checked."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    for around in adj:
        around.sort()
    return adj


def bfs(adj, start):
    """``(order, parent)``: the nodes in BFS order from ``start`` along the
    lists ``adj`` of a forest, and the node each was reached from (``start``
    is its own).  Raises ValueError on no node, or on one left unreached."""
    n = len(adj)
    if not n:
        raise ValueError("a tree needs at least one vertex")
    parent = [-1] * n
    parent[start] = start
    order = [start]
    for v in order:
        for c in adj[v]:
            if parent[c] < 0:
                parent[c] = v
                order.append(c)
    if len(order) != n:
        raise ValueError("tree is not connected")
    return order, parent


def ranked_joins(n, edges, ranks):
    """The union-find sweep of a forest's ranked edges in (rank, edge) order:
    ``(k, edge, a, b)`` per edge, whose rank k joins the part with root a
    into the part with root b.  The edges are bucketed by rank in one pass,
    which also checks each rank, and each bucket is sorted, so the order
    does not depend on the order of ``edges``.  Each part keeps the rank of
    its last join; ranks only grow, so it holds an edge of rank k iff that
    rank is k.  The sweep stops at the first edge that joins a part topped
    by its own rank, where two edges of that rank meet with no larger rank
    between them: the ranking is valid iff every edge has a join, and
    otherwise the last join has the rank of the clash.  Raises ValueError
    unless every edge has a positive integer rank."""
    by_rank = {}
    for e in edges:
        k = ranks.get(e)
        if not isinstance(k, int) or k < 1:
            if e not in ranks:
                raise ValueError("edge %r has no rank assigned" % (e,))
            raise ValueError("rank of %r must be a positive integer" % (e,))
        by_rank.setdefault(k, []).append(e)
    parent = list(range(n))
    top = [0] * n
    joins = []
    for k in sorted(by_rank):
        for e in sorted(by_rank[k]):
            a, b = find_root(parent, e[0]), find_root(parent, e[1])
            if k == top[a] or k == top[b]:
                return joins
            parent[a] = b
            top[b] = k
            joins.append((k, e, a, b))
    return joins


def edge_ranking_lower_bound(tree):
    """max(maximum degree, ceil(log2 of the node count)); 0 for one node.
    ``tree`` is a :class:`Tree` or a clique tree, read through
    ``node_count`` and the neighbour lists ``_adj`` that both keep."""
    n = tree.node_count
    if n <= 1:
        return 0
    return max(max(map(len, tree._adj)), ceil_log2(n))


def is_valid_edge_ranking(tree, ranking):
    """Check the separation condition for every pair of equal-rank edges of
    a tree or forest; ``ranking`` is the ``{(i, j): rank}`` dict.  Raises
    ValueError as :func:`ranked_joins` does."""
    edges = tree.edges
    return len(ranked_joins(tree.node_count, edges, ranking)) == len(edges)


def _fits(pending, level):
    """True when the children in ``pending`` ({vis: count}) can all take a
    rank at or below ``level``; :func:`combine_children` asks it at each
    free level of its walk, for the level under it.

    The walk's greedy, from ``level`` down and for any number of children:
    a level that two pending children hold is a clash, a level that one
    holds stays that child's, and a level that none holds goes to the child
    whose ``vis`` below it is the largest.  A run of levels that no pending
    child holds leaves every ``vis`` below it unchanged, so the whole run
    is handed out at once.
    """
    left = dict(pending)
    while left:
        held = 0
        for vis in left:
            held |= vis
        h = (held & ((2 << level) - 1)).bit_length() - 1
        if h == level:
            if sum(c for vis, c in left.items() if vis >> h & 1) > 1:
                return False
            level -= 1
            continue
        free = level - max(h, 0)
        below = (1 << level) - 1
        for vis in sorted(left, key=lambda vis: vis & below, reverse=True):
            take = min(free, left[vis])
            free -= take
            left[vis] -= take
            if not left[vis]:
                del left[vis]
            if not free:
                break
        if h < 1:
            return not left
        level = h
    return True


def _lowest_rank(vis, level):
    """The lowest rank x >= 1 free in ``vis``, for the one child left, and
    what the vertex then sees of it at or below ``level``."""
    free = ~vis & ~1
    x = (free & -free).bit_length() - 1
    return x, 1 << x | (vis & ((2 << level) - 1)) >> (x + 1) << (x + 1)


def combine_children(lists):
    """Ranks for the edges from one vertex down to its children.

    ``lists[i]`` is ``vis`` of child i: bit k is set when some edge below
    the child has rank k and no larger rank lies between it and the child.
    The edge to child i takes a rank x_i >= 1 whose bit is clear in
    ``lists[i]``; it hides the child's visible ranks below x_i, so the
    vertex sees ``B_i = 1 << x_i | (lists[i] >> (x_i + 1) << (x_i + 1))``.
    The B_i must be pairwise disjoint, and their union U is made as small
    an integer as possible.  Returns ``([x_i], U)``.

    Levels are decided in one walk from the top down that never goes back
    up.  A level that a pending child holds is in U.  A level that none
    holds is left out when the pending children still fit below it
    (:func:`_fits`); otherwise the pending child whose ``vis`` below it is
    the largest takes it.  Children with equal ``vis`` are handled as one
    group.  The last child takes its lowest free rank.
    """
    by_vis = {}
    for i, vis in enumerate(lists):
        by_vis.setdefault(vis, []).append(i)
    pending = {vis: len(ix) for vis, ix in by_vis.items()}
    ranks = [0] * len(lists)
    union = 0
    level = max(max(lists).bit_length(), 1) + len(lists) - 1
    for _ in range(len(lists) - 1):
        held = 0
        for vis in pending:
            held |= vis
        while True:
            if held >> level & 1:
                union |= 1 << level
            elif not _fits(pending, level - 1):
                break
            level -= 1
        below = (1 << level) - 1
        vis = max(pending, key=lambda vis: vis & below)
        ranks[by_vis[vis].pop()] = level
        pending[vis] -= 1
        if not pending[vis]:
            del pending[vis]
        union |= 1 << level
        level -= 1
    (vis,) = pending
    x, seen = _lowest_rank(vis, level)
    ranks[by_vis[vis][0]] = x
    return ranks, union | seen


def _combine_two(a, b):
    """:func:`combine_children` on the two lists ``[a, b]``, in closed form.

    The levels are walked down from the same top.  A free level is left
    out while both children fit at or below the level under it, m: let f
    be the highest level in 1..m free in both; they fit iff f exists, no
    level in (f, m] is held by both, and the child that does not take f
    (b, unless b's list below f is the larger) has a free level in
    1..f - 1.  The first free level where they do not fit, lo, goes to a
    when a's list below lo is at least b's and a != b, else to b; the other
    child takes its lowest free rank.  The union is lo, every level above
    it that a or b holds, and what the other child shows below lo.
    """
    held, both = a | b, a & b
    level = max(held.bit_length(), 1) + 1
    while True:
        if held >> level & 1:
            level -= 1
            continue
        m = level - 1
        free = ~held & ((2 << m) - 2)
        if not free:
            break
        f = free.bit_length() - 1
        if both >> (f + 1) & ((1 << (m - f)) - 1):
            break
        below = (1 << f) - 1
        other = a if b & below > a & below else b
        if not ~other & below & ~1:
            break
        level = m
    above = held >> level << level | 1 << level  # level is free in both
    below = (1 << level) - 1
    if a != b and a & below >= b & below:
        x, seen = _lowest_rank(b, level - 1)
        return [level, x], above | seen
    x, seen = _lowest_rank(a, level - 1)
    return [x, level], above | seen


def optimal_edge_ranking(tree):
    """Minimum-rank edge-ranking, in one bottom-up pass.

    ``tree`` is a :class:`Tree` or a clique tree that is one tree (a joined
    one), read through ``node_count``, ``edges`` and the neighbour lists
    ``_adj`` that both keep, so both give the same ranking.  The tree is
    rooted at 0.  Children come before their parent, and each vertex v
    combines the ``vis`` of its children (:func:`combine_children`) into
    the smallest possible ``vis(v)``; a leaf has ``vis = 0``, a vertex
    with one child calls :func:`_lowest_rank` on that child's ``vis``
    directly, and one with two children :func:`_combine_two`, which gives
    what :func:`combine_children` would.  A smaller ``vis`` never leaves the
    rest of the tree worse off, so the ranking is optimal, with r the top
    bit of ``vis(0)``.  No recursion and no size cap.  Returns
    ``(ranks, r)``: ``ranks`` is the dict ``{(i, j): rank}`` with i < j,
    and r the largest rank (0 for one node).  Raises ValueError when the
    input is not one tree (see :func:`bfs`).
    """
    adj = tree._adj
    order, parent = bfs(adj, 0)
    vis = [0] * len(adj)
    ranks = {}
    for v in reversed(order):
        around, up = adj[v], parent[v]
        below = len(around) - (v != up)  # the root is its own parent
        if below == 1:
            c = around[0] if around[0] != up else around[1]
            x, vis[v] = _lowest_rank(vis[c], vis[c].bit_length())
            ranks[(v, c) if v < c else (c, v)] = x
        elif below:
            children = [c for c in around if c != up]
            if below == 2:
                c, d = children
                xs, vis[v] = _combine_two(vis[c], vis[d])
            else:
                xs, vis[v] = combine_children([vis[c] for c in children])
            for c, x in zip(children, xs):
                ranks[(v, c) if v < c else (c, v)] = x
    return ranks, max(vis[0].bit_length() - 1, 0)


def heuristic_edge_ranking(tree):
    """Valid (not necessarily optimal) ranking via balanced edge separators.

    The top rank goes to an edge minimizing the larger component, ties broken
    by lexicographically smallest edge; both sides are cut the same way, and
    an edge ranks one above the highest edge cut on either of its sides, so
    every subtree's top edge is its most balanced cut.  A walk of a subtree
    of k vertices from any root gives every cut's balance from the subtree
    sizes in O(k); a second, from the chosen edge's lower end and never
    entering its other end, builds that side.  Runs on an explicit stack,
    so no recursion limit applies.  Returns ``(ranks, r)``, the dict
    ``{(i, j): rank}`` with i < j and the largest rank, as
    :func:`optimal_edge_ranking` does, and raises ValueError as it does.
    """
    adj = tree._adj
    bfs(adj, 0)
    cuts = []  # (edge, index of the cut that made its subtree), pre-order
    stack = [(set(range(tree.node_count)), None)]
    while stack:
        vertices, up = stack.pop()
        total = len(vertices)
        if total == 1:
            continue
        root = next(iter(vertices))
        parent = {root: None}
        order = [root]
        for x in order:
            for y in adj[x]:
                if y not in parent and y in vertices:
                    parent[y] = x
                    order.append(y)
        size = dict.fromkeys(order, 1)
        scored = []
        for x in reversed(order[1:]):
            p, s = parent[x], size[x]
            size[p] += s
            scored.append((max(s, total - s), (p, x) if p < x else (x, p)))
        e = min(scored)[1]
        side, walk = set(e), [e[0]]
        while walk:
            for y in adj[walk.pop()]:
                if y not in side and y in vertices:
                    side.add(y)
                    walk.append(y)
        side.discard(e[1])
        cuts.append((e, up))
        stack.append((vertices - side, len(cuts) - 1))
        stack.append((side, len(cuts) - 1))
    ranks = {}
    below = [0] * len(cuts)
    for k in reversed(range(len(cuts))):
        e, up = cuts[k]
        ranks[e] = below[k] + 1
        if up is not None and ranks[e] > below[up]:
            below[up] = ranks[e]
    r = ranks[cuts[0][0]] if cuts else 0
    return ranks, r


# -- serialization ------------------------------------------------------------


def ranking_to_text(ranking):
    lines = ["%d %d : %d" % (u, v, ranking[(u, v)]) for u, v in sorted(ranking)]
    return "\n".join(lines) + ("\n" if lines else "")


def tree_to_text(tree):
    lines = ["t %d" % tree.n]
    lines.extend("%d %d" % e for e in tree.edges)
    return "\n".join(lines) + "\n"


def tree_from_text(text):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if line.startswith("t"):
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 2:
                raise GraphFormatError("header must be 't <n>'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer vertex count", lineno) from None
            continue
        if n is None:
            raise GraphFormatError("edge before 't' header", lineno)
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError("non-integer vertex", lineno) from None
    if n is None:
        raise GraphFormatError("missing 't <n>' header")
    try:
        return Tree(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def read_tree(path):
    return tree_from_text(read_text(path))
