"""Edge-rankings of trees.

An edge-ranking maps every tree edge to a rank in {1..r} so that any two
distinct edges of equal rank are separated, on the path between them, by an
edge of strictly larger rank.  :func:`optimal_edge_ranking` finds the
minimum r exactly, at any size, in one bottom-up pass over the tree rooted
at 0.  Each vertex keeps ``vis``, an int whose bit k says that an edge
below it has rank k with no larger rank in between.  A vertex combines its
children's ``vis`` into the smallest ``vis`` it can have, level by level
from the top; children with equal ``vis`` are handled together and runs of
free levels in bulk, so the work at a vertex grows with its number of
distinct child lists and visible levels rather than with its degree.

A ranking is valid iff, for every k, each component of the subgraph of
edges ranked <= k contains at most one edge ranked exactly k; that is the
check :func:`is_valid_edge_ranking` makes.

:func:`heuristic_edge_ranking` ranks by balanced separators: it cuts each
subtree along :func:`balanced_cut`, which walks a subtree of k vertices
once to learn the balance of all of its k - 1 cuts.  Its ranks drive the
"balanced" biclique partition of ``find_partition``.
"""

from __future__ import annotations

from ._record import FrozenRecord, setfield
from .errors import GraphFormatError
from .graph import find_root, read_text


def ceil_log2(n):
    """Smallest k with 2**k >= n (0 for n <= 1)."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class Tree:
    """A connected acyclic graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges):
        norm = sorted((min(u, v), max(u, v)) for u, v in edges)
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        if len(norm) != n - 1:
            raise ValueError("a tree on %d vertices needs %d edges" % (n, n - 1))
        adj = [[] for _ in range(n)]
        for u, v in norm:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError("invalid edge (%d, %d)" % (u, v))
            adj[u].append(v)
            adj[v].append(u)
        # connectivity
        if n > 0:
            seen = {0}
            stack = [0]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != n:
                raise ValueError("tree is not connected")
        self.n = n
        self.edges = tuple(norm)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, v):
        return self._adj[v]

    def max_degree(self):
        return max((len(a) for a in self._adj), default=0)

    def __repr__(self):
        return "Tree(n=%d)" % self.n


class EdgeRanking(FrozenRecord):
    """Rank assignment for the edges of one tree; ranks are 1..r."""

    __slots__ = ("ranks",)

    def __init__(self, ranks=None):
        setfield(self, "ranks", {} if ranks is None else ranks)

    @property
    def r(self):
        return max(self.ranks.values(), default=0)


def edge_ranking_lower_bound(tree):
    """max(maximum degree, ceil(log2 of the vertex count)); 0 for one node."""
    if tree.n <= 1:
        return 0
    return max(tree.max_degree(), ceil_log2(tree.n))


def is_valid_edge_ranking(tree, ranking):
    """Check the separation condition for every pair of equal-rank edges."""
    ranks = ranking.ranks
    for e in tree.edges:
        if e not in ranks:
            raise ValueError("edge %r has no rank assigned" % (e,))
        if not isinstance(ranks[e], int) or ranks[e] < 1:
            raise ValueError("rank of %r must be a positive integer" % (e,))

    if not tree.edges:
        return True
    parent = list(range(tree.n))
    by_rank = {}
    for e in tree.edges:
        by_rank.setdefault(ranks[e], []).append(e)
    for k in sorted(by_rank):
        for u, v in by_rank[k]:
            parent[find_root(parent, u)] = find_root(parent, v)
        roots = [find_root(parent, u) for u, _ in by_rank[k]]
        if len(set(roots)) != len(roots):
            return False  # two rank-k edges meet without a larger separator
    return True


def _component(adj, vertices, edge):
    """Vertices of the subtree on ``vertices`` on ``edge[0]``'s side of
    ``edge``.  One walk: in a tree the far side is reachable only through
    ``edge[1]``, so that vertex is marked seen from the start."""
    start, stop = edge
    seen = {start, stop}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen and y in vertices:
                seen.add(y)
                stack.append(y)
    seen.discard(stop)
    return frozenset(seen)


def balanced_cut(adj, vertices):
    """The most balanced cut of the subtree on ``vertices``: ``(larger side
    size, edge, side)`` minimizing the larger side, ties going to the
    lexicographically smallest edge, with ``side`` the part holding the
    edge's first endpoint.  One walk from any root gives every cut's
    balance in O(k) for k vertices; one more builds the chosen side.
    """
    total = len(vertices)
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
    for x in reversed(order):
        p = parent[x]
        if p is None:
            continue
        s = size[x]
        size[p] += s
        scored.append((max(s, total - s), (p, x) if p < x else (x, p)))
    larger, e = min(scored)
    return larger, e, _component(adj, vertices, e)


def _fits(pending, level):
    """True when the children in ``pending`` ({vis: count}) can all take a
    rank at or below ``level``.

    Greedy from ``level`` down: a level that two pending children hold is a
    clash, a level that one holds stays that child's, and a level that none
    holds goes to the child whose ``vis`` below it is the largest.  A run
    of levels that no pending child holds leaves every ``vis`` below it
    unchanged, so the whole run is handed out at once.
    """
    left = dict(pending)
    while left:
        if len(left) == 1 and sum(left.values()) == 1:
            (vis,) = left
            return bool(~vis & ((2 << level) - 2))
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

    Levels are decided from the top down.  A level that a pending child
    holds is in U.  A level that none holds is left out when the pending
    children still fit below it (:func:`_fits`); otherwise the pending
    child whose ``vis`` below it is the largest takes it.  Children with
    equal ``vis`` are handled as one group, and whether the pending children
    fit at or below a level only grows with the level, so the next level to
    take is found by galloping down and then bisecting.
    """
    if len(lists) == 1:
        x, union = _lowest_rank(lists[0], lists[0].bit_length())
        return [x], union
    by_vis = {}
    for i, vis in enumerate(lists):
        by_vis.setdefault(vis, []).append(i)
    pending = {vis: len(ix) for vis, ix in by_vis.items()}
    ranks = [0] * len(lists)
    union = 0
    level = max(max(lists).bit_length(), 1) + len(lists) - 1
    for _ in range(len(lists) - 1):
        while True:
            held = 0
            for vis in pending:
                held |= vis
            h = (held & ((2 << level) - 1)).bit_length() - 1
            if h == level:
                union |= 1 << level
                level -= 1
                continue
            lo, hi, step = max(h, 0), level, 1
            while lo < hi:
                probe = max(hi - step, lo) if step else (lo + hi) // 2
                if _fits(pending, probe):
                    hi, step = probe, step + step
                else:
                    lo, step = probe + 1, 0
            if lo > h:
                break
            level = h  # the children fit under the whole free run
        below = (1 << lo) - 1
        vis = max(pending, key=lambda vis: vis & below)
        ranks[by_vis[vis].pop()] = lo
        pending[vis] -= 1
        if not pending[vis]:
            del pending[vis]
        union |= 1 << lo
        level = lo - 1
    (vis,) = pending
    x, seen = _lowest_rank(vis, level)
    ranks[by_vis[vis][0]] = x
    return ranks, union | seen


def optimal_edge_ranking(tree):
    """Minimum-rank edge-ranking, in one bottom-up pass.

    The tree is rooted at 0.  Children come before their parent, and each
    vertex v combines the ``vis`` of its children (:func:`combine_children`)
    into the smallest possible ``vis(v)``; a leaf has ``vis = 0``.  A
    smaller ``vis`` never leaves the rest of the tree worse off, so the
    ranking is optimal, with r the top bit of ``vis(0)``.  No recursion and
    no size cap.  Returns ``(EdgeRanking, r)``.
    """
    adj = tree._adj
    parent = [-1] * tree.n
    parent[0] = 0  # no vertex is its own neighbour: the root has no parent edge
    order = [0]
    for v in order:
        for c in adj[v]:
            if parent[c] < 0:
                parent[c] = v
                order.append(c)
    vis = [0] * tree.n
    ranks = {}
    for v in reversed(order):
        children = [c for c in adj[v] if c != parent[v]]
        if not children:
            continue
        xs, vis[v] = combine_children([vis[c] for c in children])
        for c, x in zip(children, xs):
            ranks[(v, c) if v < c else (c, v)] = x
    return EdgeRanking(ranks), max(vis[0].bit_length() - 1, 0)


def heuristic_edge_ranking(tree):
    """Valid (not necessarily optimal) ranking via balanced edge separators.

    The top rank goes to an edge minimizing the larger component, ties broken
    by lexicographically smallest edge; both sides are cut the same way, and
    an edge ranks one above the highest edge cut on either of its sides, so
    every subtree's top edge is its most balanced cut, the one that the
    "balanced" ``find_partition`` makes.  Runs on an explicit stack, so no
    recursion limit applies.  Returns ``(EdgeRanking, r)``.
    """
    adj = tree._adj
    cuts = []  # (edge, index of the cut that made its subtree), pre-order
    stack = [(frozenset(range(tree.n)), None)]
    while stack:
        vertices, up = stack.pop()
        if len(vertices) == 1:
            continue
        _, e, side = balanced_cut(adj, vertices)
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
    return EdgeRanking(ranks), r


# -- serialization ------------------------------------------------------------


def ranking_to_text(ranking):
    lines = [
        "%d %d : %d" % (u, v, ranking.ranks[(u, v)])
        for u, v in sorted(ranking.ranks)
    ]
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
