"""Edge-rankings of trees.

An edge-ranking maps every tree edge to a rank in {1..r} so that any two
distinct edges of equal rank are separated, on the path between them, by an
edge of strictly larger rank.  The minimum possible r over all valid rankings
is computed exactly for desk-scale trees (memoized search over connected
subtrees) and approximately, via balanced separators, for anything larger.

In any valid ranking of a connected tree exactly one edge carries the top
rank; cutting it leaves two subtrees whose restricted rankings are again
valid.  That observation is what both the exact recursion and the validity
check below are built on: a ranking is valid iff, for every k, each component
of the subgraph of edges ranked <= k contains at most one edge ranked
exactly k.

Both searches cut subtrees along :func:`balanced_cuts`, which walks a
subtree of k vertices once to learn the balance of all of its k - 1 cuts and
builds a cut's side set only when the search reaches that cut.  A cut of the
heuristic therefore costs O(k log k), not one O(k) component scan per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError, TreeTooLargeError
from .graph import find_root


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


@dataclass(frozen=True)
class EdgeRanking:
    """Rank assignment for the edges of one tree; ranks are 1..r."""

    ranks: dict = field(default_factory=dict)

    @property
    def r(self):
        return max(self.ranks.values(), default=0)

    def rank_of(self, u, v):
        return self.ranks[(min(u, v), max(u, v))]


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


def balanced_cuts(adj, vertices):
    """Every edge of the subtree on ``vertices`` as a cut of it.

    Yields ``(larger side size, edge, side)`` triples, most balanced first,
    ties going to the lexicographically smallest edge; ``side`` is the part
    holding the edge's first endpoint.  One walk from any root records how
    many vertices lie below each vertex, which gives every cut's balance in
    O(k) for k vertices; the cuts are sorted in O(k log k), and a side set
    is built, in O(k), only when the caller reaches its cut.
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
    scored.sort()
    for larger, e in scored:
        yield larger, e, _component(adj, vertices, e)


def optimal_edge_ranking(tree, max_edges=64):
    """Minimum-rank edge-ranking, found by exact search.

    Memoized recursion over connected subtrees: the top rank goes to one edge
    and the best choice minimizes 1 + max of the two sides.  Candidate edges
    are tried most-balanced first so the log lower bound often closes the
    search immediately.  Returns ``(EdgeRanking, r)``.

    Trees with more than ``max_edges`` edges are refused; call
    :func:`heuristic_edge_ranking` for those.
    """
    if len(tree.edges) > max_edges:
        raise TreeTooLargeError(
            "tree has %d edges, exact search is capped at %d; "
            "use heuristic_edge_ranking" % (len(tree.edges), max_edges)
        )
    adj = tree._adj
    memo = {}

    def rank_number(vertices):
        if vertices in memo:
            return memo[vertices][0]
        if len(vertices) == 1:
            memo[vertices] = (0, None)
            return 0
        degree = max(sum(y in vertices for y in adj[x]) for x in vertices)
        lb = max(degree, ceil_log2(len(vertices)))
        best = None
        best_edge = None
        for _, e, side in balanced_cuts(adj, vertices):
            other = vertices - side
            cand = 1 + max(rank_number(side), rank_number(other))
            if best is None or cand < best:
                best, best_edge = cand, e
                if best == lb:
                    break
        memo[vertices] = (best, best_edge)
        return best

    full = frozenset(range(tree.n))
    r = rank_number(full)

    ranks = {}

    def assign(vertices):
        value, e = memo[vertices]
        if e is None:
            return 0
        side = _component(adj, vertices, e)
        other = vertices - side
        ranks[e] = 1 + max(assign(side), assign(other))
        return value

    assign(full)
    ranking = EdgeRanking(ranks)
    assert r >= edge_ranking_lower_bound(tree)
    return ranking, r


def heuristic_edge_ranking(tree):
    """Valid (not necessarily optimal) ranking via balanced edge separators.

    The top rank goes to an edge minimizing the larger component, ties broken
    by lexicographically smallest edge; both sides are cut the same way, and
    an edge ranks one above the highest edge cut on either of its sides.
    Runs on an explicit stack, so no recursion limit applies.  Returns
    ``(EdgeRanking, r)``.
    """
    adj = tree._adj
    cuts = []  # (edge, index of the cut that made its subtree), pre-order
    stack = [(frozenset(range(tree.n)), None)]
    while stack:
        vertices, up = stack.pop()
        if len(vertices) == 1:
            continue
        _, e, side = next(balanced_cuts(adj, vertices))
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
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_text(fh.read())
