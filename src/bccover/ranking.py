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
"""

from __future__ import annotations

from collections import deque
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


def _component(adj, inside, start, banned_edge):
    """Vertices reachable from start within ``inside``, not crossing one edge."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in seen or y not in inside:
                continue
            if (min(x, y), max(x, y)) == banned_edge:
                continue
            seen.add(y)
            stack.append(y)
    return frozenset(seen)


def balanced_cuts(adj, vertices, edges):
    """Every edge of ``edges`` as a cut of the subtree on ``vertices``.

    Returns ``(larger side size, edge, side)`` triples, most balanced first,
    ties going to the lexicographically smallest edge; ``side`` is the part
    holding the edge's first endpoint.
    """
    total = len(vertices)
    scored = []
    for e in edges:
        side = _component(adj, vertices, e[0], e)
        scored.append((max(len(side), total - len(side)), e, side))
    scored.sort(key=lambda t: (t[0], t[1]))
    return scored


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

    def inside_edges(vertices):
        return [
            (u, v) for u, v in tree.edges if u in vertices and v in vertices
        ]

    def rank_number(vertices):
        if vertices in memo:
            return memo[vertices][0]
        edges = inside_edges(vertices)
        if not edges:
            memo[vertices] = (0, None)
            return 0
        degrees = {}
        for u, v in edges:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        lb = max(max(degrees.values()), ceil_log2(len(vertices)))
        best = None
        best_edge = None
        for _, e, side in balanced_cuts(adj, vertices, edges):
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
        side = _component(adj, vertices, e[0], e)
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
    by lexicographically smallest edge; both sides recurse.  Returns
    ``(EdgeRanking, r)``.
    """
    adj = tree._adj
    ranks = {}

    def solve(vertices):
        edges = [
            (u, v) for u, v in tree.edges if u in vertices and v in vertices
        ]
        if not edges:
            return 0
        _, e, side = balanced_cuts(adj, vertices, edges)[0]
        ranks[e] = 1 + max(solve(side), solve(vertices - side))
        return ranks[e]

    r = solve(frozenset(range(tree.n)))
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
