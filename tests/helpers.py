"""Shared test utilities: naive reference oracles, instance enumeration and
a runner for scripts in a fresh interpreter.

The naive computations here are deliberately brute force and share no code
with the package internals they certify.
"""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, islice

import numpy as np

import bccover
from bccover import (
    Biclique,
    CliqueTree,
    Graph,
    NotChordalError,
    BudgetExceededError,
    OracleBudget,
    OracleResult,
    Tree,
    ceil_log2,
    clique_tree,
    enumerate_maximal_bicliques,
    enumerate_maximal_cliques,
    exact_clique_number,
)
from bccover.graph import mask_vertices
from bccover.oracle import (
    _bicliques_through,
    _class_colors,
    _edges_at,
    _touching,
    greedy_coloring,
)


def run_python(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter that imports
    bccover from the same ``src`` as this process; returns its stdout once it
    has exited 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bccover.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def er_graph(n, p, rng):
    """Erdos-Renyi style random graph from a seeded Random."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_tree_edges(n, rng):
    return [(rng.randrange(v), v) for v in range(1, n)]


def graph_from_labels(labels, edge_labels):
    """Graph from label pairs like ["ad", "ae"] over label string ``labels``."""
    index = {c: i for i, c in enumerate(labels)}
    return Graph(len(labels), [(index[a], index[b]) for a, b in edge_labels])


# -- naive biclique machinery --------------------------------------------------


def naive_is_biclique(g, left, right):
    """Set-based biclique test: nonempty, disjoint, in range, and all
    |L| * |R| cross pairs looked up as edges one by one."""
    left = set(left)
    right = set(right)
    if not left or not right or left & right:
        return False
    if any(not 0 <= v < g.n for v in left | right):
        return False
    return all(g.has_edge(u, v) for u in left for v in right)


def naive_merge_bicliques(items, g):
    """The set-based greedy merge of one level: sorted by ``ord``, each
    biclique is unioned into every kept member for which one of the two
    side orientations stays a biclique (:func:`naive_is_biclique`), and is
    kept as a new member when none does."""
    kept = []
    for b, _ in sorted(items, key=lambda t: t[1]):
        append = True
        for entry in kept:
            for side, other in ((b.left, b.right), (b.right, b.left)):
                cand_l, cand_r = side | entry[0], other | entry[1]
                if naive_is_biclique(g, cand_l, cand_r):
                    entry[0], entry[1] = cand_l, cand_r
                    append = False
                    break
        if append:
            kept.append([set(b.left), set(b.right)])
    return [Biclique(frozenset(l), frozenset(r)) for l, r in kept]


def naive_edge_multiplicities(g, bicliques):
    """Counter of how often each edge is covered, with every edge spelled
    out as a tuple; None when a member is not a biclique of g."""
    counts = Counter()
    for b in bicliques:
        if not naive_is_biclique(g, b.left, b.right):
            return None
        counts.update(b.edge_set())
    return counts


def naive_verify_cover(g, bicliques):
    counts = naive_edge_multiplicities(g, bicliques)
    return counts is not None and set(counts) == set(g.edges())


def naive_verify_partition(g, bicliques):
    counts = naive_edge_multiplicities(g, bicliques)
    return (
        counts is not None
        and set(counts) == set(g.edges())
        and all(c == 1 for c in counts.values())
    )


def naive_cover_defects(g, bicliques, partition=False):
    """The violation messages of ``cover_defects``, from edge counts."""
    problems = [
        "member %d is not a biclique subgraph" % idx
        for idx, b in enumerate(bicliques)
        if not naive_is_biclique(g, b.left, b.right)
    ]
    if problems:
        return problems
    counts = naive_edge_multiplicities(g, bicliques)
    for e in g.edges():
        if counts[e] == 0:
            problems.append("edge %d %d is uncovered" % e)
            break
    if partition:
        for e in sorted(counts):
            if counts[e] > 1:
                problems.append(
                    "edge %d %d is covered %d times" % (e[0], e[1], counts[e])
                )
                break
    return problems


def all_bicliques(g):
    """Every biclique subgraph of g, by assigning each vertex to L/R/out."""
    found = set()
    n = g.n

    def assign(v, left, right):
        if v == n:
            if left and right and naive_is_biclique(g, left, right):
                found.add(Biclique(frozenset(left), frozenset(right)))
            return
        assign(v + 1, left, right)
        assign(v + 1, left | {v}, right)
        assign(v + 1, left, right | {v})

    assign(0, frozenset(), frozenset())
    return sorted(found, key=lambda b: (sorted(b.canonical().left),
                                        sorted(b.canonical().right)))


def naive_maximal_bicliques(g):
    """Inclusion-maximal bicliques by double-subset scan over all bicliques."""
    candidates = all_bicliques(g)

    def contained(a, b):
        return (a.left <= b.left and a.right <= b.right) or (
            a.left <= b.right and a.right <= b.left
        )

    out = []
    for a in candidates:
        if not any(a != b and contained(a, b) for b in candidates):
            out.append(a)
    return out


def reference_maximal_bicliques(g):
    """The subset scan that ``enumerate_maximal_bicliques`` used to be: every
    vertex subset L whose common neighbourhood R is nonempty and has L as its
    own common neighbourhood, kept in the orientation whose left side holds
    the lower vertex."""
    found = []
    for left in range(1, 1 << g.n):
        right = g.common_neighbors(left)
        if right == 0 or g.common_neighbors(right) != left:
            continue
        if (left & -left) < (right & -right):
            found.append((left, right))
    found.sort(key=lambda lr: (sorted(vertex_set(lr[0])), sorted(vertex_set(lr[1]))))
    return [Biclique(vertex_set(left), vertex_set(right)) for left, right in found]


def naive_bc(g):
    """Minimum biclique cover size by searching over all bicliques."""
    edges = set(g.edges())
    if not edges:
        return 0
    candidates = all_bicliques(g)
    edge_sets = [frozenset(b.edge_set()) for b in candidates]
    for k in range(1, len(edges) + 1):
        for combo in combinations(range(len(candidates)), k):
            union = set()
            for i in combo:
                union |= edge_sets[i]
            if union == edges:
                return k
    raise AssertionError("single edges always cover")


def set_partitions(items):
    """All set partitions of a list (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1:]
        yield [[first]] + partial


def _is_biclique_edge_set(g, block):
    """Does ``block`` (a set of edges) equal L x R for some biclique of g?"""
    verts = sorted({v for e in block for v in e})
    adj = {v: set() for v in verts}
    for u, v in block:
        adj[u].add(v)
        adj[v].add(u)
    color = {verts[0]: 0}
    queue = [verts[0]]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in color:
                color[y] = 1 - color[x]
                queue.append(y)
            elif color[y] == color[x]:
                return False
    if len(color) != len(verts):
        return False  # complete bipartite graphs are connected
    left = {v for v in verts if color[v] == 0}
    right = {v for v in verts if color[v] == 1}
    return len(block) == len(left) * len(right)


def naive_bp(g):
    """Minimum biclique partition size by scanning all edge-set partitions."""
    edges = g.edges()
    if not edges:
        return 0
    best = len(edges)
    for partition in set_partitions(edges):
        if len(partition) >= best:
            continue
        if all(_is_biclique_edge_set(g, set(block)) for block in partition):
            best = len(partition)
    return best


def _reference_eigen_partition_bound(g):
    """max(#positive, #negative adjacency eigenvalues): every biclique
    partition needs at least that many members."""
    if g.n == 0 or g.m == 0:
        return 0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    eig = np.linalg.eigvalsh(a)
    tol = 1e-8 * g.n
    return int(max((eig > tol).sum(), (eig < -tol).sum()))


class _ReferenceTimeout(Exception):
    pass


class _ReferenceDeadline:
    def __init__(self, seconds):
        self.at = time.monotonic() + seconds
        self._tick = 0

    def check(self, every=256):
        self._tick += 1
        if self._tick % every == 0 and time.monotonic() > self.at:
            raise _ReferenceTimeout()


def reference_exact_bp(g, time_cap=10.0):
    """The edge-tuple branch and bound that ``exact_bp`` used to be, kept as
    the reference for the mask search.

    Branch and bound assigning each uncovered edge either to a grown copy of
    an open biclique (both orientations) or to a fresh one; growing a side
    silently claims every newly spanned cross edge, so the rectangles stay
    exactly-once by construction.  Shares only the root bounds and start
    partitions with the package, not the search.
    """
    edges = g.edges()
    if not edges:
        return OracleResult(0, 0, [])

    gc = g.complement()
    lb = max(1, _reference_eigen_partition_bound(g))
    lb = max(lb, ceil_log2(len(enumerate_maximal_cliques(gc))))

    # initial partitions: per-vertex stars, and the clique-tree construction
    # when the complement is chordal
    by_min = {}
    for u, v in edges:
        by_min.setdefault(u, set()).add(v)
    best_parts = [
        Biclique(frozenset([u]), frozenset(vs)) for u, vs in sorted(by_min.items())
    ]
    try:
        tree_parts = naive_find_partition(clique_tree(gc))
        if len(tree_parts) < len(best_parts):
            best_parts = tree_parts
    except NotChordalError:
        pass
    best = len(best_parts)
    if best == lb:
        return OracleResult(best, best, best_parts)

    edge_list = list(edges)
    deadline = _ReferenceDeadline(time_cap)

    def dfs(covered, members):
        nonlocal best, best_parts
        deadline.check()
        if len(members) >= best:
            return
        pending = None
        for e in edge_list:
            if e not in covered:
                pending = e
                break
        if pending is None:
            best = len(members)
            best_parts = [Biclique(frozenset(l), frozenset(r)) for l, r in members]
            return
        u, v = pending
        for k, (left, right) in enumerate(members):
            for a, b in ((u, v), (v, u)):
                if a in right or b in left:
                    continue
                new_left = left | {a}
                new_right = right | {b}
                fresh = {
                    (min(x, y), max(x, y))
                    for x in new_left
                    for y in new_right
                } - {
                    (min(x, y), max(x, y)) for x in left for y in right
                }
                if any(not g.has_edge(x, y) or (x, y) in covered for x, y in fresh):
                    continue
                members[k] = (new_left, new_right)
                dfs(covered | fresh, members)
                members[k] = (left, right)
                if best == lb:
                    return
        if len(members) + 1 < best:
            members.append((frozenset([u]), frozenset([v])))
            dfs(covered | {pending}, members)
            members.pop()

    try:
        dfs(frozenset(), [])
    except _ReferenceTimeout:
        return OracleResult(lb, best, best_parts)
    return OracleResult(best, best, best_parts)


# -- reference oracles: the edge-tuple and list searches the mask ones replace --


def reference_conflict_graph(g, induced_c4_only=True):
    """The pairwise conflict graph that ``conflict_graph`` used to build:
    every pair of disjoint edges looked up with ``has_edge``."""
    edges = g.edges()
    adjacency = []
    for i in range(len(edges)):
        a, b = edges[i]
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if len({a, b, c, d}) != 4:
                continue
            straight = g.has_edge(a, c) and g.has_edge(b, d)
            crossed = g.has_edge(a, d) and g.has_edge(b, c)
            if induced_c4_only:
                in_c4 = (straight and not g.has_edge(a, d) and not g.has_edge(b, c)) or (
                    crossed and not g.has_edge(a, c) and not g.has_edge(b, d)
                )
            else:
                in_c4 = straight or crossed
            if not in_c4:
                adjacency.append((i, j))
    return Graph(len(edges), adjacency)


def _reference_bc_lower_bound(g):
    """The floor that ``exact_bc`` used to prune with: log-mc, raised to
    the clique number of the strict conflict graph (any 4-cycle through
    two edges keeps them apart) when g has at most 40 edges."""
    lb = ceil_log2(len(enumerate_maximal_cliques(g.complement())))
    if g.m <= 40:
        conflict = reference_conflict_graph(g, induced_c4_only=False)
        if conflict.m:
            try:
                lb = max(lb, exact_clique_number(conflict, OracleBudget(41, 900, 2.0)).value)
            except BudgetExceededError:
                pass
    return lb


def reference_exact_bc(g, time_cap=10.0):
    """The frozenset set-cover search that ``exact_bc`` used to be: each
    maximal biclique as a frozenset of edge tuples, and a ``covering`` dict
    keyed by edge.  Ties between equally rare edges follow frozenset order.
    Shares the biclique enumeration and the clique-number oracle with the
    package, not the conflict graph or the search."""
    edges = g.edges()
    if not edges:
        return OracleResult(0, 0, [])
    bicliques = enumerate_maximal_bicliques(g)
    sets = [frozenset(b.edge_set()) for b in bicliques]
    universe = frozenset(edges)

    uncovered = set(universe)
    greedy = []
    while uncovered:
        idx = max(range(len(sets)), key=lambda i: (len(sets[i] & uncovered), -i))
        greedy.append(idx)
        uncovered -= sets[idx]
    best = len(greedy)
    best_cover = list(greedy)

    lb = max(1, _reference_bc_lower_bound(g))
    if best == lb:
        return OracleResult(best, best, [bicliques[i] for i in best_cover])

    covering = {e: [i for i, s in enumerate(sets) if e in s] for e in universe}
    deadline = _ReferenceDeadline(time_cap)

    def dfs(uncovered, chosen):
        nonlocal best, best_cover
        deadline.check()
        if not uncovered:
            if len(chosen) < best:
                best = len(chosen)
                best_cover = list(chosen)
            return
        if len(chosen) + 1 >= best:
            return
        e = min(uncovered, key=lambda e: len(covering[e]))
        options = sorted(covering[e], key=lambda i: -len(sets[i] & uncovered))
        for idx in options:
            dfs(uncovered - sets[idx], chosen + [idx])
            if best == lb:
                return

    try:
        dfs(universe, [])
    except _ReferenceTimeout:
        return OracleResult(lb, best, [bicliques[i] for i in best_cover])
    return OracleResult(best, best, [bicliques[i] for i in best_cover])


def reference_max_matching(g, time_cap=10.0):
    """The include/exclude edge branching that ``exact_max_matching`` used
    to be, over a ``used`` list of booleans."""
    edges = g.edges()
    m = len(edges)
    if m == 0:
        return OracleResult(0, 0, [])
    best = 0
    best_edges = []
    used = [False] * g.n
    chosen = []
    deadline = _ReferenceDeadline(time_cap)

    def dfs(idx, count):
        nonlocal best, best_edges
        deadline.check()
        free = sum(1 for x in used if not x)
        if count + free // 2 <= best:
            return
        while idx < m and (used[edges[idx][0]] or used[edges[idx][1]]):
            idx += 1
        if idx == m:
            if count > best:
                best = count
                best_edges = list(chosen)
            return
        u, v = edges[idx]
        used[u] = used[v] = True
        chosen.append((u, v))
        dfs(idx + 1, count + 1)
        chosen.pop()
        used[u] = used[v] = False
        dfs(idx + 1, count)

    try:
        dfs(0, 0)
    except _ReferenceTimeout:
        return OracleResult(best, g.n // 2, best_edges)
    return OracleResult(best, best, best_edges)


def _reference_neighbour_lists(g):
    return [sorted(g.neighborhood(v)) for v in range(g.n)]


def reference_greedy_coloring(g):
    """Largest-first greedy coloring over neighbour lists and a color list."""
    colors = [0] * g.n
    nbrs = _reference_neighbour_lists(g)
    for v in sorted(range(g.n), key=lambda v: -len(nbrs[v])):
        taken = {colors[u] for u in nbrs[v] if colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _reference_greedy_clique_size(g):
    nbrs = _reference_neighbour_lists(g)
    best = 1 if g.n else 0
    for v in range(g.n):
        clique = [v]
        for u in sorted(nbrs[v], key=lambda u: -len(nbrs[u])):
            if all(g.has_edge(u, w) for w in clique):
                clique.append(u)
        best = max(best, len(clique))
    return best


def reference_chromatic(g, time_cap=10.0):
    """The DSATUR backtracking that ``exact_chromatic`` used to be, over
    neighbour lists and one color per vertex."""
    n = g.n
    if n == 0:
        return OracleResult(0, 0, ())
    if g.m == 0:
        return OracleResult(1, 1, (1,) * n)
    best_assign = reference_greedy_coloring(g)
    best = max(best_assign)
    clique_lb = _reference_greedy_clique_size(g)
    if best == clique_lb:
        return OracleResult(best, best, tuple(best_assign))

    colors = [0] * n
    nbrs = _reference_neighbour_lists(g)
    deadline = _ReferenceDeadline(time_cap)

    def select():
        cand, sat, deg = -1, -1, -1
        for v in range(n):
            if colors[v]:
                continue
            s = len({colors[u] for u in nbrs[v] if colors[u]})
            d = len(nbrs[v])
            if s > sat or (s == sat and d > deg):
                cand, sat, deg = v, s, d
        return cand

    def backtrack(used, colored):
        nonlocal best, best_assign
        deadline.check()
        if used >= best:
            return
        if colored == n:
            best = used
            best_assign = list(colors)
            return
        v = select()
        for c in range(1, min(used + 1, best - 1) + 1):
            if all(colors[u] != c for u in nbrs[v]):
                colors[v] = c
                backtrack(max(used, c), colored + 1)
                colors[v] = 0
                if best == clique_lb:
                    return

    try:
        backtrack(0, 0)
    except _ReferenceTimeout:
        return OracleResult(clique_lb, best, tuple(best_assign))
    return OracleResult(best, best, tuple(best_assign))


def reference_recursive_chromatic(g, time_cap=10.0):
    """The recursive DSATUR backtracking over colour class masks that
    ``exact_chromatic`` used to be: one Python frame per coloured vertex.
    Shares the greedy colouring with the package, not the search; its floor
    is the greedy clique that ``exact_chromatic`` used to start from, so a
    match also shows that the package's MCQ floor changes no result."""
    n = g.n
    if n == 0:
        return OracleResult(0, 0, ())
    if g.m == 0:
        return OracleResult(1, 1, (1,) * n)
    best_assign = greedy_coloring(g)
    best = max(best_assign)
    clique_lb = _reference_greedy_clique_size(g)
    if best == clique_lb:
        return OracleResult(best, best, tuple(best_assign))

    masks = g.neighbor_masks()
    classes = [0] * best
    deadline = _ReferenceDeadline(time_cap)

    def select(uncolored):
        cand, sat, deg = -1, -1, -1
        for v in mask_vertices(uncolored):
            s = sum(1 for cls in classes if cls & masks[v])
            d = masks[v].bit_count()
            if s > sat or (s == sat and d > deg):
                cand, sat, deg = v, s, d
        return cand

    def backtrack(used, uncolored):
        nonlocal best, best_assign
        deadline.check()
        if used >= best:
            return
        if not uncolored:
            best = used
            best_assign = _class_colors(classes, n)
            return
        v = select(uncolored)
        bit = 1 << v
        for c in range(min(used + 1, best - 1)):
            if not classes[c] & masks[v]:
                classes[c] |= bit
                backtrack(max(used, c + 1), uncolored ^ bit)
                classes[c] ^= bit
                if best == clique_lb:
                    return

    try:
        backtrack(0, (1 << n) - 1)
    except _ReferenceTimeout:
        return OracleResult(clique_lb, best, tuple(best_assign))
    return OracleResult(best, best, tuple(best_assign))


def reference_branch_options(masks, deadline):
    """The option chooser that ``exact_bp`` used to have: it lists the
    bicliques through each candidate edge, up to the fewest found, where the
    package counts them.  A drop-in for ``oracle._branch_options`` that
    shares the lister ``_bicliques_through`` with the package."""
    floors = []
    for u, mask in enumerate(masks):
        for v in mask_vertices(mask >> (u + 1) << (u + 1)):
            floors.append((mask.bit_count() + masks[v].bit_count() - 1, u, v))
    floors.sort()
    options = None
    for floor, u, v in floors:
        if options is not None and floor >= len(options):
            break
        limit = None if options is None else len(options)
        found = list(islice(_bicliques_through(masks, u, v, deadline), limit))
        if options is None or len(found) < len(options):
            options = found
    options.sort(key=lambda lr: -lr[0].bit_count() * lr[1].bit_count())
    return options


def reference_mask_exact_bc(g, time_cap=10.0):
    """The edge-mask set cover that ``exact_bc`` used to be: each node scans
    its uncovered edges for the one in the fewest bicliques, and each child
    gets a fresh copy of the chosen list.  Shares the biclique enumeration
    and the edge masks with the package, not the search; its floor is the
    strict conflict bound that ``exact_bc`` used to prune with as well, so a
    match also shows that log-mc alone changes no result."""
    if not g.m:
        return OracleResult(0, 0, [])
    bicliques = enumerate_maximal_bicliques(g)
    at = _edges_at(g.n, g.edges())
    sets = [_touching(at, b._left) & _touching(at, b._right) for b in bicliques]
    universe = uncovered = (1 << g.m) - 1
    greedy = []
    while uncovered:
        idx = max(range(len(sets)), key=lambda i: ((sets[i] & uncovered).bit_count(), -i))
        greedy.append(idx)
        uncovered &= ~sets[idx]
    best = len(greedy)
    best_cover = list(greedy)
    lb = max(1, _reference_bc_lower_bound(g))
    if best == lb:
        return OracleResult(best, best, [bicliques[i] for i in best_cover])

    covering = [[i for i, s in enumerate(sets) if s >> e & 1] for e in range(g.m)]
    deadline = _ReferenceDeadline(time_cap)

    def dfs(uncovered, chosen):
        nonlocal best, best_cover
        deadline.check()
        if not uncovered:
            if len(chosen) < best:
                best = len(chosen)
                best_cover = list(chosen)
            return
        if len(chosen) + 1 >= best:
            return
        e = min(mask_vertices(uncovered), key=lambda e: len(covering[e]))
        options = sorted(covering[e], key=lambda i: -(sets[i] & uncovered).bit_count())
        for idx in options:
            dfs(uncovered & ~sets[idx], chosen + [idx])
            if best == lb:
                return

    try:
        dfs(universe, [])
    except _ReferenceTimeout:
        return OracleResult(lb, best, [bicliques[i] for i in best_cover])
    return OracleResult(best, best, [bicliques[i] for i in best_cover])


# -- small constructions the library does not use -------------------------------


def induced_subgraph(g, vertices):
    """Subgraph of ``g`` induced by ``vertices``, relabeled to 0..|S|-1.

    Returns ``(graph, mapping)`` where ``mapping[i]`` is the original index
    of the new vertex ``i``.
    """
    mapping = tuple(sorted(set(vertices)))
    for v in mapping:
        if not 0 <= v < g.n:
            raise ValueError("vertex %r out of range for n=%d" % (v, g.n))
    index = {v: i for i, v in enumerate(mapping)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(mapping), edges), mapping


def first_clique_coloring(g, budget=None):
    """Color every vertex by the index of the first maximal clique of the
    complement containing it (1-based).

    Always a proper coloring of ``g``, which is why mc(complement) bounds the
    chromatic number from above.
    """
    cliques = enumerate_maximal_cliques(g.complement(), budget)
    colors = [0] * g.n
    for v in range(g.n):
        for i, k in enumerate(cliques, start=1):
            if v in k:
                colors[v] = i
                break
    return tuple(colors)


def clique_split_biclique(cliques, left_index, right_index):
    """Biclique induced by a bipartition of a maximal-clique list.

    ``cliques`` are the maximal cliques of the *complement* of the target
    graph; ``left_index``/``right_index`` must partition ``range(len(cliques))``
    into two nonempty groups.  Returns the biclique
    (union of left cliques minus union of right, and vice versa), or None if
    either difference is empty.
    """
    left_index = set(left_index)
    right_index = set(right_index)
    if not left_index or not right_index:
        raise ValueError("both index groups must be nonempty")
    if left_index & right_index or left_index | right_index != set(
        range(len(cliques))
    ):
        raise ValueError("index groups must partition the clique list")
    union_l = set().union(*(cliques[i] for i in left_index))
    union_r = set().union(*(cliques[i] for i in right_index))
    left, right = union_l - union_r, union_r - union_l
    if not left or not right:
        return None
    return Biclique(left, right)


# -- naive chordal layer ---------------------------------------------------------


def naive_mcs_order(g):
    """Maximum cardinality search by scanning every vertex at every step,
    O(n^2): positions from n down to 1, the unlabeled vertex with the most
    labeled neighbours first, ties to the smallest index.  Returns the order
    as a tuple of vertices by position."""
    n = g.n
    adj = [[] for _ in range(n)]
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    weight = [0] * n
    labeled = [False] * n
    order = [0] * n
    for pos in range(n, 0, -1):
        best = -1
        for v in range(n):
            if not labeled[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        labeled[best] = True
        order[pos - 1] = best
        for w in adj[best]:
            if not labeled[w]:
                weight[w] += 1
    return tuple(order)


def reference_clique_tree(g):
    """Clique tree (or forest) of ``g`` in three passes: the MCS order, a
    check that it is a perfect elimination order, then a replay of the
    order that builds the cliques and the tree edges.  Raises
    :class:`NotChordalError` naming the first position whose later
    neighbours are not a clique."""
    order = naive_mcs_order(g)
    masks = g.neighbor_masks()
    later = (1 << g.n) - 1  # vertices at this position or after
    for position, v in enumerate(order, start=1):
        later ^= 1 << v
        nbrs = masks[v] & later
        if any(nbrs & ~masks[u] & ~(1 << u) for u in mask_vertices(nbrs)):
            raise NotChordalError(
                "graph is not chordal (elimination check fails at position %d)"
                % position,
                position=position,
            )

    alpha = {v: position for position, v in enumerate(order, start=1)}
    labeled = 0
    clique_of = {}
    cliques = []
    tree_edges = []
    prev_card = 0
    for v in reversed(order):
        base = labeled & masks[v]
        card = base.bit_count()
        if card <= prev_card:
            cliques.append(base)
            if card:
                parent = clique_of[min(mask_vertices(base), key=alpha.get)]
                tree_edges.append((parent, len(cliques) - 1))
        clique_of[v] = len(cliques) - 1
        cliques[-1] |= 1 << v
        labeled |= 1 << v
        prev_card = card
    return CliqueTree(tuple(cliques), tuple(sorted(tree_edges)))


def vertex_set(mask):
    """The vertices of a vertex mask, one bit test per position."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def naive_clique_membership_counts(tree, n):
    """Per-vertex count of the nodes of ``tree`` holding it, for vertices
    0..n-1, from a scan of every node; and whether every count is at most
    two.  Needs no tree structure, only the nodes."""
    sets = [vertex_set(clique) for clique in tree.nodes]
    counts = tuple(sum(v in s for s in sets) for v in range(n))
    return counts, all(c <= 2 for c in counts)


def naive_verify_clique_tree(g, tree):
    """Clique-tree check over frozensets: the edges form a forest with one
    tree per component of ``g``; the nodes are maximal cliques, pairwise
    incomparable and covering every edge; and for every pair of nodes in
    one tree, each node on the path between them (one BFS and a path walk
    per pair) holds their intersection."""
    nodes = [vertex_set(k) for k in tree.nodes]
    d = len(nodes)
    for i, j in tree.edges:
        if not (0 <= i < d and 0 <= j < d and i != j):
            return False

    # forest structure: acyclic, one tree per component of g
    parent = list(range(d))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in tree.edges:
        ri, rj = root(i), root(j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj
    by_root = {}
    for i in range(d):
        by_root.setdefault(root(i), set()).update(nodes[i])
    comps, seen = set(), set()
    for start in range(g.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in g.neighborhood(stack.pop()):
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.add(frozenset(comp))
    if len(by_root) != len(comps):
        return False
    if {frozenset(s) for s in by_root.values()} != comps:
        return False

    # nodes are maximal cliques, pairwise incomparable, covering all edges
    for k in nodes:
        if not all(0 <= u < g.n for u in k):
            return False
        if not all(g.has_edge(u, v) for u, v in combinations(sorted(k), 2)):
            return False  # not a clique
        if any(all(g.has_edge(u, x) for u in k) for x in range(g.n) if x not in k):
            return False  # extendable, not maximal
    for a in range(d):
        for b in range(a + 1, d):
            if nodes[a] <= nodes[b] or nodes[b] <= nodes[a]:
                return False
    if not all(any(u in k and v in k for k in nodes) for u, v in g.edges()):
        return False  # an edge lies in no node

    # clique-intersection property along every path
    adj = [[] for _ in range(d)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    for a in range(d):
        prev = {a: None}
        queue = [a]
        for x in queue:
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        for b in range(a + 1, d):
            if b not in prev:
                continue
            need = nodes[a] & nodes[b]
            x = b
            while x is not None:
                if not need <= nodes[x]:
                    return False
                x = prev[x]
    return True


# -- naive tree layer ------------------------------------------------------------


def _naive_component(adj, inside, start, banned_edge):
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


def naive_balanced_cuts(adj, vertices, edges):
    """Every edge of ``edges`` as a cut of the subtree on ``vertices``, one
    component scan per edge: ``(larger side size, edge, side)`` triples, most
    balanced first, ties going to the smallest edge; ``side`` holds the
    edge's first endpoint."""
    total = len(vertices)
    scored = []
    for e in edges:
        side = _naive_component(adj, vertices, e[0], e)
        scored.append((max(len(side), total - len(side)), e, side))
    scored.sort(key=lambda t: (t[0], t[1]))
    return scored


def _naive_joined_tree(tree):
    """``(nodes, edges, mids)`` of a clique forest joined into one tree, as
    frozensets: the lowest node of each component is chained to the next
    one, in ascending order, and every edge's middle set is its two cliques'
    intersection."""
    nodes = [vertex_set(k) for k in tree.nodes]
    d = tree.node_count
    adj = [[] for _ in range(d)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    everything = frozenset(range(d))
    lowest, seen = [], set()
    for i in range(d):
        if i not in seen:
            lowest.append(i)
            seen |= _naive_component(adj, everything, i, None)
    edges = sorted(list(tree.edges) + list(zip(lowest, lowest[1:])))
    return nodes, edges, [nodes[i] & nodes[j] for i, j in edges]


def _naive_cut_loop(tree, choose):
    """The top-down cut loop: cut the subtree on ``part`` along
    ``choose(part, inner edges, adj)``, emit ``(part, edge, biclique)`` with
    the first endpoint's side on the left, then do that side, then the
    other side.  The forest is joined first."""
    nodes, edges, mids = _naive_joined_tree(tree)
    mid_of = dict(zip(edges, mids))
    adj = [[] for _ in nodes]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    stack = [frozenset(range(len(nodes)))]
    while stack:
        part = stack.pop()
        inner = [(i, j) for i, j in edges if i in part and j in part]
        if not inner:
            continue
        e = choose(part, inner, adj)
        side = _naive_component(adj, part, e[0], e)
        other = part - side
        union_s = set().union(*(nodes[i] for i in side))
        union_o = set().union(*(nodes[i] for i in other))
        yield part, e, Biclique(
            frozenset(union_s - mid_of[e]), frozenset(union_o - mid_of[e])
        )
        stack.append(other)
        stack.append(side)


def naive_find_partition(tree):
    """The cut loop's balanced partition: each subtree is cut at its first
    :func:`naive_balanced_cuts` entry, members in pre-order.  This is the
    partition ``find_partition`` made along ``heuristic_edge_ranking``
    before it cut along the optimal ranking."""
    choose = lambda part, inner, adj: naive_balanced_cuts(adj, part, inner)[0][1]
    return [b for _, _, b in _naive_cut_loop(tree, choose)]


def naive_biclique_levels(tree, ranking, order, r):
    """The cut loop's levels for a valid ``ranking``: each subtree is cut
    at its highest-ranked edge (ties to the smallest edge), and the cut of
    rank k goes to level r + 1 - k as ``(biclique, smallest position in
    order of the subtree)``, in the order the loop emits them."""
    ranks = ranking.ranks
    choose = lambda part, inner, adj: min(inner, key=lambda e: (-ranks[e], e))
    levels = {}
    for part, e, b in _naive_cut_loop(tree, choose):
        levels.setdefault(r + 1 - ranks[e], []).append(
            (b, min(order[i] for i in part))
        )
    return levels


def _naive_inner_edges(tree, vertices):
    return [(u, v) for u, v in tree.edges if u in vertices and v in vertices]


def naive_heuristic_ranks(tree):
    """Ranks of the balanced-separator heuristic, by plain recursion over
    :func:`naive_balanced_cuts`: ``(ranks, r)``."""
    adj = [tree.neighbors(v) for v in range(tree.n)]
    ranks = {}

    def solve(vertices):
        edges = _naive_inner_edges(tree, vertices)
        if not edges:
            return 0
        _, e, side = naive_balanced_cuts(adj, vertices, edges)[0]
        ranks[e] = 1 + max(solve(side), solve(vertices - side))
        return ranks[e]

    return ranks, solve(frozenset(range(tree.n)))


class _OverCap(Exception):
    pass


def naive_optimal_ranks(tree, node_cap=None):
    """Ranks of the memoised exact search over connected subtrees (most
    balanced cut first, stop at the lower bound), by plain recursion over
    :func:`naive_balanced_cuts`: ``(ranks, r)``.  With ``node_cap``, None
    once the search has solved more than that many subtrees."""
    adj = [tree.neighbors(v) for v in range(tree.n)]
    memo = {}

    def rank_number(vertices):
        if vertices in memo:
            return memo[vertices][0]
        if node_cap is not None and len(memo) >= node_cap:
            raise _OverCap
        edges = _naive_inner_edges(tree, vertices)
        if not edges:
            memo[vertices] = (0, None, None)
            return 0
        degrees = Counter(v for e in edges for v in e)
        n = len(vertices)
        lb = max(max(degrees.values()), (n - 1).bit_length())
        best = None
        for _, e, side in naive_balanced_cuts(adj, vertices, edges):
            cand = 1 + max(rank_number(side), rank_number(vertices - side))
            if best is None or cand < best[0]:
                best = (cand, e, side)
                if cand == lb:
                    break
        memo[vertices] = best
        return best[0]

    ranks = {}

    def assign(vertices):
        value, e, side = memo[vertices]
        if e is not None:
            ranks[e] = 1 + max(assign(side), assign(vertices - side))
        return value

    full = frozenset(range(tree.n))
    try:
        rank_number(full)
    except _OverCap:
        return None
    return ranks, assign(full)


def naive_combine_children(lists):
    """Smallest union U over every choice of child ranks, by brute force.

    Child i with visible ranks ``lists[i]`` (bit k for rank k) takes a rank
    x >= 1 whose bit is clear; the vertex then sees x and the child's
    visible ranks above x.  Every combination of choices up to one level
    per child above all the children's ranks is tried, dropping a partial
    one as soon as two seen sets meet.  Returns the smallest union as an
    int."""
    top = max(max(lists).bit_length(), 1) + len(lists)
    best = None

    def extend(i, union):
        nonlocal best
        if i == len(lists):
            if best is None or union < best:
                best = union
            return
        vis = lists[i]
        for x in range(1, top + 1):
            above = [k for k in range(x + 1, vis.bit_length()) if vis >> k & 1]
            mask = sum(1 << k for k in [x] + above)
            if not vis >> x & 1 and not union & mask:
                extend(i + 1, union | mask)

    extend(0, 0)
    return best


def naive_max_weight_clique_tree(nodes):
    """Maximum-weight spanning forest of the clique intersection graph of
    the clique masks ``nodes``, from all d^2/2 intersections of their
    vertex sets: each weight class, heaviest first, is rescanned for the
    pair in different components with the smallest (larger degree, degree
    sum, pair) after every edge it gives.  Returns ``(nodes, edges, mids)``
    as frozensets."""
    nodes = tuple(vertex_set(k) for k in nodes)
    d = len(nodes)
    pairs = {}
    for i in range(d):
        for j in range(i + 1, d):
            w = len(nodes[i] & nodes[j])
            if w > 0:
                pairs.setdefault(w, []).append((i, j))
    parent = list(range(d))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    degree = [0] * d
    edges = []
    for w in sorted(pairs, reverse=True):
        pool = pairs[w]
        while True:
            best = None
            for i, j in pool:
                if root(i) == root(j):
                    continue
                key = (max(degree[i], degree[j]), degree[i] + degree[j], (i, j))
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best is None:
                break
            _, i, j = best
            parent[root(i)] = root(j)
            degree[i] += 1
            degree[j] += 1
            edges.append((i, j))
    edges = tuple(sorted(edges))
    mids = tuple(nodes[i] & nodes[j] for i, j in edges)
    return nodes, edges, mids


# -- naive edge-ranking validity ----------------------------------------------


def _tree_path(tree, start, goal):
    prev = {start: None}
    queue = [start]
    for x in queue:
        for y in tree.neighbors(x):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def naive_is_valid_ranking(tree, ranking):
    """Pairwise path check of the separation condition."""
    edges = tree.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            if ranking.ranks[e1] != ranking.ranks[e2]:
                continue
            # edges strictly between: path between the closest endpoints
            best = None
            for s in e1:
                for t in e2:
                    path = _tree_path(tree, s, t)
                    if best is None or len(path) < len(best):
                        best = path
            between = [
                (min(a, b), max(a, b)) for a, b in zip(best, best[1:])
            ]
            if not any(ranking.ranks[e] > ranking.ranks[e1] for e in between):
                return False
    return True


# -- non-isomorphic tree enumeration --------------------------------------------


def _tree_certificate(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if n == 1:
        return "()"
    # centers by leaf stripping
    degree = {v: len(adj[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            remaining -= 1
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt

    def encode(node, parent):
        parts = sorted(
            encode(child, node) for child in adj[node] if child != parent
        )
        return "(" + "".join(parts) + ")"

    return min(encode(c, None) for c in layer)


def enumerate_trees(max_nodes):
    """All non-isomorphic trees with up to ``max_nodes`` nodes, as Tree
    objects keyed by node count.  Counts go 1, 1, 1, 2, 3, 6, 11, 23, 47."""
    by_size = {1: [()]}
    for n in range(2, max_nodes + 1):
        seen = {}
        for edges in by_size[n - 1]:
            for v in range(n - 1):
                candidate = edges + ((v, n - 1),)
                cert = _tree_certificate(n, candidate)
                if cert not in seen:
                    seen[cert] = candidate
        by_size[n] = list(seen.values())
    return {
        n: [Tree(n, list(edges)) for edges in trees]
        for n, trees in by_size.items()
    }


def random_cochordal(n, density, seed):
    """Random co-chordal graph (complement of a random chordal graph)."""
    from bccover import gen_random_chordal

    return gen_random_chordal(n, density, seed).complement()


def reference_random_chordal(n, density=0.5, seed=0):
    """The set-based ``gen_random_chordal``: each clique grows by a draw from
    the ascending list of vertices adjacent to all of it, found by scanning
    every earlier vertex; O(n^2 * k) for k-vertex cliques."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        target = 1 + round(density * (v - 1))
        anchor = rng.randrange(v)
        clique = {anchor}
        while len(clique) < target:
            candidates = [
                u for u in range(v)
                if u not in clique and all(u in adj[w] for w in clique)
            ]
            if not candidates:
                break
            clique.add(rng.choice(candidates))
        for u in clique:
            adj[v].add(u)
            adj[u].add(v)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def reference_listing_random_chordal(n, density=0.5, seed=0):
    """The mask-native ``gen_random_chordal`` that lists its candidates:
    each draw is ``rng.choice`` over the ascending set bits of ``common``;
    O(n^3) at a fixed density."""
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


def reference_two_membership(tree, node_sizes, mid_sizes, seed=0):
    """The edge-set ``gen_two_membership_cochordal`` for valid sizes: the
    complement graph, with every clique listed pair by pair."""
    counter = 0

    def take(k):
        nonlocal counter
        ids = list(range(counter, counter + k))
        counter += k
        return ids

    mids = {e: take(size) for e, size in zip(tree.edges, mid_sizes)}
    cliques = []
    for i in range(tree.n):
        members = []
        for e in tree.edges:
            if i in e:
                members.extend(mids[e])
        members.extend(take(node_sizes[i] - len(members)))
        cliques.append(members)

    n = counter
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges = set()
    for members in cliques:
        relabeled = [perm[v] for v in members]
        for i in range(len(relabeled)):
            for j in range(i + 1, len(relabeled)):
                edges.add((relabeled[i], relabeled[j]))
    return Graph(n, edges).complement()


# -- reference writer: the edge-list text that graph_to_text replaces --------


def reference_graph_to_text(g):
    """The canonical text as ``graph_to_text`` used to build it: the whole
    edge list, then one string per edge."""
    lines = ["p %d %d" % (g.n, g.m)]
    lines.extend("%d %d" % e for e in g.edges())
    return "\n".join(lines) + "\n"
