"""Exact oracles for desk-scale graphs.

These are the reference computations that certify the constructive
algorithms and the bounds.  Each call takes an :class:`OracleBudget`;
exceeding a vertex or edge cap raises :class:`BudgetExceededError` before any
work happens, while running out of time mid-search returns the best proven
window flagged inexact.  The enumerations have no window to return, so they
raise :class:`BudgetExceededError` when their time runs out.

Every search reads the graph through ``g.neighbor_masks()``: vertex sets
are vertex masks, and edge sets (a biclique in :func:`exact_bc`, a row of
:func:`conflict_graph`) are masks over the indices of ``g.edges()``.  A
``_Facts`` record keeps that edge index and the complement's clique count.

Where a polynomial algorithm exists the oracle uses it: the maximum
matching is Edmonds' blossom algorithm, and the maximal bicliques are
listed from their sides alone, the intersections of neighbourhoods, with n
mask operations per side.  The clique number is a colouring-bounded branch
and bound (MCQ).  The clique searches keep an explicit stack, so a clique of
any size costs no Python recursion.

The most tuned search is :func:`exact_bp`, an exact cover of the edges by
bicliques over neighbourhood bit masks of the still uncovered graph.  It
branches on the uncovered edge that lies in the fewest bicliques of that
graph, and prunes every node by the Graham-Pollak inertia bound of that graph:
the members still to come partition exactly its edges, so they number at least
its inertia.  Half the GF(2) rank of the same masks, integer work only, is a
lower floor that settles most nodes before numpy is called.  A node counts
the bicliques through its candidate edges, each count capped at the fewest
found, and lists only those through the chosen edge.  The search starts
from the stars or a greedy false-twin elimination, which on co-chordal
graphs nearly always meets the root bound and so ends the search there;
neither runs the clique-tree construction that the oracle checks.
:func:`exact_chromatic` backtracks on an explicit stack too, down to the
largest clique that MCQ finds.
"""

from __future__ import annotations

import time

from ._record import FrozenRecord, Record, setfield
from .cover import Biclique
from .errors import BudgetExceededError
from .graph import Graph, mask_vertices
from .ranking import ceil_log2

class OracleBudget(FrozenRecord):
    __slots__ = ("vertex_cap", "edge_cap", "time_cap")

    def __init__(self, vertex_cap, edge_cap, time_cap):
        # "not > 0" also refuses a NaN time cap, which no deadline would reach
        if not (vertex_cap > 0 and edge_cap > 0 and time_cap > 0):
            raise ValueError("budget caps must be positive")
        setfield(self, "vertex_cap", vertex_cap)
        setfield(self, "edge_cap", edge_cap)
        setfield(self, "time_cap", time_cap)


# bc/bp searches blow up fastest; value oracles (coloring, matching, clique
# number) cope with slightly larger graphs
DEFAULT_SEARCH_BUDGET = OracleBudget(vertex_cap=14, edge_cap=96, time_cap=10.0)
DEFAULT_VALUE_BUDGET = OracleBudget(vertex_cap=20, edge_cap=190, time_cap=10.0)


class OracleResult(Record):
    """Lower/upper window with an optional certificate for the upper side.

    ``stats`` holds search counters, where the oracle keeps them.
    """

    __slots__ = ("lower", "upper", "certificate", "stats")

    def __init__(self, lower, upper, certificate=None, stats=None):
        self.lower = lower
        self.upper = upper
        self.certificate = certificate
        self.stats = stats

    @property
    def exact(self):
        return self.lower == self.upper

    @property
    def value(self):
        if not self.exact:
            raise BudgetExceededError(
                "search was cut short; only the window [%d, %d] is known"
                % (self.lower, self.upper)
            )
        return self.upper


class _Timeout(Exception):
    pass


class _Deadline:
    """:meth:`check` raises :class:`_Timeout` once past the time cap; each
    check reads the clock."""

    def __init__(self, seconds):
        self.at = time.monotonic() + seconds

    def check(self):
        if time.monotonic() > self.at:
            raise _Timeout()


def _check_caps(g, budget):
    if g.n > budget.vertex_cap:
        raise BudgetExceededError(
            "graph has %d vertices, cap is %d" % (g.n, budget.vertex_cap)
        )
    if g.m > budget.edge_cap:
        raise BudgetExceededError(
            "graph has %d edges, cap is %d" % (g.m, budget.edge_cap)
        )


# -- maximal cliques ----------------------------------------------------------


def enumerate_maximal_cliques(g, budget=None):
    """All maximal cliques, each as a sorted tuple, in lexicographic order.

    Bron-Kerbosch with pivoting, on vertex masks and an explicit stack, so a
    clique of any size costs no Python recursion.  A frame holds the clique
    so far, its candidates and excluded vertices, and the vertices it has
    still to branch on (``None`` until the pivot is chosen).
    """
    budget = budget or DEFAULT_VALUE_BUDGET
    _check_caps(g, budget)
    deadline = _Deadline(budget.time_cap)
    if g.n == 0:
        return []
    masks = g.neighbor_masks()
    out = []
    stack = [[0, (1 << g.n) - 1, 0, None]]
    try:
        while stack:
            frame = stack[-1]
            current, candidates, excluded, todo = frame
            if todo is None:
                deadline.check()
                if not candidates and not excluded:
                    out.append(tuple(mask_vertices(current)))
                    stack.pop()
                    continue
                most = -1
                for u in mask_vertices(candidates | excluded):
                    count = (masks[u] & candidates).bit_count()
                    if count > most:
                        most, pivot = count, u
                todo = candidates & ~masks[pivot]
            if not todo:
                stack.pop()
                continue
            bit = todo & -todo
            nbrs = masks[bit.bit_length() - 1]
            frame[1:] = candidates ^ bit, excluded | bit, todo ^ bit
            stack.append([current | bit, candidates & nbrs, excluded & nbrs, None])
    except _Timeout:
        raise BudgetExceededError("maximal clique enumeration timed out") from None
    return sorted(out)


def _colour_order(candidates, masks):
    """Greedy colouring of the vertex mask ``candidates``, lowest vertex
    first into the first colour class that holds none of its neighbours:
    (vertex bit, colour 1..) pairs, by colour class."""
    order = []
    colour = 0
    while candidates:
        colour += 1
        free = candidates
        while free:
            bit = free & -free
            free &= ~masks[bit.bit_length() - 1]
            free ^= bit
            candidates ^= bit
            order.append((bit, colour))
    return order


def exact_clique_number(g, budget=None):
    """Clique number by a colouring-bounded branch and bound (Tomita and
    Seki's MCQ), on vertex masks and an explicit stack.

    Each node greedily colours its candidates and branches on them from the
    highest colour down: a vertex of colour c can grow the clique by at most
    c, so a node stops once its size plus that colour reaches the best
    clique found.  The certificate is a largest clique, as a sorted tuple.
    On its deadline the result is the window [best found, colours of the
    whole graph], flagged inexact.
    """
    budget = budget or DEFAULT_VALUE_BUDGET
    _check_caps(g, budget)
    if g.n == 0:
        return OracleResult(0, 0, ())
    clique, upper = _max_clique(g.neighbor_masks(), _Deadline(budget.time_cap))
    return OracleResult(clique.bit_count(), upper, tuple(mask_vertices(clique)))


def _max_clique(masks, deadline):
    """The MCQ search of :func:`exact_clique_number` over the neighbourhood
    ``masks`` of at least one vertex: the largest clique found, as a vertex
    mask, and an upper bound on the clique number, which is that clique's
    size unless ``deadline`` cut the search short."""
    everyone = (1 << len(masks)) - 1
    root = _colour_order(everyone, masks)
    upper = root[-1][1]
    best, best_clique = 1, 1  # vertex 0 alone
    # a frame: clique size, clique, the candidates not yet branched on and
    # their colour order
    stack = [[0, 0, everyone, root]]
    try:
        while stack and best < upper:
            frame = stack[-1]
            size, clique, candidates, order = frame
            if not order or size + order[-1][1] <= best:
                stack.pop()
                continue
            deadline.check()
            bit = order.pop()[0]
            frame[2] = candidates = candidates ^ bit
            below = candidates & masks[bit.bit_length() - 1]
            if below:
                stack.append([size + 1, clique | bit, below, _colour_order(below, masks)])
            elif size + 1 > best:
                best, best_clique = size + 1, clique | bit
    except _Timeout:
        return best_clique, upper
    return best_clique, best


# -- maximal bicliques --------------------------------------------------------


def enumerate_maximal_bicliques(g, budget=None):
    """All inclusion-maximal biclique subgraphs, canonically ordered.

    A pair (L, R) is maximal exactly when R is the common neighbourhood of L
    and vice versa, and the sides R of such pairs, the closed sets, are
    exactly the nonempty intersections of neighbourhoods.  A worklist seeded
    with the nonzero neighbourhood masks and closed under ``& masks[v]``
    lists each closed set once; each pairs with L = N(R), so each maximal
    biclique comes out twice, once per orientation, and is kept in the one
    whose left side holds the lower vertex.
    """
    budget = budget or DEFAULT_SEARCH_BUDGET
    _check_caps(g, budget)
    deadline = _Deadline(budget.time_cap)
    masks = {mask for mask in g.neighbor_masks() if mask}
    seen = set(masks)
    todo = list(masks)
    found = []
    try:
        while todo:
            deadline.check()
            right = todo.pop()
            left = g.common_neighbors(right)
            if (left & -left) < (right & -right):  # keep the canonical orientation
                found.append((left, right))
            for mask in masks:
                closed = right & mask
                if closed and closed not in seen:
                    seen.add(closed)
                    todo.append(closed)
    except _Timeout:
        raise BudgetExceededError("maximal biclique enumeration timed out") from None
    found.sort(key=lambda lr: (mask_vertices(lr[0]), mask_vertices(lr[1])))
    return [Biclique._from_masks(left, right) for left, right in found]


# -- conflict graph -----------------------------------------------------------


def _edges_at(n, edges):
    """Per vertex v of 0..n-1, the mask of the indices, in the order of the
    list ``edges``, of the edges at v."""
    at = [0] * n
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << i
        at[v] |= 1 << i
    return at


class _Facts:
    """The complement's clique count and the edge index of ``g``, each made
    on first use and kept while the record lives: one record per report, or
    per call of a function that is given none."""

    _mc = _edges = None

    def __init__(self, g):
        self._g = g

    def mc(self, budget=None):
        """mc(complement), unless counted already, within ``budget``: by
        default the complement's own size as caps, with the value time cap.
        A count that raises :class:`BudgetExceededError` keeps nothing."""
        if self._mc is None:
            gc = self._g.complement()
            budget = budget or OracleBudget(gc.n, max(gc.m, 1), DEFAULT_VALUE_BUDGET.time_cap)
            self._mc = len(enumerate_maximal_cliques(gc, budget))
        return self._mc

    def edges(self):
        """``g.edges()`` and its ``_edges_at`` index."""
        if self._edges is None:
            edges = self._g.edges()
            self._edges = edges, _edges_at(self._g.n, edges)
        return self._edges


def _touching(at, side):
    """Mask of the edges with an endpoint in the vertex mask ``side``."""
    out = 0
    while side:
        low = side & -side
        out |= at[low.bit_length() - 1]
        side ^= low
    return out


def conflict_graph(g, _facts=None):
    """Graph on the edges of ``g``: vertex i is the i-th edge (lexicographic),
    and two vertices are adjacent when the edges share no endpoint and do not
    sit together in a chordless 4-cycle.

    This exclusion rule reproduces the published example values, but its
    clique number can overshoot the cover number on dense graphs, so no
    search prunes with it.  The edges in a chordless 4-cycle with (a, b)
    join N(a) - N[b] to N(b) - N[a].
    """
    masks = g.neighbor_masks()
    edges, at = (_facts or _Facts(g)).edges()
    all_edges = (1 << g.m) - 1
    rows = []
    for a, b in edges:
        x = masks[a] & ~masks[b] & ~(1 << b)
        y = masks[b] & ~masks[a] & ~(1 << a)
        partners = _touching(at, x) & _touching(at, y)
        rows.append(all_edges & ~(at[a] | at[b] | partners))
    return Graph._from_masks(rows)


# -- biclique cover number ----------------------------------------------------


def exact_bc(g, budget=None, _facts=None):
    """Minimum biclique cover, as a window with a certificate cover.

    Set-cover branch and bound over the maximal bicliques (any cover member
    can be fattened to a maximal one without uncovering anything), each an
    edge mask, seeded with a greedy cover and pruned by the paper's lower
    bound ceil(log2 mc(complement)), at least 1.  Each node branches on the
    lowest uncovered edge in the fewest bicliques: the search numbers the
    edges in that order, so it is the lowest uncovered bit.  On its
    deadline the result is the window [that bound, best cover found].
    """
    budget = budget or DEFAULT_SEARCH_BUDGET
    _check_caps(g, budget)
    if not g.m:
        return OracleResult(0, 0, [])
    facts = _facts or _Facts(g)
    bicliques = enumerate_maximal_bicliques(g, budget)
    at = facts.edges()[1]
    sets = [_touching(at, b._left) & _touching(at, b._right) for b in bicliques]

    # greedy upper bound
    universe = uncovered = (1 << g.m) - 1
    greedy = []
    while uncovered:
        idx = max(range(len(sets)), key=lambda i: ((sets[i] & uncovered).bit_count(), -i))
        greedy.append(idx)
        uncovered &= ~sets[idx]
    best = len(greedy)
    best_cover = list(greedy)

    lb = max(1, ceil_log2(facts.mc()))
    if best == lb:
        return OracleResult(best, best, [bicliques[i] for i in best_cover])

    # relabel the edges by (bicliques covering it, index), so that the
    # lowest uncovered edge in the fewest bicliques is the lowest set bit
    covering = [[i for i, s in enumerate(sets) if s >> e & 1] for e in range(g.m)]
    order = sorted(range(g.m), key=lambda e: len(covering[e]))
    covering = [covering[e] for e in order]
    relabelled = [0] * len(sets)
    for pos, e in enumerate(order):
        for i in covering[pos]:
            relabelled[i] |= 1 << pos
    sets = relabelled
    deadline = _Deadline(budget.time_cap)
    chosen = []

    def dfs(uncovered):
        # entered with edges left to cover and room for one more member
        nonlocal best, best_cover
        deadline.check()
        options = covering[(uncovered & -uncovered).bit_length() - 1]
        if len(chosen) + 2 >= best:
            # no child can recurse: only an option covering every remaining
            # edge helps, and the first of them is the one a sort would
            # have put first
            for idx in options:
                if not uncovered & ~sets[idx]:
                    best, best_cover = len(chosen) + 1, chosen + [idx]
                    return
            return
        options = sorted(options, key=lambda i: -(sets[i] & uncovered).bit_count())
        for idx in options:
            rest = uncovered & ~sets[idx]
            chosen.append(idx)
            if not rest:
                best, best_cover = len(chosen), list(chosen)
            elif len(chosen) + 1 < best:
                dfs(rest)
            chosen.pop()
            if best == lb or len(chosen) + 1 >= best:
                return

    try:
        dfs(universe)
    except _Timeout:
        return OracleResult(lb, best, [bicliques[i] for i in best_cover])
    return OracleResult(best, best, [bicliques[i] for i in best_cover])


# -- biclique partition number ------------------------------------------------


def _inertia(masks):
    """max(#positive, #negative eigenvalues) of the adjacency matrix whose
    rows are the neighbourhood ``masks``: every biclique partition of its
    edges has at least that many members (Graham-Pollak).

    The 0/1 matrix A of the k non-isolated vertices is unpacked from the
    masks' bytes.  ``eigvalsh`` is backward stable: its eigenvalues are
    exact for some A + E with ||E||_2 within a small multiple of
    k eps ||A||_2, so by Weyl's inequality each lies that close to the true
    one.  ||A||_2 <= k, so the error is about k^2 eps, below the tolerance
    1e-8 n up to about n = 10^4: no zero eigenvalue is counted as nonzero,
    which would overstate the bound, while a tiny nonzero one counted as
    zero only understates it.
    """
    # imported here: numpy is half the CLI's start-up, and only this needs it
    import numpy as np

    active = [u for u, mask in enumerate(masks) if mask]
    if not active:
        return 0
    width = (len(masks) + 7) // 8
    rows = b"".join(masks[u].to_bytes(width, "little") for u in active)
    bits = np.unpackbits(
        np.frombuffer(rows, dtype=np.uint8).reshape(len(active), width),
        axis=1,
        bitorder="little",
    )
    eig = np.linalg.eigvalsh(bits[:, active].astype(float))
    tol = 1e-8 * len(masks)
    return int(max((eig > tol).sum(), (eig < -tol).sum()))


def _gf2_rank(masks):
    """Rank over GF(2) of the 0/1 matrix whose rows are ``masks``, by
    pivoting each row on its top bit.  A minor that is odd is nonzero, so
    this is at most the real rank n+ + n-, and (rank + 1) // 2 is at most
    the inertia bound."""
    pivots = {}
    for row in masks:
        while row:
            top = row.bit_length()
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _twin_partition(masks):
    """Greedy false-twin elimination: a biclique partition of the edges of
    the graph with neighbourhood ``masks``.

    The vertices that have neighbours fall into false-twin classes, those
    with the same neighbourhood; a class C and its neighbourhood N(C) form a
    biclique holding every edge at C.  Each step takes out the class that
    leaves the fewest classes, ties to the most edges |C| |N(C)|, then to
    the lowest vertex.
    """
    masks = list(masks)
    parts = []

    def classes_left(nbrs, twins):
        rest = {
            mask & ~twins if nbrs >> u & 1 else mask
            for u, mask in enumerate(masks)
            if not twins >> u & 1
        }
        return len(rest - {0})

    while True:
        classes = {}  # neighbourhood -> class, by lowest vertex
        for u, mask in enumerate(masks):
            if mask:
                classes[mask] = classes.get(mask, 0) | 1 << u
        if not classes:
            return parts
        nbrs, twins = min(
            classes.items(),
            key=lambda c: (classes_left(*c), -c[0].bit_count() * c[1].bit_count()),
        )
        parts.append(Biclique._from_masks(twins, nbrs))
        for u in mask_vertices(twins):
            masks[u] = 0
        for v in mask_vertices(nbrs):
            masks[v] &= ~twins


def _bicliques_through(masks, u, v, deadline):
    """Yield, as (left mask, right mask), every biclique of the graph with
    neighbourhood ``masks`` that has u on the left and v on the right.

    Each vertex that can still join a side is decided once, lowest first:
    left, right or neither; so each biclique comes out once, in a fixed
    order.  A side's candidates are the common neighbours of the other side.
    """
    bu, bv = 1 << u, 1 << v
    stack = [(bu, bv, masks[v] & ~bu, masks[u] & ~bv)]
    while stack:
        deadline.check()
        left, right, to_left, to_right = stack.pop()
        open_ = to_left | to_right
        if not open_:
            yield left, right
            continue
        w = open_ & -open_
        nbrs = masks[w.bit_length() - 1]
        stack.append((left, right, to_left & ~w, to_right & ~w))
        if w & to_right:
            stack.append((left, right | w, to_left & nbrs, to_right & ~w))
        if w & to_left:
            stack.append((left | w, right, to_left & ~w, to_right & nbrs))


def _count_through(masks, u, v, cap, deadline):
    """The number of bicliques that ``_bicliques_through`` yields for u and
    v, or ``cap`` once it reaches ``cap`` (``None``: no cap).

    With X = N(v) - u and Y = N(u) - v, each such biclique is u plus a
    subset L of X on the left and v plus a subset of the common
    neighbours of L in Y on the right.  Each step decides the lowest vertex
    w of X: not on the left, leaving (X - w, Y), or on the left, leaving
    (X - w, Y & N(w)).  An empty X leaves 2^|Y| bicliques, and an X
    disjoint from Y and complete to it leaves 2^(|X| + |Y|).
    """
    total = 0
    stack = [(masks[v] & ~(1 << u), masks[u] & ~(1 << v))]
    while stack:
        deadline.check()
        x, y = stack.pop()
        complete = not x & y
        rest = x
        while complete and rest:
            w = rest & -rest
            complete = not y & ~masks[w.bit_length() - 1]
            rest ^= w
        if complete:
            total += 1 << (x.bit_count() + y.bit_count())
            if cap is not None and total >= cap:
                return cap
        else:
            w = x & -x
            x ^= w
            stack.append((x, y & masks[w.bit_length() - 1]))
            stack.append((x, y))
    return total


def _branch_options(masks, deadline):
    """The bicliques through the edge (u, v), u < v, of the graph with
    neighbourhood ``masks`` that lies in the fewest of them, counted with u
    on the left; the most edges first, ties in the order they were found.

    Edges are counted before any is listed, and only the chosen edge is
    listed.  u and v alone, plus any one more neighbour of either, are
    already deg(u) + deg(v) - 1 bicliques, so edges are tried in that order
    and the scan stops once that floor reaches the fewest found.  Every
    subset of X = N(v) - u joins u on the left of v, and every subset of
    Y = N(u) - v joins v on the right of u, so an edge whose
    2^|X| + 2^|Y| - 1 reaches the fewest found is skipped uncounted; each
    count stops at the fewest found too.
    """
    floors = []
    for u, mask in enumerate(masks):
        du = mask.bit_count()
        later = mask >> (u + 1) << (u + 1)
        while later:
            bit = later & -later
            v = bit.bit_length() - 1
            floors.append((du + masks[v].bit_count() - 1, u, v))
            later ^= bit
    floors.sort()
    fewest, chosen = None, None
    for floor, u, v in floors:
        if fewest is not None:
            if floor >= fewest:
                break
            x, y = masks[v].bit_count() - 1, masks[u].bit_count() - 1
            if (1 << x) + (1 << y) - 1 >= fewest:
                continue
        count = _count_through(masks, u, v, fewest, deadline)
        if fewest is None or count < fewest:
            fewest, chosen = count, (u, v)
    options = list(_bicliques_through(masks, *chosen, deadline))
    options.sort(key=lambda lr: -lr[0].bit_count() * lr[1].bit_count())
    return options


def exact_bp(g, budget=None, _facts=None):
    """Minimum biclique partition, as a window with a certificate partition.

    An exact cover of the edges by bicliques, searched over neighbourhood
    masks of the uncovered graph; adding a member (L, R) clears R from the
    mask of each vertex of L and L from the mask of each vertex of R.  The
    members of a partition are edge-disjoint, so the member covering an
    edge is a biclique of the uncovered graph: each node branches on the
    uncovered edge that lies in the fewest of them, over those bicliques,
    the most edges first.  The members still to come partition the
    uncovered edges, so the inertia bound of the uncovered graph holds for
    them and a node with k members is pruned once k plus that bound
    reaches the best partition found.  A node tries the cheaper floor
    k + (r + 1) // 2 first, r the GF(2) rank of its masks, and computes the
    inertia only where that floor does not prune.

    The search starts from the smaller of two partitions: the stars and,
    when they miss the root bound, the greedy false-twin elimination.  On
    co-chordal graphs that one meets the inertia bound almost always, so the
    search ends at the root.  The start reads the graph alone, not the
    clique-tree construction that this oracle checks.  Only when it misses
    the inertia does the root bound list the complement's maximal cliques,
    for ceil(log2 mc(G^c)) <= bc <= bp.

    ``stats`` counts the search nodes visited and pruned, and says why the
    search stopped: ``root`` (the start partition meets the lower bound),
    ``proved`` or ``deadline``.
    """
    budget = budget or DEFAULT_SEARCH_BUDGET
    _check_caps(g, budget)
    stats = {"nodes": 0, "pruned": 0, "stop": "root"}
    if not g.m:
        return OracleResult(0, 0, [], stats)

    masks = list(g.neighbor_masks())
    # ahead of the deadline: a process's first call imports numpy here
    lb = max(1, _inertia(masks))

    # start partitions: per-vertex stars, and the twin elimination when they
    # miss lb
    best_parts = [
        Biclique._from_masks(1 << u, mask >> (u + 1) << (u + 1))
        for u, mask in enumerate(masks)
        if mask >> (u + 1)
    ]
    if len(best_parts) > lb:
        twin_parts = _twin_partition(masks)
        if len(twin_parts) < len(best_parts):
            best_parts = twin_parts
    best = len(best_parts)
    if best > lb:
        lb = max(lb, ceil_log2((_facts or _Facts(g)).mc()))
    if best == lb:
        return OracleResult(best, best, best_parts, stats)

    deadline = _Deadline(budget.time_cap)
    members = []

    def search():
        nonlocal best, best_parts
        deadline.check()
        stats["nodes"] += 1
        if not any(masks):
            best = len(members)
            best_parts = [Biclique._from_masks(l, r) for l, r in members]
            return
        # the GF(2) floor, then the inertia only where that floor does not
        # prune: the same decisions as the inertia alone
        floor = len(members) + (_gf2_rank(masks) + 1) // 2
        if floor < best:
            floor = len(members) + _inertia(masks)
        if floor >= best:
            stats["pruned"] += 1
            return
        for left, right in _branch_options(masks, deadline):
            saved = masks[:]
            for x in range(g.n):
                if left >> x & 1:
                    masks[x] &= ~right
                elif right >> x & 1:
                    masks[x] &= ~left
            members.append((left, right))
            search()
            members.pop()
            masks[:] = saved
            if best == lb or floor >= best:
                return

    try:
        search()
    except _Timeout:
        stats["stop"] = "deadline"
        return OracleResult(lb, best, best_parts, stats)
    stats["stop"] = "proved"
    return OracleResult(best, best, best_parts, stats)


# -- chromatic number ---------------------------------------------------------


def exact_chromatic(g, budget=None):
    """Exact coloring via DSATUR-ordered backtracking over color class masks,
    on an explicit stack, so a colouring of any length costs no Python
    recursion.  It starts from the greedy colouring and stops at the size of
    the largest clique that MCQ (:func:`exact_clique_number`) finds in at
    most the first half of the time cap; a cut-short window runs from that
    size to the best colouring found."""
    budget = budget or DEFAULT_VALUE_BUDGET
    _check_caps(g, budget)
    n = g.n
    if n == 0:
        return OracleResult(0, 0, ())
    if g.m == 0:
        return OracleResult(1, 1, (1,) * n)

    best_assign = greedy_coloring(g)
    best = max(best_assign)

    masks = g.neighbor_masks()
    deadline = _Deadline(budget.time_cap)
    clique_lb = _max_clique(masks, _Deadline(budget.time_cap / 2))[0].bit_count()
    if best == clique_lb:
        return OracleResult(best, best, tuple(best_assign))

    classes = [0] * best  # vertex mask of color c + 1 at index c

    def select(uncolored):
        cand, sat, deg = -1, -1, -1
        for v in mask_vertices(uncolored):
            s = sum(1 for cls in classes if cls & masks[v])
            d = masks[v].bit_count()
            if s > sat or (s == sat and d > deg):
                cand, sat, deg = v, s, d
        return cand

    # a frame: colours used, uncoloured vertices, then once it branches the
    # vertex it colours, the colour index it tries and its colour limit
    stack = [[0, (1 << n) - 1, None, 0, 0]]
    try:
        while stack and best > clique_lb:
            frame = stack[-1]
            used, uncolored, v, c, limit = frame
            if v is None:
                deadline.check()
                if used >= best:
                    stack.pop()
                    continue
                if not uncolored:
                    best = used
                    best_assign = _class_colors(classes, n)
                    stack.pop()
                    continue
                v = select(uncolored)
                limit = min(used + 1, best - 1)
                frame[2], frame[4] = v, limit
            else:
                classes[c] ^= 1 << v
                c += 1
            while c < limit and classes[c] & masks[v]:
                c += 1
            if c == limit:
                stack.pop()
                continue
            classes[c] |= 1 << v
            frame[3] = c
            stack.append([max(used, c + 1), uncolored ^ 1 << v, None, 0, 0])
    except _Timeout:
        return OracleResult(clique_lb, best, tuple(best_assign))
    return OracleResult(best, best, tuple(best_assign))


def greedy_coloring(g):
    """Largest-first greedy coloring: colors 1.. per vertex, a proper
    coloring of ``g`` and so an upper bound on its chromatic number.  Each
    vertex joins the first color class that holds none of its neighbours."""
    masks = g.neighbor_masks()
    classes = []
    for v in sorted(range(g.n), key=lambda v: -masks[v].bit_count()):
        for c, cls in enumerate(classes):
            if not cls & masks[v]:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return _class_colors(classes, g.n)


def _class_colors(classes, n):
    """Color 1.. of each of the n vertices, from the color class masks."""
    return [
        next(c for c, cls in enumerate(classes, 1) if cls >> v & 1) for v in range(n)
    ]


# -- maximum matching ---------------------------------------------------------


def exact_max_matching(g, budget=None):
    """Maximum matching by Edmonds' blossom algorithm ("Paths, trees, and
    flowers", 1965), iteratively.

    A greedy matching to start, then one search for an augmenting path from
    each vertex still unmatched, in vertex order: a vertex unmatched after
    its own search stays unmatched (Berge), so one pass proves the result
    maximum.  The certificate is the matching as sorted (u, v) pairs, u < v.
    The deadline is checked once per search; on it the result is the window
    [size found, n // 2].
    """
    budget = budget or DEFAULT_VALUE_BUDGET
    _check_caps(g, budget)
    if g.m == 0:
        return OracleResult(0, 0, [])
    adj = [mask_vertices(mask) for mask in g.neighbor_masks()]
    mate = [-1] * g.n
    for u in range(g.n):
        if mate[u] < 0:
            v = next((v for v in adj[u] if mate[v] < 0), -1)
            if v >= 0:
                mate[u], mate[v] = v, u
    deadline = _Deadline(budget.time_cap)
    try:
        for root in range(g.n):
            if mate[root] < 0:
                deadline.check()
                _augment(adj, mate, root)
    except _Timeout:
        pairs = [(u, v) for u, v in enumerate(mate) if u < v]
        return OracleResult(len(pairs), g.n // 2, pairs)
    pairs = [(u, v) for u, v in enumerate(mate) if u < v]
    return OracleResult(len(pairs), len(pairs), pairs)


def _augment(adj, mate, root):
    """Grow an alternating tree from the unmatched ``root`` by breadth-first
    search, contracting each odd cycle (blossom) into its base, and flip the
    first augmenting path found; ``mate`` is updated in place.

    ``outer`` marks the even vertices of the tree, ``parent`` the tree edge
    into each odd vertex, and ``base`` the base of the blossom holding each
    vertex (itself outside any blossom)."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]
    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # v and w are both even: contract the cycle through them
                b = _blossom_base(base, mate, parent, v, w)
                blossom = [False] * n
                _mark_path(base, mate, parent, blossom, v, b, w)
                _mark_path(base, mate, parent, blossom, w, b, v)
                for x in range(n):
                    if blossom[base[x]]:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:  # flip the path from w back to the root
                        v = parent[w]
                        after = mate[v]
                        mate[v], mate[w] = w, v
                        w = after
                    return
                outer[mate[w]] = True
                queue.append(mate[w])


def _blossom_base(base, mate, parent, v, w):
    """The base of the smallest blossom holding the even vertices v and w:
    the first base on the tree path from w to the root that also lies on the
    path from v."""
    on_path = set()
    while True:
        v = base[v]
        on_path.add(v)
        if mate[v] < 0:
            break
        v = parent[mate[v]]
    while True:
        w = base[w]
        if w in on_path:
            return w
        w = parent[mate[w]]


def _mark_path(base, mate, parent, blossom, v, b, child):
    """Mark the blossoms on the tree path from v down to the base b, and
    point each odd vertex on it at its even neighbour across the cycle."""
    while base[v] != b:
        blossom[base[v]] = blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
