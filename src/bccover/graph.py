"""Undirected simple graphs over dense integer vertices.

Vertices are always 0..n-1.  Graphs are immutable after construction, so they
can be shared freely between threads; every operation here is pure.  Every
vertex list that comes out (neighbourhoods, edge lists, components) is sorted,
so all derived objects come out in a deterministic order.

Each vertex's neighbourhood is stored once, as a Python ``int`` bit mask (bit
v set iff v is a neighbour); everything else is derived from the masks.
:meth:`Graph.neighborhood`, :meth:`Graph.edges` and :func:`mask_vertices` read
a mask's set bits in O(bits set) steps, so a sparse graph such as a path costs
O(n + m) to walk however large n is.  Questions about a set of vertices take
it as a mask too: :meth:`Graph.common_neighbors` ANDs the masks of its
vertices, so testing a biclique (L, R) costs O(|L|) big-int operations of n
bits instead of |L| * |R| lookups.  The cover layer's bicliques keep their
sides as masks and are tested that way; :meth:`Graph.is_biclique_subgraph`
does the same for vertex iterables.  :meth:`Graph.complement` flips each mask
against the full vertex set and lists no edges.  The constructor builds a
dense neighbourhood from bytes rather than bit by bit, and the edge list only
on the first call to :meth:`Graph.edges` (equality and hashing read the
masks), so building a graph does not pay for an edge list that nothing reads.

The on-disk edge-list format is one header line ``p <n> <m>`` followed by one
``u v`` line per edge; lines starting with ``c`` are comments.  Files written
by :func:`graph_to_text` are canonical (header, then edges in lexicographic
order) and round-trip bit-exactly.
"""

from __future__ import annotations

from itertools import compress

from .errors import GraphFormatError


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_m", "_masks", "_edges")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            adj[u].add(v)
            adj[v].add(u)
        self._masks = _set_masks(adj)
        self._m = sum(map(len, adj)) // 2
        self._edges = None  # listed on first use; many graphs never need it

    @classmethod
    def _from_masks(cls, masks):
        """Graph with neighbourhood masks ``masks``, which must be symmetric,
        loop-free and inside 0..len(masks)-1; nothing is checked or listed."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g._masks = tuple(masks)
        g._m = sum(mask.bit_count() for mask in g._masks) // 2
        g._edges = None
        return g

    # -- accessors ---------------------------------------------------------

    @property
    def m(self):
        """Number of edges."""
        return self._m

    def edges(self):
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        if self._edges is None:
            self._edges = tuple(
                (u, v)
                for u, mask in enumerate(self._masks)
                for v in mask_vertices(mask >> (u + 1) << (u + 1))
            )
        return list(self._edges)

    def degree(self, v):
        self._check_vertex(v)
        return self._masks[v].bit_count()

    def neighborhood(self, v):
        """Sorted tuple of neighbors of v."""
        self._check_vertex(v)
        return tuple(mask_vertices(self._masks[v]))

    def neighbor_masks(self):
        """Tuple of neighbourhood bit masks: bit v of entry u is set iff
        (u, v) is an edge."""
        return self._masks

    def has_edge(self, u, v):
        """True iff (u, v) is an edge; False, not an error, for any vertex
        out of range."""
        return 0 <= u < self.n and 0 <= v < self.n and self._masks[u] >> v & 1 == 1

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise ValueError("vertex %r out of range for n=%d" % (v, self.n))

    # -- derived graphs ----------------------------------------------------

    def complement(self):
        """Graph with edge (u, v) iff u != v and (u, v) is not an edge here."""
        full = (1 << self.n) - 1
        return Graph._from_masks(
            [full & ~mask & ~(1 << u) for u, mask in enumerate(self._masks)]
        )

    def is_biclique_subgraph(self, left, right):
        """True iff ``left``/``right`` are nonempty, disjoint, in range, and
        every cross pair is an edge.

        Reads each argument once, so one-shot iterators are fine, and
        checks the range before it builds a mask.  ``right`` must lie inside
        the common neighbourhood of ``left``; that also rules out
        overlapping sides, since no vertex is its own neighbour.
        """
        left, right = tuple(left), tuple(right)
        if not all(0 <= v < self.n for v in left + right):
            return False
        left, right = vertex_mask(left), vertex_mask(right)
        return bool(left and right) and not right & ~self.common_neighbors(left)

    def common_neighbors(self, side):
        """Mask of the vertices adjacent to every vertex of the mask
        ``side``, read one lowest bit at a time until none is left: -1
        (every bit) for an empty ``side``, 0 when it holds a vertex out of
        range."""
        if side >> self.n:
            return 0
        masks = self._masks
        common = -1
        while side and common:
            low = side & -side
            common &= masks[low.bit_length() - 1]
            side ^= low
        return common

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self):
        return hash((self.n, self._masks))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


def vertex_mask(vertices):
    """Int with bit v set for each vertex v in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask):
    """Sorted list of the set bits of ``mask``, the inverse of
    :func:`vertex_mask`, in O(bits set) steps.  A sparse mask is walked one
    lowest bit at a time; one with at least one bit set in eight is read from
    its binary digits in a single pass, several times faster for such a mask."""
    if 8 * mask.bit_count() < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1].encode().translate(_BINARY_VALUES)
    return list(compress(range(len(digits)), digits))


def _set_masks(adj):
    """Tuple of the masks of the neighbourhood sets ``adj``, whose vertices
    must lie in 0..len(adj)-1.  Bytes pay off once a neighbourhood holds
    about one vertex in sixteen."""
    n = len(adj)
    return tuple(
        _dense_mask(s, n) if 16 * len(s) > n else vertex_mask(s) for s in adj
    )


def _dense_mask(vertices, n):
    """:func:`vertex_mask` for vertices known to lie in 0..n-1.  Setting
    bytes and parsing them once is about twice as fast as shifting in each
    bit when a neighbourhood is large, which keeps dense graphs cheap to
    build."""
    buf = bytearray(n)
    for v in vertices:
        buf[v] = 1
    # int() reads the most significant digit first, so vertex 0 goes last
    return int(buf[::-1].translate(_BINARY_DIGITS), 2)


_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BINARY_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def find_root(parent, x):
    """Root of ``x`` in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_components(g):
    """List of components, each a sorted tuple of vertices, ordered by
    their smallest vertex."""
    masks = g.neighbor_masks()
    unseen = (1 << g.n) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in mask_vertices(frontier):
                reach |= masks[v]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(tuple(mask_vertices(comp)))
    return comps


# -- edge-list text format ---------------------------------------------------


def graph_to_text(g):
    lines = ["p %d %d" % (g.n, g.m)]
    lines.extend("%d %d" % e for e in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    """Parse the edge-list format.  Each edge line is checked once, with the
    line number in its error, and goes straight into the neighbourhood sets,
    which the header sizes; the masks are built from the sets as
    :class:`Graph` builds them."""
    n = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "c":
            continue
        if parts[0][0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("non-integer header field", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative header field", lineno)
            adj = [set() for _ in range(n)]
            continue
        if n is None:
            raise GraphFormatError("edge before 'p' header", lineno)
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex", lineno) from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError("invalid edge %d %d" % (u, v), lineno)
        adj[u].add(v)
        adj[v].add(u)
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    g = Graph._from_masks(_set_masks(adj))
    if g.m != m:
        raise GraphFormatError(
            "header claims %d edges, file has %d distinct edges" % (m, g.m)
        )
    return g


def read_text(path):
    """The UTF-8 text of the file at ``path``; bytes that are not UTF-8
    raise :class:`GraphFormatError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError("not UTF-8 text: %s" % exc) from None


def read_graph(path):
    return graph_from_text(read_text(path))


def write_graph(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))
