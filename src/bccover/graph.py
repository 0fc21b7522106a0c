"""Undirected simple graphs over dense integer vertices.

Vertices are always 0..n-1.  A :class:`Graph` is a frozen record: assigning
a field raises AttributeError, so graphs can be shared freely between
threads; every operation here is pure.  Every vertex list that comes out
(neighbourhoods, edge lists) is sorted, so all derived objects
come out in a deterministic order.

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
dense neighbourhood from bytes rather than bit by bit.  A graph holds its
vertex count, its edge count and its masks, and nothing else: equality and
hashing read n and the masks, copy and pickle rebuild from the masks, and
:meth:`Graph.edges` lists the edges afresh on each call, one vertex's row at
a time, so no graph keeps an edge list alive.

The on-disk edge-list format is one header line ``p <n> <m>`` followed by one
``u v`` line per edge; lines starting with ``c`` are comments.  Files written
by :func:`graph_to_text` and :func:`write_graph` are canonical (header, then
edges in lexicographic order) and round-trip bit-exactly.  Both take the
text one vertex's edge lines at a time from :func:`_text_rows`, so writing
a graph builds neither its edge list nor a string per edge.
:func:`graph_from_text` reads a text in that form in blocks: one
regular-expression check per block, then one split per block and a lookup
of each token in a table of the ids that the text names, with a
neighbourhood set for each of them only.  Every other text (comments, tabs,
CRLF, a missing final newline, ids such as ``007``) and every invalid one
goes to the line loop, which defines the format and writes each error with
its line number; both paths give the same graph for the same text.
"""

from __future__ import annotations

import re
from itertools import compress, repeat

from ._record import FrozenRecord, setfield
from .errors import GraphFormatError


class Graph(FrozenRecord):
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_m", "_masks")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        setfield(self, "n", n)
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%r, %r) out of range for n=%d" % (u, v, n))
            if u == v:
                raise ValueError("self-loop at vertex %d" % u)
            adj[u].add(v)
            adj[v].add(u)
        setfield(self, "_masks", _set_masks(adj))
        setfield(self, "_m", sum(map(len, adj)) // 2)

    @classmethod
    def _from_masks(cls, masks):
        """Graph with neighbourhood masks ``masks``, which must be symmetric,
        loop-free and inside 0..len(masks)-1; nothing is checked or listed."""
        g = cls.__new__(cls)
        setfield(g, "n", len(masks))
        setfield(g, "_masks", tuple(masks))
        setfield(g, "_m", sum(mask.bit_count() for mask in g._masks) // 2)
        return g

    def _values(self):
        return self.n, self._masks

    def __reduce__(self):  # copy and pickle rebuild through _from_masks
        return self._from_masks, (self._masks,)

    # -- accessors ---------------------------------------------------------

    @property
    def m(self):
        """Number of edges."""
        return self._m

    def edges(self):
        """All edges as (u, v) pairs with u < v, in lexicographic order: a
        new list on each call, which the graph does not keep."""
        out = []
        for u, later in _later_neighbors(self._masks):
            out += zip(repeat(u), later)
        return out

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


def _later_neighbors(masks):
    """(u, sorted neighbours of u above u) for each vertex u, in order."""
    for u, mask in enumerate(masks):
        yield u, mask_vertices(mask >> (u + 1) << (u + 1))


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


# -- edge-list text format ---------------------------------------------------


def graph_to_text(g):
    """The canonical text of ``g``: the header, then its edges in
    lexicographic order."""
    return "".join(_text_rows(g))


def _text_rows(g):
    """The canonical text of ``g`` in pieces: the header line, then the edge
    lines of each vertex u with a later neighbour as one string, ``"u v\n"``
    for each neighbour v above u, in order."""
    yield "p %d %d\n" % (g.n, g.m)
    for u, later in _later_neighbors(g.neighbor_masks()):
        if later:
            head = "%d " % u
            yield head + ("\n" + head).join(map(str, later)) + "\n"


def graph_from_text(text):
    """Parse the edge-list format.  A canonical text, as
    :func:`graph_to_text` writes it, is read in blocks by
    :func:`_read_canonical`; every other text, and a canonical one that
    breaks a rule the blocks do not check, goes to :func:`_read_lines`,
    which defines the format and writes every error.  Both give the same
    graph for the same text."""
    g = _read_canonical(text)
    return _read_lines(text) if g is None else g


# A canonical text: the header, then one "u v" line per edge, with ASCII
# digits, single spaces and a newline after every line.  A header field may
# carry leading zeros, which int() reads as the line loop does.
_CANONICAL_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
_CANONICAL_EDGES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
# The largest n a graph file may give: a reader sizes two lists of n slots,
# about 260 MB at this n.
MAX_FILE_VERTICES = 1 << 24
# A whole-text match keeps state for each repeat (12.9 MB on a 324 KB file)
# and a whole-text split a string per token, so the body goes in blocks of
# about this many characters, each cut just after a newline.
_BLOCK = 1 << 14


def _read_canonical(text):
    """The graph of a canonical ``text``, or None for any other text and
    for one whose ids, self-loops or edge count the line loop must judge.

    Every block is checked before anything is sized from the header, then
    each block is split and its tokens looked up in a :class:`_NamedIds`
    table, which is several times faster than int(); a token that is not a
    canonical id below n (``007``, or n or more) ends the read."""
    head = _CANONICAL_HEADER.match(text)
    if head is None:
        return None
    cuts = [head.end()]
    while cuts[-1] < len(text):
        start = cuts[-1]
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        if not _CANONICAL_EDGES.fullmatch(text, start, end):
            return None
        cuts.append(end)
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # int() refuses 4301 digits; the line loop says why
        return None
    if n > MAX_FILE_VERTICES:  # the line loop says why
        return None
    adj = [()] * n
    vertex = _NamedIds(adj).__getitem__
    try:
        for start, end in zip(cuts, cuts[1:]):
            ids = map(vertex, text[start:end].split())
            for u, v in zip(ids, ids):
                adj[u].add(v)
                adj[v].add(u)
    except KeyError:
        return None
    if any(v in s for v, s in enumerate(adj)):
        return None
    g = Graph._from_masks(_set_masks(adj))
    return g if g.m == m else None


class _NamedIds(dict):
    """Token -> vertex id, for the canonical ids below ``len(adj)`` that a
    text names.  Each is converted on first sight, when its vertex also
    gets an empty neighbourhood set in ``adj``; any other token (too large,
    or ``007``) is a KeyError.  So a text sizes one set and one table entry
    per vertex it names, whatever its header says."""

    __slots__ = ("adj",)

    def __init__(self, adj):
        self.adj = adj

    def __missing__(self, token):
        if len(token) > len(str(len(self.adj))):
            raise KeyError(token)  # no id below n; int() refuses 4301 digits
        v = int(token)
        if v >= len(self.adj) or str(v) != token:
            raise KeyError(token)
        self.adj[v] = set()
        self[token] = v
        return v


def _read_lines(text):
    """Parse the edge-list format line by line.  Each edge line is checked
    once, with the line number in its error, and its pair is kept in a set
    per vertex that it names; nothing is sized from the header until every
    line has passed, and the masks are built from the sets as
    :class:`Graph` builds them."""
    n = None
    adj = {}
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
            if n > MAX_FILE_VERTICES:
                raise GraphFormatError("over %d vertices" % MAX_FILE_VERTICES, lineno)
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
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    g = Graph._from_masks(_set_masks([adj.get(v, ()) for v in range(n)]))
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
    """Write the text of :func:`graph_to_text` to ``path``, one vertex's
    edge lines at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_text_rows(g))
