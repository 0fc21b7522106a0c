import pathlib
import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import bccover.graph as graph_module
from bccover import (
    Graph,
    GraphFormatError,
    complete_graph,
    cycle_graph,
    gen_copath,
    gen_fig_graph,
    gen_random_chordal,
    graph_from_text,
    graph_to_text,
    path_graph,
    read_graph,
    write_graph,
)
from bccover.graph import mask_vertices, vertex_mask
from helpers import (
    er_graph,
    graph_from_labels,
    induced_subgraph,
    naive_is_biclique,
    reference_graph_to_text,
)

DATA = pathlib.Path(__file__).parent / "data"


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, chosen)


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_construction_dedupes_and_symmetrizes():
    g = Graph(3, [(0, 1), (1, 0), (2, 1)])
    assert g.m == 2
    same = Graph(3, [(2, 1), (0, 1)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(3, [(0, 1), (0, 2)])
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighborhood(1) == (0, 2)
    assert g.has_edge(1, 0) and g.has_edge(2, 1)


def test_complement_examples():
    assert complete_graph(4).complement() == Graph(4)
    assert cycle_graph(4).complement() == Graph(4, [(0, 2), (1, 3)])
    # the 5-vertex co-path instance
    expected = graph_from_labels("abcde", ["ac", "ad", "ae", "bd", "be", "ce"])
    assert path_graph(5).complement() == expected
    assert gen_fig_graph("fig2").graph == expected


@given(graphs())
def test_complement_involution_and_edge_count(g):
    gc = g.complement()
    assert gc.complement() == g
    assert g.m + gc.m == g.n * (g.n - 1) // 2


def test_induced_subgraph_examples():
    empty, mapping = induced_subgraph(cycle_graph(4), [])
    assert empty.n == 0 and mapping == ()
    sub, mapping = induced_subgraph(cycle_graph(4), [0, 1, 2])
    assert mapping == (0, 1, 2)
    assert sub == path_graph(3)
    # triangle inside the complement of the fig3 graph
    g3c = gen_fig_graph("fig3").graph.complement()
    tri, mapping = induced_subgraph(g3c, [1, 2, 3])  # b, c, d
    assert tri == complete_graph(3)
    with pytest.raises(ValueError):
        induced_subgraph(cycle_graph(4), [0, 9])


@given(graphs())
def test_induced_subgraph_preserves_adjacency(g):
    rng = random.Random(g.n * 31 + g.m)
    subset = [v for v in range(g.n) if rng.random() < 0.6]
    sub, mapping = induced_subgraph(g, subset)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(mapping[i], mapping[j])


def test_is_biclique_subgraph_examples():
    fig2 = gen_fig_graph("fig2").graph
    assert fig2.is_biclique_subgraph({0, 1}, {3, 4})  # {a,b} vs {d,e}
    assert not fig2.is_biclique_subgraph({0}, {0})
    fig3 = gen_fig_graph("fig3").graph
    assert not fig3.is_biclique_subgraph({0, 1}, {3, 4})  # b-d missing
    assert not fig3.is_biclique_subgraph(set(), {1})
    assert not fig3.is_biclique_subgraph({0}, {99})


def test_is_biclique_subgraph_edge_cases():
    # star with centre 2: vertex -1 would index vertex 2's neighbourhood
    g = Graph(3, [(0, 2), (1, 2)])
    assert g.is_biclique_subgraph([2], [0, 1]) is True
    assert g.is_biclique_subgraph([0], [1]) is False
    assert g.is_biclique_subgraph([-1], [0, 1]) is False
    assert g.is_biclique_subgraph([2], [0, -1]) is False
    assert g.is_biclique_subgraph([3], [2]) is False
    assert g.is_biclique_subgraph([2], [0, 3]) is False
    assert g.is_biclique_subgraph([], [0]) is False
    assert g.is_biclique_subgraph([2], []) is False
    assert g.is_biclique_subgraph([], []) is False
    assert g.is_biclique_subgraph([0, 2], [2, 1]) is False
    assert g.is_biclique_subgraph([2, 2], [0, 1, 0]) is True


def test_is_biclique_subgraph_checks_range_before_building_a_mask():
    # a mask holding vertex 10**8 alone would take 12.5 MB
    g = Graph(3, [(0, 2), (1, 2)])
    tracemalloc.start()
    try:
        assert g.is_biclique_subgraph([2], [0, 10**8]) is False
        assert g.is_biclique_subgraph(iter([10**8]), iter([2])) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_is_biclique_subgraph_reads_one_shot_iterators_once():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert g.is_biclique_subgraph(iter([0, 1]), iter([2, 3])) is True
    assert g.is_biclique_subgraph((v for v in [0, 1]), (v for v in [3])) is True
    assert g.is_biclique_subgraph((v for v in [0, 2]), (v for v in [3])) is False


@st.composite
def graphs_with_sides(draw):
    g = draw(graphs())
    vertex = st.integers(min_value=-2, max_value=g.n + 1)
    left = draw(st.lists(vertex, max_size=5))
    right = draw(st.lists(vertex, max_size=5))
    return g, left, right


@settings(derandomize=True, max_examples=400)
@given(graphs_with_sides())
def test_is_biclique_subgraph_matches_set_based_reference(case):
    g, left, right = case
    expected = naive_is_biclique(g, left, right)
    assert g.is_biclique_subgraph(left, right) is expected
    assert g.is_biclique_subgraph(iter(left), iter(right)) is expected


@given(graphs())
def test_neighbor_masks_match_neighbor_sets(g):
    masks = g.neighbor_masks()
    assert len(masks) == g.n
    for u in range(g.n):
        assert tuple(v for v in range(g.n) if masks[u] >> v & 1) == g.neighborhood(u)


@given(graphs())
def test_biclique_of_graph_never_biclique_of_complement(g):
    rng = random.Random(g.n * 17 + g.m)
    verts = list(range(g.n))
    rng.shuffle(verts)
    left, right = set(verts[: g.n // 2]), set(verts[g.n // 2:])
    if left and right and g.is_biclique_subgraph(left, right):
        assert not g.complement().is_biclique_subgraph(left, right)


def test_accessors():
    c4 = cycle_graph(4)
    assert c4.neighborhood(0) == (1, 3)
    assert all(complete_graph(5).degree(v) == 4 for v in range(5))
    assert path_graph(5).complement().edges() == [
        (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4),
    ]
    with pytest.raises(ValueError):
        c4.degree(7)


def test_accessor_edge_cases():
    g = Graph(3, [(0, 2), (1, 2)])
    # a negative shift count raises ValueError, so v < 0 must be caught first
    cases = ((2, -1), (0, -3), (2, 3), (2, 99), (-1, 2), (3, 2), (-1, -1), (2, 2), (0, 0))
    for u, v in cases:
        assert g.has_edge(u, v) is False
    assert g.has_edge(2, 0) is True and g.has_edge(0, 1) is False
    for v in (-1, 3, 99):
        with pytest.raises(ValueError):
            g.neighborhood(v)
        with pytest.raises(ValueError):
            g.degree(v)
    assert Graph(0).has_edge(0, 0) is False


@settings(derandomize=True, max_examples=200)
@given(st.integers(min_value=0, max_value=40), st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0]),
       st.integers(min_value=0, max_value=10**6))
def test_accessors_match_networkx(n, p, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs)
    assert g.m == h.number_of_edges()
    assert g.edges() == sorted(tuple(sorted(e)) for e in h.edges())
    for u in range(n):
        assert g.neighborhood(u) == tuple(sorted(h[u]))
        assert g.degree(u) == h.degree(u)
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == h.has_edge(u, v)
    gc = g.complement()
    assert gc.edges() == sorted(tuple(sorted(e)) for e in nx.complement(h).edges())


@settings(derandomize=True, max_examples=200)
@given(st.sets(st.integers(min_value=0, max_value=3000)))
def test_mask_vertices_inverts_vertex_mask(vertices):
    assert mask_vertices(vertex_mask(vertices)) == sorted(vertices)
    full = (1 << 3000) - 1  # the dense path, read from binary digits
    assert mask_vertices(full & ~vertex_mask(vertices)) == sorted(set(range(3000)) - vertices)


def test_sparse_graphs_build_masks_bit_by_bit(monkeypatch):
    calls = []
    real = graph_module._dense_mask
    monkeypatch.setattr(
        graph_module, "_dense_mask", lambda vs, n: calls.append(n) or real(vs, n)
    )
    g = path_graph(2000)
    assert calls == []
    assert g.m == 1999 and g.neighborhood(1000) == (999, 1001)
    assert complete_graph(40).m == 780 and len(calls) == 40  # dense: bytes


def test_empty_graph_is_legal_everywhere():
    g = Graph(0)
    assert g.edges() == []
    assert g.complement() == g
    sub, mapping = induced_subgraph(g, [])
    assert sub.n == 0


def test_text_round_trip_bit_exact():
    rng = random.Random(5)
    for _ in range(25):
        g = er_graph(rng.randrange(9), 0.4, rng)
        text = graph_to_text(g)
        again = graph_from_text(text)
        assert again == g
        assert graph_to_text(again) == text


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p 3 0\np 3 0\n", 2, "duplicate header"),
        ("p 3\n", 1, "header must be 'p <n> <m>'"),
        ("p 3 0 0\n", 1, "header must be 'p <n> <m>'"),
        ("p x 0\n", 1, "non-integer header field"),
        ("p 3 1.0\n", 1, "non-integer header field"),
        ("p -1 0\n", 1, "negative header field"),
        ("p 3 -2\n", 1, "negative header field"),
        ("c note\n0 1\np 3 1\n", 2, "edge before 'p' header"),
        ("p 3 1\n\n0 1 2\n", 3, "edge line must be 'u v'"),
        ("p 3 1\n0\n", 2, "edge line must be 'u v'"),
        ("p 3 1\n0 a\n", 2, "non-integer vertex"),
        ("p 3 1\n0 5\n", 2, "invalid edge 0 5"),
        ("p 3 1\n-1 2\n", 2, "invalid edge -1 2"),
        ("p 3 1\n0 1\n3 0\n", 3, "invalid edge 3 0"),
        ("p 3 1\n1 1\n", 2, "invalid edge 1 1"),
        ("p 3 2\n0 1\n", None, "header claims 2 edges, file has 1 distinct edges"),
        ("p 3 2\n0 1\n1 0\n", None, "header claims 2 edges, file has 1 distinct edges"),
        ("", None, "missing 'p <n> <m>' header"),
        ("c only a comment\n\n", None, "missing 'p <n> <m>' header"),
        # the first bad line is the one reported, whatever follows it
        ("p 3 1\n0 x\n0 5\n", 2, "non-integer vertex"),
    ],
)
def test_graph_from_text_errors(text, line, message):
    with pytest.raises(GraphFormatError) as err:
        graph_from_text(text)
    assert err.value.line == line
    expected = message if line is None else "line %d: %s" % (line, message)
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "text, n, edges",
    [
        ("  c indented comment\np 2 1\n\t c tab\n0 1\n", 2, [(0, 1)]),
        ("p 3 1\n0 1\n1 0\n0 1\n", 3, [(0, 1)]),  # a duplicate edge counts once
        ("  p 3 1  \n 2   0 \n", 3, [(0, 2)]),
        ("p 0 0\n", 0, []),
        ("p 4 0\n", 4, []),
    ],
)
def test_graph_from_text_accepts(text, n, edges):
    assert graph_from_text(text) == Graph(n, edges)


def test_graph_from_text_matches_constructor_on_both_mask_kinds():
    """Sparse and dense neighbourhoods (one vertex in sixteen is the switch)
    come out as Graph.__init__ builds them."""
    rng = random.Random(3)
    for n, p in ((40, 0.02), (40, 0.5), (200, 0.05), (64, 1.0)):
        g = er_graph(n, p, rng)
        lines = ["%d %d" % (v, u) for u, v in g.edges()]
        rng.shuffle(lines)
        again = graph_from_text("p %d %d\n%s" % (n, g.m, "\n".join(lines)))
        assert again == g and again.m == g.m and again.edges() == g.edges()


def test_text_format_parsing():
    g = graph_from_text("c comment\np 3 2\n0 1\nc another\n1 2\n")
    assert g == path_graph(3)


def _outcome(read, text):
    """What ``read`` makes of ``text``: the graph, or the error's message
    and line."""
    try:
        return read(text)
    except GraphFormatError as exc:
        return str(exc), exc.line


def _mutants(text, n, m, rng):
    """Texts one edit away from the canonical ``text`` of a graph with
    ``n`` vertices and ``m`` edges."""
    body = text.index("\n") + 1
    lines = [body] + [i + 1 for i in range(body, len(text) - 1) if text[i] == "\n"]
    tokens = [t.start() for t in re.finditer("[0-9]+", text)]
    spaces = [i for i in range(len(text)) if text[i] == " "]
    digits = [i for i in range(len(text)) if text[i].isdigit()]

    def put(i, s, cut=0):
        return text[:i] + s + text[i + cut:]

    out = [
        put(rng.randrange(len(text)), "", 1),
        put(rng.randrange(len(text) + 1), rng.choice("0123456789 \npc-+\t")),
        put(rng.choice(tokens), "0"),
        put(rng.choice(tokens), "+"),
        put(rng.choice(spaces), "\t", 1),
        text.replace("\n", "\r\n"),
        put(rng.choice(lines) - 1, "\r"),
        text[:-1],
        put(rng.choice(lines), "c a comment\n"),
        put(rng.choice(lines), "p %d %d\n" % (n, m)),
        put(rng.choice(lines), "%d %d\n" % ((rng.randrange(n),) * 2 if n else (0, 0))),
        put(rng.choice(lines), "%d 0\n" % (n + rng.randrange(3))),
        put(rng.choice(lines), "0 %d\n" % (n + rng.randrange(3))),
        text.replace("p %d %d\n" % (n, m), "p %d %d\n" % (n, m + 1), 1),
        text.replace("p %d %d\n" % (n, m), "p %d %d\n" % (n, m - 1), 1),
        text.replace("p %d %d\n" % (n, m), "p %d %d\n" % (n + 1, m), 1),
    ]
    if digits:
        i = rng.choice(digits)
        out.append(put(i, chr(0x660 + int(text[i])), 1))  # an Arabic-Indic digit
    if len(lines) > 1:
        i = rng.choice(lines[:-1])
        u, v = text[i:text.index("\n", i)].split()
        out.append(put(i, "%s %s\n" % (v, u)))  # a repeated edge, reversed
        out.append(put(i, "%s %s\n" % (v, u), text.index("\n", i) + 1 - i))  # reversed
    return out


def test_bulk_reader_matches_line_loop(monkeypatch):
    line_loop = graph_module._read_lines
    entered = []
    monkeypatch.setattr(
        graph_module, "_read_lines", lambda text: entered.append(1) or line_loop(text)
    )
    rng = random.Random(21)
    graphs = [gen_copath(n).graph for n in list(range(3, 41)) + [60, 100, 150, 300]]
    graphs += [er_graph(n, p, rng) for n in range(13) for p in (0.0, 0.3, 1.0)]
    graphs += [er_graph(120, 0.5, rng), Graph(5000, [(0, 4999)])]
    for g in graphs:
        text = graph_to_text(g)
        assert graph_from_text(text) == g
        assert entered == [], text[:20]
        for mutant in _mutants(text, g.n, g.m, rng):
            assert _outcome(graph_from_text, mutant) == _outcome(line_loop, mutant), (
                mutant[:40]
            )
        entered.clear()
    # the largest bodies span many blocks
    assert len(graph_to_text(gen_copath(300).graph)) > 16 * graph_module._BLOCK


def _parse_peak(read, text):
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_reader_peaks_no_higher_than_line_loop():
    for g in (er_graph(300, 0.8, random.Random(4)), gen_copath(150).graph):
        text = graph_to_text(g)
        assert graph_module._read_canonical(text) == g
        bulk = _parse_peak(graph_from_text, text)
        assert bulk <= _parse_peak(graph_module._read_lines, text), g


def test_graph_from_text_sizes_nothing_from_a_header_before_a_bad_line():
    # 200000 vertices' neighbourhood sets alone would take about 40 MB
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as err:
            graph_from_text("p 200000 0\np 1 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 2: duplicate header" and err.value.line == 2
    assert peak < 1 << 20


def test_canonical_reader_sizes_nothing_from_a_large_header():
    # a set per header vertex, or an id table over all of them, took 67 MB
    # for the first text and 99 MB for the second
    for text in ("p 300000 0\n", "p 300000 1\n0 299999\n"):
        tracemalloc.start()
        try:
            g = graph_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, text
        assert g == graph_module._read_lines(text) and g.n == 300000


def test_a_header_above_the_vertex_cap_is_refused_before_anything_is_sized():
    # one count above the cap: a slot per header vertex would take about
    # 260 MB in either reader, so the peak must stay far below one list
    cap = graph_module.MAX_FILE_VERTICES
    assert cap == 1 << 24
    for text in ("p %d 0\n" % (cap + 1), "c x\np %d 1\n0 1\n" % (cap + 1)):
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError) as err:
                graph_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "over %d vertices" % cap in str(err.value)
        assert peak < 1 << 20, text


def test_canonical_reader_hands_an_overlong_id_to_the_line_loop():
    # int() refuses a number of more than 4300 digits; a header with one
    # raised ValueError from the block reader
    for text in ("p 3 1\n%s 0\n" % ("1" * 5000), "p %s 1\n0 1\n" % ("9" * 5000)):
        assert _outcome(graph_from_text, text) == _outcome(graph_module._read_lines, text)


def test_graph_holds_only_n_m_and_masks():
    assert Graph.__slots__ == ("n", "_m", "_masks")


def test_edges_leave_nothing_behind():
    # the edge tuple once kept by the first call took 6.2 MB on copath-400
    g = gen_copath(400).graph
    tracemalloc.start()
    try:
        assert len(g.edges()) == g.m
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_graph_to_text_lists_no_edges():
    # the whole edge list and a string per edge peaked at 52 MB on
    # copath-800, for a text of 2.3 MB
    g = gen_copath(800).graph
    tracemalloc.start()
    try:
        text = graph_to_text(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 << 20
    assert peak < 8 << 20


def test_writers_match_the_edge_list_writer(tmp_path):
    graphs = [Graph(0), Graph(1), Graph(7)]
    graphs += [gen_copath(n).graph for n in range(3, 301)]
    for n, density, seed in ((10, 0.5, 7), (30, 0.2, 1), (60, 0.4, 2), (120, 0.3, 3)):
        h = gen_random_chordal(n, density, seed)
        graphs += [h, h.complement()]
    graphs += [read_graph(path) for path in sorted(DATA.glob("*.graph"))]
    path = tmp_path / "g.graph"
    for g in graphs:
        text = reference_graph_to_text(g)
        assert graph_to_text(g) == text, g
        write_graph(g, path)
        assert path.read_bytes() == text.encode(), g
