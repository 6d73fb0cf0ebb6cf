import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    FormatError,
    Graph,
    complete,
    cycle,
    parse,
    parse_auto,
    parse_edgelist,
    parse_graph6,
    path,
    serialize,
    serialize_edgelist,
    serialize_graph6,
    strong_product,
)
from graphsym.formats import detect_format
from test_acceptance import criterion


def corpus():
    graphs = [path(n) for n in range(1, 9)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [complete(n) for n in range(1, 6)]
    graphs += [strong_product(path(3), path(4)), strong_product(path(2), cycle(5))]
    return graphs


def test_known_graph6_string_round_trips():
    g = parse_graph6("D?{")
    assert g.n == 5
    # star: vertex 4 adjacent to everything else
    assert set(g.edges) == {(0, 4), (1, 4), (2, 4), (3, 4)}
    assert serialize_graph6(g) == "D?{"


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


def test_parse_accepts_bytes():
    assert parse_graph6(b"D?{") == parse_graph6("D?{")
    assert parse_edgelist(b"3\n0 1\n1 2") == path(3)


def test_edgelist_parse():
    assert parse_edgelist("3\n0 1\n1 2") == path(3)
    assert parse_edgelist("3  # P3\n0 1\n# middle comment\n1 2\n") == path(3)


def test_edgelist_errors():
    with pytest.raises(FormatError):
        parse_edgelist("2\n0 0")  # self-loop
    with pytest.raises(FormatError):
        parse_edgelist("2\n0 3")  # out of range
    with pytest.raises(FormatError):
        parse_edgelist("3\n0 1\n1 0")  # duplicate edge
    with pytest.raises(FormatError):
        parse_edgelist("x\n0 1")
    with pytest.raises(FormatError):
        parse_edgelist("3\n0 1 2")
    with pytest.raises(FormatError):
        parse_edgelist("258048\n")  # more vertices than graph6 can encode


def test_graph6_errors():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("D?")  # truncated body
    with pytest.raises(FormatError):
        parse_graph6("D?{{")  # trailing junk
    with pytest.raises(FormatError):
        parse_graph6("D\x1f{")  # character below the offset


def test_round_trip_corpus_both_formats():
    for g in corpus():
        for fmt in ("graph6", "edgelist"):
            assert parse(serialize(g, fmt), fmt) == g


def test_detect_format():
    assert detect_format("3\n0 1\n1 2") == "edgelist"
    assert detect_format("D?{") == "graph6"
    assert parse_auto(serialize_edgelist(path(4))) == path(4)
    assert parse_auto("D?{") == parse_graph6("D?{")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_random_graphs(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph.from_edges(n, picks)
    assert parse_graph6(serialize_graph6(g)) == g
    assert parse_edgelist(serialize_edgelist(g)) == g
    # canonical graph6 strings reproduce byte for byte
    s = serialize_graph6(g)
    assert serialize_graph6(parse_graph6(s)) == s


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(), st.text()))
def test_parse_auto_returns_a_graph_or_a_format_error(data):
    try:
        assert isinstance(parse_auto(data), Graph)
    except FormatError:
        pass


@pytest.mark.parametrize("n", [62, 63, 64, 400])
def test_graph6_round_trip_across_the_long_header(n):
    # n <= 62 takes a one-byte vertex count, larger n the four-byte "~" form
    rng = random.Random(n)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.1])
    s = serialize_graph6(g)
    assert (s[0] == "~") == (n > 62)
    assert parse_graph6(s) == g
    assert serialize_graph6(parse_graph6(s)) == s
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges)
    assert parse_graph6(nx.to_graph6_bytes(nxg, header=False)) == g


def test_graph6_writer_on_a_large_product():
    # the writer sets one bit per edge instead of testing every vertex pair
    g = strong_product(cycle(60), cycle(60))
    with criterion(16, 0.5, "graph6 of C60 x C60 (3600 vertices) written"):
        s = serialize_graph6(g)
    assert len(s) == 4 + (3600 * 3599 // 2 + 5) // 6
    assert parse_graph6(s) == g
