import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphsym.formats
from graphsym import (
    FormatError,
    Graph,
    cartesian_product,
    complete,
    cycle,
    parse_auto,
    parse_edgelist,
    parse_graph6,
    path,
    serialize_edgelist,
    serialize_graph6,
    strong_product,
)
from graphsym.formats import _MAX_COUNT, GRAPH6_HEADER, detect_format
from oracles import (
    reference_detect_format,
    reference_parse_edgelist,
    reference_parse_graph6,
    reference_serialize_edgelist,
)
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
        for parse, serialize in ((parse_graph6, serialize_graph6),
                                 (parse_edgelist, serialize_edgelist)):
            assert parse(serialize(g)) == g


def test_detect_format():
    assert detect_format("3\n0 1\n1 2") == "edgelist"
    assert detect_format("D?{") == "graph6"
    assert parse_auto(serialize_edgelist(path(4))) == path(4)
    assert parse_auto("D?{") == parse_graph6("D?{")


def test_detect_format_across_the_prefix_cut():
    assert detect_format("#" * 255 + "\r\n5\n") == "edgelist"
    assert detect_format("#" * 2000 + "\n 3 \n0 1") == "edgelist"
    assert detect_format("3" + " " * 2000 + "#\n") == "edgelist"
    assert detect_format("3" + " " * 2000 + "4\n") == "graph6"
    assert detect_format("\n" * 300 + "D?{" * 1000) == "graph6"


def test_overlong_count_line_is_an_edge_list():
    # int() refuses more than 4,300 digits; the count is refused by its length
    text = "9" * 5000 + "\n"
    assert detect_format(text) == "edgelist"
    with pytest.raises(FormatError, match=r"outside 0\.\.258047") as err:
        parse_auto(text)
    assert "99" not in str(err.value)
    assert parse_edgelist("0000005\n").n == 5


# every line boundary of str.splitlines, and line contents that are blank,
# commented, integers or not; the long ones run past any short look-ahead,
# and the last four hold whitespace that ends no line, the only characters
# that regex \s and str.splitlines treat differently
_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_PIECES = ["", " ", "\t", "#", "# 12", "7", " 12 ", "+3", "-0", "1_0", "D?{", "3 # x", "9" * 7,
           "\u0663", "\u00b2", "a", "\x00", " " * 300, "#" * 300, "5" + " " * 300,
           "1" + " " * 300 + "2", "-" + "0" * 300, "D" * 300, "9" * 5000,
           "\x1f", "\xa0 7", "3\x1f", "\u3000"]
_LINE_TEXT = st.sampled_from(_PIECES) | st.text(max_size=3)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_LINE_TEXT, st.sampled_from(_BREAKS)), max_size=8), _LINE_TEXT)
def test_detect_format_matches_the_reference(lines, last):
    text = "".join(piece + end for piece, end in lines) + last
    assert detect_format(text) == reference_detect_format(text)
    data = text.encode("utf-8")
    assert detect_format(data) == reference_detect_format(data)


def test_overlong_vertex_index_is_out_of_range():
    # refused by its length before int(), without echoing the digits
    for index in ("9" * 5000, "-" + "9" * 5000, "1234567"):
        for line in (f"0 {index}", f"{index} 1"):
            with pytest.raises(FormatError, match="out of range for 3 vertices") as err:
                parse_auto(f"3\n{line}\n")
            assert index not in str(err.value) and len(str(err.value)) < 80
    assert parse_edgelist("3\n0000000 0000002\n").edges == ((0, 2),)


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


def test_graph6_reader_on_a_large_product():
    # one bytes.translate validates the whole string, and only the groups
    # with a set bit, found by bytes.find on a second translate, are decoded
    products = [f(cycle(60), cycle(60)) for f in (strong_product, cartesian_product)]
    texts = [serialize_graph6(g) for g in products]
    with criterion(19, 0.2, "graph6 of C60 x C60 and C60 [] C60 (3600 vertices) read"):
        graphs = [parse_graph6(s) for s in texts]
    assert graphs == products == [reference_parse_graph6(s) for s in texts]


def test_edgelist_writer_on_a_large_product():
    # one join per vertex row, over numbers formatted once per vertex,
    # instead of one formatted line per edge.  The bound cannot tell that
    # from the former writers (8.1-9.2 ms against 9.6-10.6 ms for a join of
    # per-edge str() and 11-12 ms for a line per edge, on 2 cores, fresh
    # graphs): it catches a writer that tests every vertex pair (0.7 s),
    # and BENCH_18.json records the gain of the row join
    products = [f(cycle(60), cycle(60)) for f in (strong_product, cartesian_product)]
    with criterion(21, 0.1, "edge lists of C60 x C60 and C60 [] C60 (3600 vertices) written"):
        texts = [serialize_edgelist(g) for g in products]
    assert texts == [reference_serialize_edgelist(g) for g in products]
    assert [parse_edgelist(t) for t in texts] == products


def parse_outcome(parser, text):
    """The graph a reader returns, or the message of the FormatError it raises."""
    try:
        return parser(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 400]), st.integers(min_value=2, max_value=70)),
       st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=2**32))
def test_graph6_reader_matches_the_reference_on_random_graphs(n, density, seed):
    # n = 400 exercises the four-byte header; at most a tenth of its pairs
    # are edges, since a dense one costs about a second per case to build
    if n > 70:
        density /= 10
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
    s = serialize_graph6(g)
    assert parse_graph6(s) == reference_parse_graph6(s) == g
    assert parse_graph6(GRAPH6_HEADER + s) == g


graph6_like = st.text(alphabet="?@AB_`{}~ \t\n\x0b\x1f\x7f\x85\xa0\xe9>graph6<")


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(), st.text(), graph6_like,
                 graph6_like.map(lambda s: GRAPH6_HEADER + s)))
def test_graph6_reader_matches_the_reference_on_any_input(data):
    assert parse_outcome(parse_graph6, data) == parse_outcome(reference_parse_graph6, data)


@pytest.mark.parametrize("text, outcome", [
    # whitespace anywhere wins over an earlier character out of range
    ("D\x7f {", "unexpected whitespace"),
    ("D\x01?\t{", "unexpected whitespace"),
    # str.isspace counts the unit separator as whitespace, and strip removes it
    ("D\x1f{", "unexpected whitespace"),
    ("\x1f", "empty graph6 string"),
    ("\x1fD?{\x1f", "graph"),
    # a non-ASCII character, and its UTF-8 bytes read as ASCII with replacement
    ("D?\u00e9", "graph6 character '\u00e9' out of range"),
    ("D?\u00e9".encode("utf-8"), "graph6 character '\ufffd' out of range"),
    # set padding bits past the last pair are ignored
    ("D?~", "graph"),
    ("A~", "graph"),
    ("~~??????", "graph6 vertex counts above 258047"),
    ("~?", "truncated graph6 vertex count"),
    ("D?{?", "graph6 body has 3 characters, expected 2"),
    # a character above U+FFFF, and one just past either end of "?".."~"
    ("D?\U0001f600", "graph6 character '\U0001f600' out of range"),
    ("\x7f", "graph6 character '\\x7f' out of range"),
    (">", "graph6 character '>' out of range"),
    ("D?>", "graph6 character '>' out of range"),
    # a body of only empty groups, and no body at all
    ("D??", "graph"),
    ("~??~" + "?" * 326, "graph"),  # 63 vertices
    ("?", "graph"),
    # every byte from 0x80 up, each read as the replacement character
    (b"D?" + bytes(range(0x80, 0x100)), "graph6 character '\ufffd' out of range"),
])
def test_graph6_reader_named_cases(text, outcome):
    got = parse_outcome(parse_graph6, text)
    assert got == parse_outcome(reference_parse_graph6, text)
    if outcome == "graph":
        assert isinstance(got, Graph)
    else:
        assert isinstance(got, str) and outcome in got


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=2**32))
def test_graph6_reader_at_column_ends_and_padding(n, seed):
    # edges at both ends of random columns, u = 0 and u = v - 1, where the
    # reader moves from one column to the next, and every padding bit of
    # the last group set
    rng = random.Random(seed)
    columns = rng.sample(range(1, n), rng.randint(1, n - 1))
    g = Graph.from_edges(n, [e for v in columns for e in ((0, v), (v - 1, v))])
    s = serialize_graph6(g)
    padding = -(n * (n - 1) // 2) % 6
    s = s[:-1] + chr(63 + ((ord(s[-1]) - 63) | (1 << padding) - 1))
    assert parse_graph6(s) == reference_parse_graph6(s) == g


def test_graph6_padding_bits_are_ignored():
    assert parse_graph6("D?~") == parse_graph6("D?{")  # the star K_{1,4}
    assert parse_graph6("A~") == complete(2)
    assert parse_graph6("B~") == parse_graph6("Bw") == complete(3)


edgelist_like = st.text(alphabet="0123456789 \n\r#+-")


@st.composite
def writer_graphs(draw):
    """Graphs for the edge-list writer: n = 0, isolated vertices and vertex
    numbers of one to four digits.  C60 x C60 is checked by
    test_edgelist_writer_on_a_large_product."""
    kind = draw(st.sampled_from(["random", "random", "random", "empty"]))
    n = draw(st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101, 1500]))
    if kind == "empty" or n < 2:
        return Graph.from_edges(n, [])
    index = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(lambda e: e[0] != e[1]), max_size=40))
    return Graph.from_edges(n, pairs)


@settings(max_examples=150, deadline=None)
@given(writer_graphs())
def test_edgelist_writer_matches_the_reference(g):
    text = serialize_edgelist(g)
    assert text == reference_serialize_edgelist(g)
    assert parse_edgelist(text) == g


@st.composite
def writer_shaped_edgelists(draw):
    """Text in serialize_edgelist's shape, valid or not: a count and index
    pairs of one to six digits, some repeated, reversed, looped or out of
    range, or many valid pairs with at most one given again, either way
    round; no number, one number or every first number of a line
    zero-padded; with or without the final newline."""
    # counts over 258047 are refused; 100001 vertices, the fewest that take
    # a valid six-digit index, cost both readers a row each, so come rarely
    n = draw(st.sampled_from([*range(13)] * 4 + [99, 1000, 258048, 999999] * 2 + [100001]))
    if n < 2 or draw(st.booleans()):
        index = st.one_of(st.integers(min_value=0, max_value=min(n, 10)),
                          st.integers(min_value=0, max_value=999999))
        pairs = draw(st.lists(st.tuples(index, index), max_size=10))
    else:
        index = st.integers(min_value=0, max_value=min(n, _MAX_COUNT) - 1)
        pairs = draw(st.lists(st.tuples(index, index).filter(lambda e: e[0] != e[1]),
                              min_size=min(10, n * (n - 1) // 2), max_size=40,
                              unique_by=frozenset))
        if draw(st.booleans()):
            u, v = draw(st.sampled_from(pairs))
            again = draw(st.sampled_from([(u, v), (v, u)]))
            pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), again)
    numbers = [str(n)] + [str(i) for pair in pairs for i in pair]
    pad = draw(st.sampled_from(["0", "00", "000000"]))
    padded = draw(st.sampled_from(["none", "one", "firsts"]))
    if padded == "one":
        at = draw(st.integers(min_value=0, max_value=len(numbers) - 1))
        numbers[at] = pad + numbers[at]
    elif padded == "firsts":
        numbers[1::2] = [pad + u for u in numbers[1::2]]
    lines = [numbers[0]] + [f"{u} {v}" for u, v in zip(numbers[1::2], numbers[2::2])]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(), st.text(), edgelist_like, edgelist_like.map(str.encode),
                 writer_shaped_edgelists()))
def test_edgelist_reader_matches_the_reference_on_any_input(data):
    assert parse_outcome(parse_edgelist, data) == parse_outcome(reference_parse_edgelist, data)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2**32))
def test_edgelist_reader_matches_the_reference_on_random_graphs(n, density, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
    text = serialize_edgelist(g)
    assert parse_edgelist(text) == reference_parse_edgelist(text) == g
    # and reads the same after its lines are shuffled and some pairs reversed
    lines = text.splitlines()
    edges = [line.split() for line in lines[1:]]
    rng.shuffle(edges)
    shuffled = "\n".join([lines[0]] + [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}"
                                        for u, v in edges])
    assert parse_edgelist(shuffled) == g


@pytest.mark.parametrize("text, whole, outcome", [
    ("3\n0 1\n1 2", True, "graph"),  # no trailing newline
    ("3\r\n0 1\r\n1 2\r\n", False, "graph"),  # CRLF line endings
    ("3\n0000000 0000002\n", False, "graph"),  # zero-padded to 7 digits
    ("3\n0 00000000001\n", False, "graph"),
    ("3\n000001 000002\n", True, "graph"),  # zero-padded to 6 digits
    ("003\n0 1\n", True, "graph"),  # a zero-padded count, which JSON refuses
    ("4\n2 3\n1 0\n3 0\n", True, "graph"),  # unsorted, with reversed pairs
    ("3\n0 1\n1 0\n", False, "duplicate edge 1 0"),  # u v, then v u
    ("3\n0 1\n0 1\n", False, "duplicate edge 0 1"),
    ("4\n0 1\n1 2\n2 3\n3 2\n", False, "duplicate edge 3 2"),  # the last pair repeats
    ("3\n1 1\n", False, "self-loop 1 1"),
    ("3\n0 3\n", False, "vertex index out of range in '0 3'"),  # an index equal to n
    ("999999\n", False, "vertex count 999999 outside 0..258047"),
    ("999999\n0 1\n", False, "vertex count 999999 outside 0..258047"),
    ("0\n", True, "graph"),  # count 0
    ("0", True, "graph"),
    ("0\n0 1\n", False, "vertex index out of range in '0 1'"),
    ("258048\n", False, "vertex count 258048 outside 0..258047"),
])
def test_edgelist_reader_named_cases(text, whole, outcome, monkeypatch):
    # whole: the whole-text path reads the text, and the line loop never runs
    line_loop = graphsym.formats._parse_edgelist_lines
    lines_read = []
    monkeypatch.setattr(graphsym.formats, "_parse_edgelist_lines",
                        lambda text: lines_read.append(text) or line_loop(text))
    got = parse_outcome(parse_edgelist, text)
    assert lines_read == ([] if whole else [text])
    assert got == parse_outcome(reference_parse_edgelist, text)
    if outcome == "graph":
        assert isinstance(got, Graph)
    else:
        assert got == f"FormatError: {outcome}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(), edgelist_like.map(str.encode), graph6_like.map(str.encode),
                 writer_shaped_edgelists().map(str.encode)))
# each format, and the graph6 header; then a byte >= 0x80 in an edge list and in graph6 text
@example(b"3\n0 1\n1 2\n")
@example(b"D?{")
@example(b">>graph6<<D?{")
@example(b"3\n0 1\x80\n")
@example(b"3 # \xff\n0 1\n")
@example(b"\x803\n0 1\n")
@example(b"D?\x80")
@example(b"D\xff{")
@example(b"\xe9")
def test_parse_auto_reads_bytes_as_their_decoded_text(data):
    text = data.decode("ascii", errors="replace")
    assert parse_outcome(parse_auto, data) == parse_outcome(parse_auto, text)
