"""graph6 and edge-list serialization.

graph6 is the standard ASCII encoding: a vertex-count header followed by
the upper triangle of the adjacency matrix packed into 6-bit groups, each
offset by 63.  The optional ``>>graph6<<`` prefix is accepted on input.
The reader validates the whole string before it decodes any group, with
one ``bytes.translate`` that deletes every graph6 character, and its
errors keep one order: whitespace anywhere, then the first character out
of range, then the vertex count, then the body length.  A second
``translate`` marks every group with a set bit, ``bytes.find`` jumps from
one mark to the next, so only those groups are visited, and padding bits
past the last pair are ignored.

The edge-list format is line oriented: the first non-comment line is the
vertex count, every following line is ``u v`` with 0-based indices, and
``#`` starts a comment.  Text in the writer's own shape (a count line and
``u v`` lines of at most six ASCII digits each, separated by single spaces
and ``\n``) is read whole: one ``json.loads`` parses every number, with
the spaces and newlines turned into commas (``int`` on the split text
when a number is zero-padded, which JSON refuses), one ``max`` tests the
range, and a pair given twice, either way round, or a self-loop shows as
a repeated entry in some vertex's row, found by counting each row's
distinct entries.  Any other text, and any such text that fails a check,
is read line by line, and only that loop reports errors, so the messages
do not depend on the path taken.  The writer formats each vertex number
once and makes one string join per vertex row, not one per edge.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"
# the largest vertex count graph6 encodes in one "~" header; edge lists share it
_MAX_COUNT = 258047
# a vertex count or index with more significant digits than _MAX_COUNT, which
# is out of range whatever its digits; int() refuses one of more than 4,300 digits
_LONG_NUMBER = re.compile(r"[+-]?0*[1-9][0-9]{%d,}" % len(str(_MAX_COUNT)))
# the graph6 characters, chr(63)..chr(126), as bytes
_GRAPH6_BYTES = bytes(range(63, 127))
# a translate table that maps a six-bit group with at least one bit set to
# 1 and the empty group "?" to 0; and the offsets of a group's set bits,
# counted from the most significant one
_MARK_SET_GROUPS = bytes(b != 63 for b in range(256))
_SET_BITS = tuple(tuple(b for b in range(6) if group & (32 >> b)) for group in range(64))
# the characters at which str.splitlines ends a line, as a regex class body
_LINE_ENDS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
# whitespace and "#" comments, each ending at a line end, then the first
# significant line up to a comment, if it starts with a sign or a decimal digit
_INTEGER_LINE = re.compile(rf"\s*(?:#[^{_LINE_ENDS}]*\s*)*([+\-\d][^#{_LINE_ENDS}]*)?")
# an edge list in the shape serialize_edgelist writes, final newline optional
_WRITER_EDGELIST = re.compile(r"[0-9]{1,6}(?:\n[0-9]{1,6} [0-9]{1,6})*\n?")


class FormatError(ValueError):
    """Malformed serialized graph input."""


def _encode_count(n: int) -> str:
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= _MAX_COUNT:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise FormatError(f"vertex count {n} too large for this graph6 writer")


def _decode_count(s: str) -> tuple[int, int]:
    """Return (vertex count, characters consumed)."""
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] == "~":
        raise FormatError(f"graph6 vertex counts above {_MAX_COUNT} not supported")
    if len(s) < 4:
        raise FormatError("truncated graph6 vertex count")
    n = 0
    for c in s[1:4]:
        n = (n << 6) | (ord(c) - 63)
    return n, 4


def serialize_graph6(graph: Graph) -> str:
    # bit k = v(v-1)/2 + u is the pair (u, v), u < v, most significant bit
    # first in its six-bit group; every group starts at "?" (offset 63, no bits)
    n = graph.n
    header = _encode_count(n)
    groups = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for v, nbrs in enumerate(graph.adj):
        start = v * (v - 1) // 2
        for u in nbrs:
            if u >= v:
                break
            k = start + u
            groups[k // 6] += 32 >> (k % 6)
    return header + groups.decode("ascii")


def parse_graph6(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise FormatError("empty graph6 string")
    # every character is in "?".."~" when deleting those leaves nothing
    data = s.encode("ascii") if s.isascii() else None
    if data is None or data.translate(None, _GRAPH6_BYTES):
        # whitespace anywhere is reported before the first character out of range
        if any(ch.isspace() for ch in s):
            raise FormatError("unexpected whitespace inside graph6 string")
        for ch in s:
            if not 63 <= ord(ch) <= 126:
                raise FormatError(f"graph6 character {ch!r} out of range")
    n, pos = _decode_count(s)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(s) - pos != need:
        raise FormatError(f"graph6 body has {len(s) - pos} characters, expected {need}")
    # bit k is the pair (u, v) of column v, which starts at k = v(v-1)/2;
    # the set bits come in increasing k, so the column only moves forward
    # and every neighbour list is filled in increasing order.  The groups
    # with a set bit are the 1s of marks, found in order by marks.find.
    # Column v ends at end = start + v, so one comparison keeps a bit in
    # its column, and only a bit at or past end can be padding
    adj: list[list[int]] = [[] for _ in range(n)]
    v, start, end = 1, 0, 1
    marks = data.translate(_MARK_SET_GROUPS)
    i = marks.find(1, pos)
    while i >= 0:
        first = 6 * (i - pos)
        for bit in _SET_BITS[data[i] - 63]:
            k = first + bit
            if k >= end:
                if k >= npairs:
                    break
                while k >= end:
                    start = end
                    v += 1
                    end += v
            u = k - start
            adj[u].append(v)
            adj[v].append(u)
        i = marks.find(1, i + 1)
    return Graph._from_rows(n, tuple(map(tuple, adj)))


def serialize_edgelist(graph: Graph) -> str:
    # one join per vertex u over the sorted neighbours above it: "\nu v1\nu v2..."
    # with each vertex number formatted once, in names
    names = list(map(str, range(graph.n)))
    rows = [str(graph.n)]
    for u, nbrs in enumerate(graph.adj):
        later = nbrs[bisect_right(nbrs, u):]
        if later:
            head = "\n" + names[u] + " "
            rows.append(head + head.join(map(names.__getitem__, later)))
    return "".join(rows) + "\n"


def _edge_line_error(message: str, parts: list[str], n: int) -> FormatError:
    """The error for a bad edge line: an index with more digits than any
    vertex count is out of range, and is named by its length, not echoed."""
    for part in parts:
        if _LONG_NUMBER.fullmatch(part):
            return FormatError(
                f"vertex index of {len(part)} characters out of range for {n} vertices")
    return FormatError(message)


def _edgelist_graph(n: int, us, vs) -> Graph | None:
    """The graph on n vertices with edges (us[i], vs[i]), which the caller
    has checked are in range, or None when a pair comes twice, either way
    round, or is a self-loop: each leaves a repeated entry in some row.
    The only place an edge-list reader allocates per-vertex storage."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us, vs):
        rows[u].append(v)
        rows[v].append(u)
    # empty rows skipped: a sparse count of 258047 vertices costs no sets
    if sum(map(len, map(set, filter(None, rows)))) != 2 * len(us):
        return None
    for row in rows:
        row.sort()
    return Graph._from_rows(n, tuple(map(tuple, rows)))


def _parse_writer_edgelist(text: str) -> Graph | None:
    """Read text in serialize_edgelist's shape with whole-text checks, or
    return None when the text has another shape or fails a check."""
    if not _WRITER_EDGELIST.fullmatch(text):
        return None
    try:
        numbers = json.loads("[" + text.rstrip("\n").replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:  # JSON refuses a zero-padded number
        numbers = list(map(int, text.split()))
    n = numbers[0]
    us, vs = numbers[1::2], numbers[2::2]
    if n > _MAX_COUNT or (us and max(max(us), max(vs)) >= n):
        return None
    return _edgelist_graph(n, us, vs)


def _parse_edgelist_lines(text: str) -> Graph:
    """Read any edge-list text line by line, raising the FormatError of its
    first fault."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise FormatError("empty edge list")
    if _LONG_NUMBER.fullmatch(rows[0]):
        raise FormatError(f"vertex count of {len(rows[0])} characters outside 0..{_MAX_COUNT}")
    try:
        n = int(rows[0])
    except ValueError:
        raise FormatError(f"first line must be the vertex count, got {rows[0]!r}") from None
    if not 0 <= n <= _MAX_COUNT:
        raise FormatError(f"vertex count {n} outside 0..{_MAX_COUNT}")
    seen = set()
    us, vs = [], []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _edge_line_error(f"non-integer vertex in {line!r}", parts, n) from None
        if u == v:
            raise _edge_line_error(f"self-loop {u} {v}", parts, n)
        if not (0 <= u < n and 0 <= v < n):
            raise _edge_line_error(f"vertex index out of range in {line!r}", parts, n)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        us.append(u)
        vs.append(v)
    return _edgelist_graph(n, us, vs)


def parse_edgelist(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    graph = _parse_writer_edgelist(text)
    return graph if graph is not None else _parse_edgelist_lines(text)


def detect_format(text: str | bytes) -> str:
    """Guess the format: an integer first line means edge list, else graph6.

    The first line of str.splitlines that is neither blank nor a comment
    decides.  One anchored match skips whitespace and "#" comments, each
    comment ending where str.splitlines ends a line, and then takes the
    rest of that line up to a comment only when its first character can
    begin an integer, a sign or a decimal digit: any other character
    decides for graph6 without reading on, so a graph6 line can be the
    whole text.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    line = _INTEGER_LINE.match(text)[1]
    if line is None:
        return "graph6"
    line = line.strip()
    if _LONG_NUMBER.fullmatch(line):
        return "edgelist"
    try:
        int(line)
        return "edgelist"
    except ValueError:
        return "graph6"


def parse_auto(text: str | bytes) -> Graph:
    if detect_format(text) == "edgelist":
        return parse_edgelist(text)
    return parse_graph6(text)
