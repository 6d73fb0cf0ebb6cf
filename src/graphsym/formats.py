"""graph6 and edge-list serialization.

graph6 is the standard ASCII encoding: a vertex-count header followed by
the upper triangle of the adjacency matrix packed into 6-bit groups, each
offset by 63.  The optional ``>>graph6<<`` prefix is accepted on input.

The edge-list format is line oriented: the first non-comment line is the
vertex count, every following line is ``u v`` with 0-based indices, and
``#`` starts a comment.
"""

from __future__ import annotations

from .graph import Graph

GRAPH6_HEADER = ">>graph6<<"
# the largest vertex count graph6 encodes in one "~" header; edge lists share it
_MAX_COUNT = 258047


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
    if any(ch.isspace() for ch in s):
        raise FormatError("unexpected whitespace inside graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"graph6 character {ch!r} out of range")
    n, pos = _decode_count(s)
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    body = s[pos:]
    if len(body) != need:
        raise FormatError(f"graph6 body has {len(body)} characters, expected {need}")
    # bit k is the pair (u, v) of column v, which starts at k = v(v-1)/2;
    # the set bits come in increasing k, so the column only moves forward
    edges = []
    v, start = 1, 0
    for i, c in enumerate(body):
        group = ord(c) - 63
        if not group:
            continue
        for bit in range(6):
            if (group >> (5 - bit)) & 1:
                k = 6 * i + bit
                if k >= npairs:
                    break
                while k >= start + v:
                    start += v
                    v += 1
                edges.append((k - start, v))
    return Graph.from_edges(n, edges)


def serialize_edgelist(graph: Graph) -> str:
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise FormatError("empty edge list")
    try:
        n = int(rows[0])
    except ValueError:
        raise FormatError(f"first line must be the vertex count, got {rows[0]!r}") from None
    if not 0 <= n <= _MAX_COUNT:
        raise FormatError(f"vertex count {n} outside 0..{_MAX_COUNT}")
    seen = set()
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer vertex in {line!r}") from None
        if u == v:
            raise FormatError(f"self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex index out of range in {line!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(n, edges)


def serialize(graph: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return serialize_graph6(graph)
    if fmt == "edgelist":
        return serialize_edgelist(graph)
    raise ValueError(f"unknown format {fmt!r}")


def parse(text: str | bytes, fmt: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ValueError(f"unknown format {fmt!r}")


def detect_format(text: str | bytes) -> str:
    """Guess the format: an integer first line means edge list, else graph6."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            int(line)
            return "edgelist"
        except ValueError:
            return "graph6"
    return "graph6"


def parse_auto(text: str | bytes) -> Graph:
    return parse(text, detect_format(text))
