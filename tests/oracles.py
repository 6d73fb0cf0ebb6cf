"""Independent brute-force oracles for cross-checking the library.

Everything here works straight from definitions with no pruning or shared
code paths: permutations come from itertools, labelings from full
cartesian enumeration.  The exceptions are former library code kept as
references, so that results can be compared exactly and not only in
value: reference_minimum, the generate-and-test labeling search, which
enumerates one labeling per palette renaming in the library's canonical
order; reference_automorphisms, the recursive enumerator that listed
every automorphism in lexicographic order; reference_preserving_row,
the linear stabilizer test that checks every row in list order;
reference_transposition_class_bound, the scan of every row for
transpositions that the labeling searches' lower bound came from;
reference_row_masks, the exhaustive search's table build, one row at a
time; reference_subgroup, the comparison of listed element sets that
the harness's subgroup and group-equality hypotheses used; reference_parse_graph6, the graph6 reader that stepped through
every character, whose error messages the library's reader must
reproduce; reference_validate, the Graph constructor's former validator,
which tested symmetry by scanning neighbour tuples; reference_from_edges,
the former Graph.from_edges, which handed its rows to the validating
constructor; reference_product, the former products built from edge
lists; reference_parse_edgelist, the former line-by-line edge-list
reader; reference_serialize_edgelist, the former edge-list writer, one
formatted line per edge, whose output the library's writer must
reproduce byte for byte; and reference_detect_format, the former format
guess, which split the whole text into lines.  The former readers and products build
their graphs through reference_from_edges, so every graph they return
passed the validator.
Deliberately slow and only usable on tiny graphs.
"""

from __future__ import annotations

import itertools
import random

from graphsym import FormatError, Graph
from graphsym.formats import _LONG_NUMBER, _MAX_COUNT, GRAPH6_HEADER, _decode_count


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All vertex permutations mapping edges to edges and non-edges to
    non-edges, by checking every pair under every permutation."""
    edges = set(g.edges)
    out = []
    for p in itertools.permutations(range(g.n)):
        ok = True
        for u in range(g.n):
            for v in range(u + 1, g.n):
                image = (min(p[u], p[v]), max(p[u], p[v]))
                if ((u, v) in edges) != (image in edges):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(p)
    return out


def vertex_rows(g: Graph) -> list[tuple[int, ...]]:
    """The non-identity automorphisms, as permutations of vertex positions."""
    return [p for p in brute_automorphisms(g) if p != tuple(range(g.n))]


def edge_rows(g: Graph) -> list[tuple[int, ...]]:
    """The non-identity automorphisms, as permutations of edge positions
    in the order of g.edges."""
    index = {e: i for i, e in enumerate(g.edges)}
    return [
        tuple(index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in g.edges)
        for p in vertex_rows(g)
    ]


def naive_distinguishing_number(g: Graph) -> int:
    """Smallest r for which some labeling in the full r**n space is
    preserved by no non-identity automorphism."""
    auts = vertex_rows(g)
    if not auts:
        return 1
    for r in range(2, g.n + 1):
        for labels in itertools.product(range(1, r + 1), repeat=g.n):
            if not any(all(labels[p[v]] == labels[v] for v in range(g.n)) for p in auts):
                return r
    raise AssertionError("distinct labels always distinguish")


def naive_distinguishing_index(g: Graph):
    """Edge analogue; returns None when no edge labeling is ever
    distinguishing (an automorphism fixes every edge)."""
    m = g.edge_count
    rows = edge_rows(g)
    if not rows:
        return 1
    if any(row == tuple(range(m)) for row in rows):
        return None
    for r in range(2, m + 1):
        for labels in itertools.product(range(1, r + 1), repeat=m):
            if not any(all(labels[row[i]] == labels[i] for i in range(m)) for row in rows):
                return r
    raise AssertionError("distinct labels always distinguish once the kernel is trivial")


def growth_strings(n: int, r: int):
    """Length-n label tuples using exactly the labels 1..r, first
    occurrences in increasing order (one canonical representative per
    palette renaming), in lexicographic order."""
    prefix: list[int] = []

    def extend(used: int):
        i = len(prefix)
        if i == n:
            if used == r:
                yield tuple(prefix)
            return
        for lab in range(1, min(used + 1, r) + 1):
            prefix.append(lab)
            yield from extend(max(used, lab))
            prefix.pop()

    yield from extend(0)


def reference_minimum(size: int, rows):
    """Generate and test: for r = 1, 2, ..., the first growth string that no
    row preserves.  Returns (r, labels), or None when some row fixes every
    position, so that no labeling distinguishes."""
    if any(row == tuple(range(size)) for row in rows):
        return None
    for r in range(1, size + 1):
        for labels in growth_strings(size, r):
            if not any(all(labels[row[i]] == labels[i] for i in range(size)) for row in rows):
                return r, labels
    raise AssertionError("distinct labels always distinguish")


def reference_preserving_row(labels, rows):
    """The first row (a permutation of label positions) preserving all labels, if any."""
    for row in rows:
        for i, lab in enumerate(labels):
            if labels[row[i]] != lab:
                break
        else:
            return row
    return None


def reference_transposition_class_bound(size: int, rows) -> int:
    """Size of the largest class of positions pairwise swapped by
    transposition rows, read off every row."""
    swapped = [1] * size
    for row in rows:
        # a transposition fixes one of any three positions: most rows fail at once
        if size > 2 and row[0] != 0 and row[1] != 1 and row[2] != 2:
            continue
        moved = [i for i, j in enumerate(row) if i != j]
        if len(moved) == 2:
            for i in moved:
                swapped[i] += 1
    return max(swapped, default=1)


def reference_row_masks(size: int, rows):
    """The library's former build of _exhaustive_minimum's tables, one row
    at a time: ties[k][j], j < k, the bitmask of the rows mapping j to k or
    k to j; settled[k], those whose largest moved position is k (0 for a
    row moving nothing)."""
    ties: list[dict[int, int]] = [{} for _ in range(size)]
    settled = [0] * size
    for t, row in enumerate(rows):
        bit = 1 << t
        last = 0
        for i, j in enumerate(row):
            if i != j:
                last = i
                hi, lo = max(i, j), min(i, j)
                ties[hi][lo] = ties[hi].get(lo, 0) | bit
        settled[last] |= bit
    return ties, settled


def reference_subgroup(a, b) -> bool:
    """Whether the automorphism group a lies in b, by their listed element
    sets, as the harness tested it before it tested generators; a equals
    b when each lies in the other."""
    return set(a.elements) <= set(b.elements)


def reference_parse_graph6(text: str | bytes) -> Graph:
    """The library's former graph6 reader, unchanged but for building through
    reference_from_edges: one loop over every character for each check and
    one over every six-bit group."""
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
    return reference_from_edges(n, edges)


def reference_from_edges(n, edges) -> Graph:
    """The library's former Graph.from_edges, unchanged but for its name: the
    rows go through the validating constructor."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def _reference_cartesian_edges(g: Graph, h: Graph) -> list[tuple[int, int]]:
    nh = h.n
    edges = [(u * nh + y, v * nh + y) for (u, v) in g.edges for y in range(nh)]
    edges += [(x * nh + y, x * nh + z) for x in range(g.n) for (y, z) in h.edges]
    return edges


def _reference_direct_edges(g: Graph, h: Graph) -> list[tuple[int, int]]:
    nh = h.n
    edges = []
    for (u, v) in g.edges:
        for (y, z) in h.edges:
            edges.append((u * nh + y, v * nh + z))
            edges.append((u * nh + z, v * nh + y))
    return edges


def reference_product(op: str, g: Graph, h: Graph) -> Graph:
    """The library's former "cartesian", "direct" or "strong" product, built
    from edge lists, unchanged but for taking op as an argument."""
    if g.n == 0 or h.n == 0:
        raise ValueError("factors must be nonempty")
    edges = []
    if op in ("cartesian", "strong"):
        edges += _reference_cartesian_edges(g, h)
    if op in ("direct", "strong"):
        edges += _reference_direct_edges(g, h)
    return reference_from_edges(g.n * h.n, edges)


def _reference_edge_line_error(message: str, parts: list[str], n: int) -> FormatError:
    for part in parts:
        if _LONG_NUMBER.fullmatch(part):
            return FormatError(
                f"vertex index of {len(part)} characters out of range for {n} vertices")
    return FormatError(message)


def reference_parse_edgelist(text: str | bytes) -> Graph:
    """The library's former edge-list reader, unchanged but for building
    through reference_from_edges: every line is split and checked in turn."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
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
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise _reference_edge_line_error(f"non-integer vertex in {line!r}", parts, n) from None
        if u == v:
            raise _reference_edge_line_error(f"self-loop {u} {v}", parts, n)
        if not (0 <= u < n and 0 <= v < n):
            raise _reference_edge_line_error(f"vertex index out of range in {line!r}", parts, n)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return reference_from_edges(n, edges)


def reference_serialize_edgelist(graph: Graph) -> str:
    """The library's former edge-list writer, unchanged but for its name: one
    f-string per edge of graph.edges."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def reference_detect_format(text: str | bytes) -> str:
    """The library's former detect_format, unchanged: every line of the
    text is split off before the first one is read."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if _LONG_NUMBER.fullmatch(line):
            return "edgelist"
        try:
            int(line)
            return "edgelist"
        except ValueError:
            return "graph6"
    return "graph6"


def reference_validate(n, adj) -> None:
    """The former ``Graph.__post_init__``, unchanged but for taking n and adj
    as arguments: raises the ValueError of the first failing check."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if len(adj) != n:
        raise ValueError("adjacency table length differs from vertex count")
    for v, nbrs in enumerate(adj):
        if list(nbrs) != sorted(set(nbrs)):
            raise ValueError(f"neighbour list of vertex {v} not sorted duplicate-free")
        for w in nbrs:
            if w == v:
                raise ValueError(f"self-loop at vertex {v}")
            if not 0 <= w < n:
                raise ValueError(f"neighbour {w} of vertex {v} out of range")
            if v not in adj[w]:
                raise ValueError(f"adjacency not symmetric for pair {v}, {w}")


def reference_automorphisms(graph: Graph):
    """The library's former automorphism enumerator, recursive and unchanged:
    every automorphism in lexicographic image order."""
    n = graph.n
    if n == 0:
        yield ()
        return
    nbr = graph.neighbor_sets
    deg = [graph.degree(v) for v in range(n)]
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(deg[v], []).append(v)

    image = [-1] * n
    used = [False] * n

    def extend(v: int):
        if v == n:
            yield tuple(image)
            return
        v_nbrs = nbr[v]
        for w in by_degree[deg[v]]:
            if used[w]:
                continue
            w_nbrs = nbr[w]
            ok = True
            for u in range(v):
                if (u in v_nbrs) != (image[u] in w_nbrs):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False

    yield from extend(0)


def reference_stable_partition(graph: Graph) -> list[list[int]]:
    """The coarsest equitable partition refining the degrees, by textbook
    colour refinement: each round colours v by its colour and the sorted
    colours of its neighbours, until a round splits no class.  The classes,
    each sorted, in order of their least vertex."""
    colour = [graph.degree(v) for v in range(graph.n)]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in graph.adj[v])))
                     for v in range(graph.n)]
        if len(set(signature)) == len(set(colour)):
            break
        names = {s: k for k, s in enumerate(set(signature))}
        colour = [names[s] for s in signature]
    classes: dict = {}
    for v, c in enumerate(colour):
        classes.setdefault(c, []).append(v)
    return list(classes.values())


def reference_hamiltonian_path(g: Graph) -> bool:
    """Exhaustive over vertex sets (Held and Karp): ends[s], a bitmask,
    holds every vertex at which some path through exactly the vertices of
    s ends."""
    n = g.n
    if n <= 1:
        return True
    nbrs = [sum(1 << w for w in g.adj[v]) for v in range(n)]
    ends = [0] * (1 << n)
    for v in range(n):
        ends[1 << v] = 1 << v
    for s in range(1, 1 << n):
        for v in range(n):
            if ends[s] >> v & 1:
                for w in range(n):
                    if (nbrs[v] & ~s) >> w & 1:
                        ends[s | 1 << w] |= 1 << w
    return ends[-1] != 0


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    h_edges = set(h.edges)
    for p in itertools.permutations(range(g.n)):
        if all((min(p[u], p[v]), max(p[u], p[v])) in h_edges for u, v in g.edges):
            return True
    return False


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices (use only for n <= 5)."""
    from graphsym import is_connected

    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def connected_graph_sample(n: int, count: int, seed: int = 0):
    """Fixed pseudo-random sample of labeled connected graphs on n vertices."""
    from graphsym import is_connected

    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    while len(out) < count:
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            out.append(g)
    return out
