"""Simple undirected graphs on dense integer vertices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``.  Instances are
    immutable (safe to share and to use as dict keys).  The public
    constructor ``Graph(n, adj)`` validates the table in full: no
    self-loops, symmetric adjacency, sorted duplicate-free neighbour lists.
    Symmetry is tested against ``neighbor_sets``, which the check fills and
    caches, so validation costs time linear in the table.  The package's
    own builders hand over rows that are valid by construction and skip
    that check through ``Graph._from_rows``: ``Graph.from_edges`` (its
    range and self-loop checks and per-vertex sets make the rows valid),
    the strong, Cartesian and direct products (rows come from closed
    neighbourhoods in row-major order), ``parse_graph6`` (set bits arrive
    in column order) and ``parse_edgelist`` (after its own range,
    self-loop and duplicate checks).
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    # not fields, so outside eq, hash and repr: what
    # symmetry.automorphism_group proved about this object, set there on
    # first use, the labeling chains distinguishing._chain builds on that
    # group, and the hash of (n, adj), set by __hash__ on first use
    _aut = None
    _chains = None
    _hash = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length differs from vertex count")
        nbr = self.neighbor_sets
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbour list of vertex {v} not sorted duplicate-free")
            for w in nbrs:
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 0 <= w < self.n:
                    raise ValueError(f"neighbour {w} of vertex {v} out of range")
                if v not in nbr[w]:
                    raise ValueError(f"adjacency not symmetric for pair {v}, {w}")

    def __hash__(self) -> int:
        """hash((n, adj)), as the dataclass would compute it, computed once:
        the run's caches hash the same graphs many times."""
        h = self._hash
        if h is None:
            h = hash((self.n, self.adj))
            object.__setattr__(self, "_hash", h)
        return h

    @classmethod
    def _from_rows(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph on n >= 0 vertices whose rows the caller guarantees are
        sorted, duplicate-free, loop-free, in range and symmetric; unchecked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "adj", adj)
        return graph

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on n vertices from (u, v) pairs; duplicates collapse."""
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        # after the edges, so that the first error is the constructor's: with
        # n < 0 any edge is out of range, and only an empty edge set gets here
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return Graph._from_rows(n, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        return tuple((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]


def path(n: int) -> Graph:
    """The path P_n with edges {i, i+1}."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """The cycle C_n; requires n >= 3."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def closed_neighborhood(graph: Graph, v: int) -> tuple[int, ...]:
    """N[v]: the vertex v together with all its neighbours, sorted."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range")
    return tuple(sorted((v, *graph.adj[v])))


def is_connected(graph: Graph) -> bool:
    """True iff the graph has exactly one component: a single traversal
    covers every vertex, and the null graph, which has none, is not connected."""
    if graph.n <= 1:
        return graph.n == 1
    seen = [False] * graph.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in graph.adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == graph.n
