"""Simple undirected graphs on dense integer vertices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``.  Instances are
    immutable (safe to share and to use as dict keys) and are validated on
    construction: no self-loops, symmetric adjacency, sorted duplicate-free
    neighbour lists.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length differs from vertex count")
        for v, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbour list of vertex {v} not sorted duplicate-free")
            for w in nbrs:
                if w == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if not 0 <= w < self.n:
                    raise ValueError(f"neighbour {w} of vertex {v} out of range")
                if v not in self.adj[w]:
                    raise ValueError(f"adjacency not symmetric for pair {v}, {w}")

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
        return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))

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
    """True iff a single traversal component covers every vertex."""
    if graph.n <= 1:
        return True
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
