"""Structural predicates used as hypotheses by the verification checks.

Covers the closed-neighborhood equivalence (two vertices are related when
N[x] = N[y]), S-thinness, the spanning-subgraph relation, traceability,
and the declared-prime flag for factors whose strong-product primality is
known rather than computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, closed_neighborhood, is_connected
from .symmetry import BudgetExceeded


@dataclass(frozen=True)
class SPartition:
    """Partition of the vertex set into maximal classes of equal closed neighborhoods."""

    classes: tuple[tuple[int, ...], ...]


def s_partition(graph: Graph) -> SPartition:
    """Group vertices by equality of closed neighborhoods."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for v in range(graph.n):
        buckets.setdefault(closed_neighborhood(graph, v), []).append(v)
    classes = sorted(tuple(sorted(c)) for c in buckets.values())
    return SPartition(tuple(classes))


def is_s_thin(graph: Graph) -> bool:
    """True iff no two vertices share a closed neighborhood."""
    return all(len(c) == 1 for c in s_partition(graph).classes)


def is_spanning_subgraph(h: Graph, g: Graph) -> bool:
    """True iff h has the same vertex set as g and its edges are a subset."""
    return h.n == g.n and set(h.edges) <= set(g.edges)


def hamiltonian_path_exists(graph: Graph, *, max_vertices: int = 16) -> bool:
    """Backtracking search for a Hamiltonian path.

    A vertex of degree 1 can only be an end of the path, so a graph with
    more than two of them has none, and with one or two the search starts
    from one of them only.  Otherwise every start is tried.  Candidates
    are tried in ascending-degree order, which keeps the search shallow on
    the structured instances this library targets; the result does not
    depend on the ordering.
    """
    n = graph.n
    if n > max_vertices:
        raise BudgetExceeded(
            f"graph has {n} vertices, above the Hamiltonian search bound {max_vertices}"
        )
    if n <= 1:
        return True
    if not is_connected(graph):
        return False
    deg = [graph.degree(v) for v in range(n)]
    nbrs = [sorted(graph.adj[v], key=lambda w: (deg[w], w)) for v in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    if len(leaves) > 2:
        return False
    visited = [False] * n
    for start in leaves[:1] or sorted(range(n), key=lambda v: (deg[v], v)):
        # the path so far, and the untried neighbours of each of its vertices
        visited[start] = True
        path = [start]
        untried = [iter(nbrs[start])]
        while untried:
            for w in untried[-1]:
                if not visited[w]:
                    if len(path) == n - 1:
                        return True
                    visited[w] = True
                    path.append(w)
                    untried.append(iter(nbrs[w]))
                    break
            else:
                untried.pop()
                visited[path.pop()] = False
    return False


def is_complete_graph(graph: Graph) -> bool:
    return graph.edge_count == graph.n * (graph.n - 1) // 2


def is_path_graph(graph: Graph) -> bool:
    if graph.n == 1:
        return True
    return (
        is_connected(graph)
        and graph.edge_count == graph.n - 1
        and max(graph.degree(v) for v in range(graph.n)) <= 2
    )


def is_cycle_graph(graph: Graph) -> bool:
    return (
        graph.n >= 3
        and is_connected(graph)
        and all(graph.degree(v) == 2 for v in range(graph.n))
    )


def is_tree(graph: Graph) -> bool:
    return graph.n >= 1 and is_connected(graph) and graph.edge_count == graph.n - 1


def declared_strong_prime(graph: Graph) -> bool:
    """Whether this graph is taken as prime with respect to the strong product.

    No factorization is attempted.  The flag is claimed only for families
    whose primality (with respect to both the strong and the Cartesian
    product) is forced structurally:

    - trees on at least two vertices: any strong or Cartesian product of
      two nontrivial connected graphs has more edges than a tree allows
      (strong products even contain triangles), and a disconnected factor
      would disconnect the product;
    - cycles of length at least five.

    Everything else returns False, meaning "not known prime", not
    "composite".
    """
    if graph.n >= 2 and is_tree(graph):
        return True
    if is_cycle_graph(graph) and graph.n >= 5:
        return True
    return False
