"""Structural predicates used as hypotheses by the verification checks.

Covers the closed-neighborhood equivalence (two vertices are related when
N[x] = N[y]), S-thinness, the spanning-subgraph relation, traceability,
and the declared-prime flag for factors whose strong-product primality is
known rather than computed.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter

from .graph import Graph, _Frozen, is_connected
from .symmetry import BudgetExceeded


class SPartition(_Frozen):
    """Partition of the vertex set into maximal classes of equal closed neighborhoods."""

    def __init__(self, classes: tuple[tuple[int, ...], ...]) -> None:
        self.__dict__.update(classes=classes)


def s_partition(graph: Graph) -> SPartition:
    """Group vertices by equality of closed neighborhoods.

    N[v] is v inserted into its neighbour row, which is already sorted.
    Vertices are visited in increasing order, so each class lists its
    vertices in increasing order and the classes come in order of their
    least vertex, which is the sorted order of the classes."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for v, row in enumerate(graph.adj):
        i = bisect(row, v)
        buckets.setdefault(row[:i] + (v,) + row[i:], []).append(v)
    return SPartition(tuple(map(tuple, buckets.values())))


def _largest_twin_class(graph: Graph) -> int:
    """Size of the largest class of pairwise twins, 1 when there are none.

    Two vertices i, j are twins when N(i) \\ {j} = N(j) \\ {i}, which is
    exactly when the transposition (i j) is an automorphism.  Adjacent
    twins have equal closed neighbourhoods, non-adjacent twins equal open
    ones, and no vertex has twins of both kinds: an adjacent twin j and a
    non-adjacent twin k of i would give j in N(i) = N(k), so k in N[j] =
    N[i], and k would be adjacent to i.  So the classes are those of equal
    closed neighbourhoods and those of equal open ones, and both are read
    from the neighbour rows in O(n + m).
    """
    closed = max(map(len, s_partition(graph).classes), default=1)
    return max(closed, max(Counter(graph.adj).values(), default=1))


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

    Dead ends are cut: the rest of the path runs through the unvisited
    vertices from the path's end, so each unvisited vertex needs two
    neighbours among them and the end, or one if it ends the path.  A
    branch fails when some unvisited vertex has none, or when more than
    one has fewer than two.
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
    adj = graph.adj
    deg = [graph.degree(v) for v in range(n)]
    nbrs = [sorted(graph.adj[v], key=lambda w: (deg[w], w)) for v in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    if len(leaves) > 2:
        return False
    visited = [False] * n
    for start in leaves[:1] or sorted(range(n), key=lambda v: (deg[v], v)):
        # the path so far, and the untried neighbours of each of its vertices;
        # free[u]: u's neighbours that are unvisited or the path's end, and
        # short: the unvisited vertices with fewer than two of them
        visited[start] = True
        path = [start]
        untried = [iter(nbrs[start])]
        free = deg[:]
        short = len(leaves) - (deg[start] == 1)
        while untried:
            for w in untried[-1]:
                if not visited[w]:
                    if len(path) == n - 1:
                        return True
                    visited[w] = True
                    short -= free[w] < 2
                    dead = False
                    for x in adj[path[-1]]:
                        free[x] -= 1
                        if not visited[x] and free[x] < 2:
                            if free[x]:
                                short += 1
                            else:
                                dead = True
                    path.append(w)
                    # a dead end is entered with nothing to try, and left at once
                    untried.append(iter(() if dead or short > 1 else nbrs[w]))
                    break
            else:
                untried.pop()
                w = path.pop()
                if path:
                    for x in adj[path[-1]]:
                        if not visited[x] and free[x] == 1:
                            short -= 1
                        free[x] += 1
                    short += free[w] < 2
                visited[w] = False
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
