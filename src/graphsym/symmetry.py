"""Automorphism groups and isomorphisms by one backtracking search.

A single iterative kernel extends a partial vertex map in vertex order,
testing each candidate image on degree and on adjacency with the images of
the vertex's earlier neighbours.  Isomorphisms and the full enumeration
walk it from the empty map.  ``automorphism_group`` walks a stabilizer
chain instead: for v = n-1 down to 0 it looks for one automorphism that
fixes 0..v-1 and maps v to w, for each possible w.  These coset
representatives multiply to every element exactly once, so their counts
give a lower bound on the group order as soon as they are found, and the
order budget is decided before any element is listed.  Under the budget
the elements are listed in full, as permutations in one-line image
notation (tuples) in lexicographic order, which keeps stabilizer checks
exact and simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graph import Graph

Permutation = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    """A configured size or enumeration bound was hit."""


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: the image of v is p[q[v]]."""
    return tuple(p[x] for x in q)


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for v, w in enumerate(p):
        inv[w] = v
    return tuple(inv)


def is_automorphism(graph: Graph, p: Permutation) -> bool:
    """True iff p maps edges to edges (and therefore non-edges to non-edges).

    Because p is a bijection, mapping every edge onto an edge already
    forces non-edges onto non-edges.
    """
    if len(p) != graph.n:
        raise ValueError("permutation length does not match vertex count")
    if sorted(p) != list(range(graph.n)):
        raise ValueError("not a permutation of the vertex set")
    nbr = graph.neighbor_sets
    return all(p[v] in nbr[p[u]] for u, v in graph.edges)


@dataclass(frozen=True)
class AutomorphismGroup:
    """Fully enumerated automorphism group of a graph on n vertices."""

    n: int
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


class _Matcher:
    """A map of g's vertices 0..depth-1 into h, extended in vertex order.

    An image w of the next vertex v must be unused, have v's degree, be
    adjacent to the image of every earlier neighbour of v, and have no other
    mapped neighbour: ``mapped[w]``, the count of mapped vertices adjacent
    to w that ``push`` and ``pop`` keep, must equal the number of those
    neighbours.  That is adjacency consistency with every mapped vertex,
    tested on v's earlier neighbours only.  Candidates come in increasing
    order, so completions come in lexicographic image order.
    """

    def __init__(self, g: Graph, h: Graph) -> None:
        n = g.n
        self.n = n
        self.h_adj = h.adj
        self.h_nbr = h.neighbor_sets
        self.g_deg = [len(a) for a in g.adj]
        self.h_deg = [len(a) for a in h.adj]
        self.earlier = [tuple(u for u in g.adj[v] if u < v) for v in range(n)]
        self.h_by_degree: dict[int, list[int]] = {}
        for w in range(n):
            self.h_by_degree.setdefault(self.h_deg[w], []).append(w)
        self.image = [-1] * n
        self.used = [False] * n
        self.mapped = [0] * n
        self.depth = 0

    def push(self, w: int) -> None:
        """Map the next vertex to w."""
        self.image[self.depth] = w
        self.used[w] = True
        mapped = self.mapped
        for x in self.h_adj[w]:
            mapped[x] += 1
        self.depth += 1

    def pop(self) -> None:
        """Undo the last push."""
        self.depth -= 1
        w = self.image[self.depth]
        self.used[w] = False
        mapped = self.mapped
        for x in self.h_adj[w]:
            mapped[x] -= 1

    def candidates(self) -> Iterator[int]:
        """The images that fit the next vertex, lazily and in increasing order."""
        image, used, mapped, h_deg, h_nbr = (
            self.image, self.used, self.mapped, self.h_deg, self.h_nbr)
        v = self.depth
        earlier = self.earlier[v]
        k, d = len(earlier), self.g_deg[v]
        # a fitting image is adjacent to the image of any earlier neighbour
        pool = self.h_adj[image[earlier[0]]] if earlier else self.h_by_degree.get(d, ())
        return (
            w for w in pool
            if not used[w] and mapped[w] == k and h_deg[w] == d
            and all(image[u] in h_nbr[w] for u in earlier)
        )

    def completions(self) -> Iterator[Permutation]:
        """Every full map extending the current one, in lexicographic image
        order: depth-first, with an explicit stack of candidate iterators."""
        n = self.n
        if self.depth == n:
            yield tuple(self.image)
            return
        stack = [self.candidates()]
        while stack:
            w = next(stack[-1], None)
            if w is None:
                stack.pop()
                if stack:
                    self.pop()
                continue
            self.push(w)
            if self.depth == n:
                yield tuple(self.image)
                self.pop()
            else:
                stack.append(self.candidates())

    def first(self) -> Optional[Permutation]:
        """The first completion of the current map, or None; the map is left
        as it was."""
        depth = self.depth
        found = next(self.completions(), None)
        while self.depth > depth:
            self.pop()
        return found


def _coset_representatives(graph: Graph) -> Iterator[tuple[int, Permutation]]:
    """Yield (v, p) for v = n-1 down to 0 and, in increasing order, each
    w != v for which some automorphism fixes 0..v-1 and maps v to w; p is the
    first such automorphism.

    With the identity, the p yielded for v are coset representatives of the
    stabilizer of 0..v in the stabilizer of 0..v-1.  Each existence search
    covers the part of the full search tree below the map (0..v-1 fixed,
    v -> w), and these parts are disjoint.  The deepest levels come first
    because their searches have the fewest free vertices: they are cheap,
    and the order they prove can end the walk before a shallow search runs.
    """
    m = _Matcher(graph, graph)
    for v in range(graph.n):
        m.push(v)
    for v in reversed(range(graph.n)):
        m.pop()
        for w in m.candidates():
            if w != v:
                m.push(w)
                p = m.first()
                m.pop()
                if p is not None:
                    yield v, p


def iter_automorphisms(graph: Graph) -> Iterator[Permutation]:
    """Yield every automorphism in lexicographic image order; the identity
    is always the first."""
    yield from _Matcher(graph, graph).completions()


def automorphism_group(
    graph: Graph,
    *,
    max_vertices: int = 20,
    max_order: Optional[int] = None,
) -> AutomorphismGroup:
    """Aut(graph), raising BudgetExceeded beyond the given bounds.

    The order budget is checked against the product of the coset
    representative counts found so far, a lower bound on the order, so an
    oversized group is rejected without listing its elements.
    """
    if graph.n > max_vertices:
        raise BudgetExceeded(
            f"graph has {graph.n} vertices, above the automorphism bound {max_vertices}"
        )
    ident = identity(graph.n)
    levels: dict[int, list[Permutation]] = {}
    order = 1
    for v, p in _coset_representatives(graph):
        reps = levels.setdefault(v, [ident])
        order = order // len(reps) * (len(reps) + 1)
        reps.append(p)
        if max_order is not None and order > max_order:
            raise BudgetExceeded(
                f"automorphism group larger than the order budget {max_order}"
            )
    # the stabilizer of 0..v-1 is {u p : u a representative for v, p in the
    # stabilizer of 0..v}; the levels were found deepest first
    elements = [ident]
    for reps in levels.values():
        elements = [compose(u, p) for u in reps for p in elements]
    elements.sort()
    return AutomorphismGroup(graph.n, tuple(elements))


def has_nontrivial_automorphism(graph: Graph, *, max_vertices: int = 20) -> bool:
    """True iff some non-identity automorphism exists; stops at the first."""
    if graph.n > max_vertices:
        raise BudgetExceeded(
            f"graph has {graph.n} vertices, above the automorphism bound {max_vertices}"
        )
    return next(_coset_representatives(graph), None) is not None


def group_equal(a: AutomorphismGroup, b: AutomorphismGroup) -> bool:
    """Set equality of the two element collections."""
    if a.n != b.n:
        raise ValueError("groups act on different vertex counts")
    return set(a.elements) == set(b.elements)


def find_isomorphism(g: Graph, h: Graph) -> Optional[Permutation]:
    """Backtracking search for a vertex bijection g -> h mapping edges onto edges.

    Returns the first isomorphism found (lexicographic image order) or None.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return None
    return _Matcher(g, h).first()


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
