"""Cartesian, direct, and strong graph products and strong powers.

Product vertices are numbered row-major over the factor orders: a pair
(g, h) of a product of G and H becomes the single index g*|V(H)| + h, and
the left-associated k-fold power numbers k-tuples the same way.

Rows come from closed neighbourhoods: row (x, y) of the strong product is
N[x] × N[y] without (x, y), of the direct product N(x) × N(y), and of the
Cartesian product N(x) × {y} with {x} × N(y).  Each a in N[x] owns a block
of |V(H)| indices, so every row is sorted as built and goes to the graph
with no edge list and no re-validation.
"""

from __future__ import annotations

from .graph import Graph, closed_neighborhood


def _product(g: Graph, h: Graph, g_rows, same, other) -> Graph:
    """The graph whose row (x, y) is a*|V(H)| + b for a in g_rows[x], in
    increasing order, and b in same[y] when a == x, else in other[y]."""
    if g.n == 0 or h.n == 0:
        raise ValueError("factors must be nonempty")
    nh = h.n
    rows = tuple(tuple([a * nh + b for a in nx for b in (same[y] if a == x else other[y])])
                 for x, nx in enumerate(g_rows) for y in range(nh))
    return Graph._from_rows(g.n * nh, rows)


def _closed(graph: Graph) -> list[tuple[int, ...]]:
    return [closed_neighborhood(graph, v) for v in range(graph.n)]


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Product whose edges change exactly one coordinate along a factor edge."""
    return _product(g, h, _closed(g), h.adj, [(y,) for y in range(h.n)])


def direct_product(g: Graph, h: Graph) -> Graph:
    """Product whose edges change both coordinates along factor edges."""
    return _product(g, h, g.adj, h.adj, h.adj)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Union of the Cartesian and direct edge sets on the same vertex order."""
    return _product(g, h, _closed(g), h.adj, _closed(h))


def strong_power(g: Graph, k: int) -> Graph:
    """Left-associated k-fold strong product of g with itself."""
    if k < 1:
        raise ValueError("power must be at least 1")
    result = g
    for _ in range(k - 1):
        result = strong_product(result, g)
    return result
