"""Cartesian, direct, and strong graph products and strong powers.

Product vertices are numbered row-major over the factor orders: a pair
(g, h) of a product of G and H becomes the single index g*|V(H)| + h, and
the left-associated k-fold power numbers k-tuples the same way.
"""

from __future__ import annotations

from .graph import Graph


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Product whose edges change exactly one coordinate along a factor edge."""
    if g.n == 0 or h.n == 0:
        raise ValueError("factors must be nonempty")
    nh = h.n
    edges = []
    for (u, v) in g.edges:
        for y in range(nh):
            edges.append((u * nh + y, v * nh + y))
    for x in range(g.n):
        for (y, z) in h.edges:
            edges.append((x * nh + y, x * nh + z))
    return Graph.from_edges(g.n * nh, edges)


def direct_product(g: Graph, h: Graph) -> Graph:
    """Product whose edges change both coordinates along factor edges."""
    if g.n == 0 or h.n == 0:
        raise ValueError("factors must be nonempty")
    nh = h.n
    edges = []
    for (u, v) in g.edges:
        for (y, z) in h.edges:
            edges.append((u * nh + y, v * nh + z))
            edges.append((u * nh + z, v * nh + y))
    return Graph.from_edges(g.n * nh, edges)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Union of the Cartesian and direct edge sets on the same vertex order."""
    box = cartesian_product(g, h)
    times = direct_product(g, h)
    return Graph.from_edges(box.n, list(box.edges) + list(times.edges))


def strong_power(g: Graph, k: int) -> Graph:
    """Left-associated k-fold strong product of g with itself."""
    if k < 1:
        raise ValueError("power must be at least 1")
    result = g
    for _ in range(k - 1):
        result = strong_product(result, g)
    return result
