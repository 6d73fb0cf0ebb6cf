import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    Graph,
    cartesian_product,
    complete,
    cycle,
    direct_product,
    is_connected,
    is_isomorphic,
    path,
    strong_power,
    strong_product,
)

FACTORS = [path(2), path(3), path(4), cycle(3), cycle(4), complete(2), complete(3)]


def test_cartesian_counts_and_identities():
    k1 = complete(1)
    for g in (path(3), cycle(4), complete(3)):
        assert is_isomorphic(cartesian_product(k1, g), g)
        assert cartesian_product(g, k1) == g  # flattening with a trivial right factor
    assert is_isomorphic(cartesian_product(path(2), path(2)), cycle(4))
    p33 = cartesian_product(path(3), path(3))
    assert p33.n == 9 and p33.edge_count == 12


def test_direct_counts():
    d = direct_product(complete(2), complete(2))
    assert d.n == 4 and d.edge_count == 2 and not is_connected(d)
    assert direct_product(complete(1), path(4)).edge_count == 0
    assert direct_product(path(3), path(3)).edge_count == 8


def test_strong_counts_and_identities():
    assert is_isomorphic(strong_product(complete(2), complete(2)), complete(4))
    for g in FACTORS:
        assert strong_product(g, complete(1)) == g
    p = strong_product(path(3), path(3))
    assert p.n == 9 and p.edge_count == 20


def test_edge_count_formulas():
    for g in FACTORS:
        for h in FACTORS:
            mg, ng, mh, nh = g.edge_count, g.n, h.edge_count, h.n
            assert cartesian_product(g, h).edge_count == mg * nh + ng * mh
            assert direct_product(g, h).edge_count == 2 * mg * mh
            assert strong_product(g, h).edge_count == mg * nh + ng * mh + 2 * mg * mh


def test_commutativity_up_to_isomorphism():
    for g in FACTORS:
        for h in FACTORS:
            if g.n * h.n > 12:
                continue
            assert is_isomorphic(cartesian_product(g, h), cartesian_product(h, g))
            assert is_isomorphic(direct_product(g, h), direct_product(h, g))
            assert is_isomorphic(strong_product(g, h), strong_product(h, g))


def test_strong_edges_partition():
    for g, h in [(path(3), path(4)), (cycle(4), complete(3)), (path(2), cycle(5))]:
        box = set(cartesian_product(g, h).edges)
        times = set(direct_product(g, h).edges)
        strong = set(strong_product(g, h).edges)
        assert box | times == strong
        assert not box & times


def test_strong_degree_formula():
    for g, h in [(path(3), path(4)), (cycle(5), complete(3)), (path(2), path(2))]:
        p = strong_product(g, h)
        for x in range(g.n):
            for y in range(h.n):
                expected = (g.degree(x) + 1) * (h.degree(y) + 1) - 1
                assert p.degree(x * h.n + y) == expected


def test_strong_power():
    assert is_isomorphic(strong_power(complete(2), 2), complete(4))
    assert strong_power(path(5), 1) == path(5)
    assert strong_power(path(3), 2) == strong_product(path(3), path(3))
    with pytest.raises(ValueError):
        strong_power(path(3), 0)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, picks)


def edges_by_definition(factors, adjacent):
    """Edges of a product on row-major coordinate tuples: two distinct tuples
    are adjacent when adjacent(equal, joined) holds for their per-coordinate
    lists of "same vertex" and "factor edge" flags."""
    tuples = list(itertools.product(*(range(f.n) for f in factors)))
    edges = set()
    for (i, a), (j, b) in itertools.combinations(enumerate(tuples), 2):
        equal = [x == y for x, y in zip(a, b)]
        joined = [f.has_edge(x, y) for f, x, y in zip(factors, a, b)]
        if adjacent(equal, joined):
            edges.add((i, j))
    return edges


def cartesian_rule(equal, joined):
    return sum(joined) == 1 and sum(equal) == len(equal) - 1


def direct_rule(equal, joined):
    return all(joined)


def strong_rule(equal, joined):
    return all(e or j for e, j in zip(equal, joined))


@settings(max_examples=60, deadline=None)
@given(small_graphs(), small_graphs())
def test_products_match_the_definitions(g, h):
    # (x, y) is vertex x*|V(H)| + y, and a k-fold power numbers k-tuples the same way
    assert set(cartesian_product(g, h).edges) == edges_by_definition([g, h], cartesian_rule)
    assert set(direct_product(g, h).edges) == edges_by_definition([g, h], direct_rule)
    assert set(strong_product(g, h).edges) == edges_by_definition([g, h], strong_rule)
    assert set(strong_power(g, 3).edges) == edges_by_definition([g, g, g], strong_rule)
