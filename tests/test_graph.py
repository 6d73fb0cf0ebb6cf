import pytest

from graphsym import (
    Graph,
    closed_neighborhood,
    complete,
    cycle,
    is_connected,
    path,
)


def corpus():
    graphs = [path(n) for n in range(1, 9)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [complete(n) for n in range(1, 6)]
    return graphs


def test_path_small():
    assert path(1).n == 1 and path(1).edge_count == 0
    assert path(2).edges == ((0, 1),)
    p4 = path(4)
    assert set(p4.edges) == {(0, 1), (1, 2), (2, 3)}
    assert [p4.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_cycle():
    assert cycle(3).edge_count == 3
    c5 = cycle(5)
    assert c5.edge_count == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert is_connected(c5)
    c6 = cycle(6)
    assert c6.edge_count == 6
    # bipartite: ends of every edge have opposite parity
    assert all((u + v) % 2 == 1 for u, v in c6.edges)
    with pytest.raises(ValueError):
        cycle(2)


def test_complete():
    assert complete(1).edge_count == 0
    assert complete(4).edge_count == 6
    k5 = complete(5)
    assert all(k5.degree(v) == 4 for v in range(5))


def test_closed_neighborhood():
    assert closed_neighborhood(path(3), 1) == (0, 1, 2)
    k4 = complete(4)
    for v in range(4):
        assert closed_neighborhood(k4, v) == (0, 1, 2, 3)
    assert closed_neighborhood(cycle(5), 0) == (0, 1, 4)
    with pytest.raises(ValueError):
        closed_neighborhood(path(3), 3)


def test_is_connected():
    assert is_connected(path(5))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(complete(1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, ((1, 1), (0, 0)))  # duplicates


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))


def test_invariants_hold_on_corpus():
    for g in corpus():
        degree_sum = sum(g.degree(v) for v in range(g.n))
        assert degree_sum % 2 == 0
        assert g.edge_count == degree_sum // 2
        for v in range(g.n):
            assert list(g.adj[v]) == sorted(set(g.adj[v]))
            for w in g.adj[v]:
                assert v in g.adj[w] and w != v


def test_graph_equality_and_hash():
    assert path(3) == path(3)
    assert path(3) != cycle(3)
    assert len({path(3), path(3), cycle(3)}) == 2
