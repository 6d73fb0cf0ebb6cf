import pytest

from graphsym import (
    BudgetExceeded,
    Graph,
    automorphism_group,
    cartesian_product,
    complete,
    cycle,
    declared_strong_prime,
    direct_product,
    hamiltonian_path_exists,
    is_automorphism,
    is_complete_graph,
    is_cycle_graph,
    is_path_graph,
    is_s_thin,
    is_spanning_subgraph,
    is_tree,
    path,
    s_partition,
    strong_product,
)
from oracles import all_connected_graphs, connected_graph_sample, naive_hamiltonian_path

SPIDER7 = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def test_s_partition_examples():
    assert s_partition(complete(4)).classes == ((0, 1, 2, 3),)
    assert s_partition(path(2)).classes == ((0, 1),)
    assert s_partition(path(4)).classes == ((0,), (1,), (2,), (3,))


def test_s_partition_is_a_partition():
    for g in (path(5), cycle(6), complete(4), strong_product(path(2), path(3))):
        classes = s_partition(g).classes
        covered = sorted(v for c in classes for v in c)
        assert covered == list(range(g.n))


def test_is_s_thin():
    assert is_s_thin(path(3))
    for n in range(2, 6):
        assert not is_s_thin(complete(n))
    assert is_s_thin(cycle(5))
    assert is_s_thin(cycle(4))
    # equivalent formulation: the closed-neighborhood map is injective
    from graphsym import closed_neighborhood
    for g in (path(4), cycle(5), complete(3), SPIDER7):
        neighborhoods = [closed_neighborhood(g, v) for v in range(g.n)]
        assert is_s_thin(g) == (len(set(neighborhoods)) == g.n)


def test_spanning_subgraph():
    g, h = path(3), path(4)
    strong = strong_product(g, h)
    assert is_spanning_subgraph(cartesian_product(g, h), strong)
    assert is_spanning_subgraph(direct_product(g, h), strong)
    assert not is_spanning_subgraph(cycle(4), cartesian_product(path(2), path(3)))


def test_subgroup_members_map_subgraph_edges_to_subgraph_edges():
    g = strong_product(path(3), path(4))
    h = cartesian_product(path(3), path(4))
    assert is_spanning_subgraph(h, g)
    h_edges = set(h.edges)
    for a in automorphism_group(g).elements:
        assert is_automorphism(h, a)
        for u, v in h.edges:
            assert (min(a[u], a[v]), max(a[u], a[v])) in h_edges


def test_hamiltonian_path():
    for n in range(1, 9):
        assert hamiltonian_path_exists(path(n))
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not hamiltonian_path_exists(two_triangles)
    assert hamiltonian_path_exists(strong_product(path(3), path(3)))
    with pytest.raises(BudgetExceeded):
        hamiltonian_path_exists(path(17))
    assert hamiltonian_path_exists(path(17), max_vertices=17)


def test_hamiltonian_oracle_agreement():
    for n in range(2, 8):
        for g in connected_graph_sample(n, 12, seed=n):
            assert hamiltonian_path_exists(g) == naive_hamiltonian_path(g)
    # every connected graph on 5 vertices, so every number of degree-1 vertices
    for g in all_connected_graphs(5):
        assert hamiltonian_path_exists(g) == naive_hamiltonian_path(g)
    # a few disconnected ones as well
    assert not hamiltonian_path_exists(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_family_recognizers():
    assert is_path_graph(path(1)) and is_path_graph(path(5))
    assert not is_path_graph(cycle(4))
    assert is_cycle_graph(cycle(3)) and not is_cycle_graph(path(3))
    assert is_complete_graph(complete(4)) and is_complete_graph(path(2))
    assert is_tree(SPIDER7) and not is_tree(cycle(5))


def test_declared_strong_prime():
    for g in (path(3), path(4), path(6), cycle(5), cycle(7), SPIDER7, path(2)):
        assert declared_strong_prime(g)
    # not declared: complete graphs (K4 factors as a strong product),
    # short cycles, and anything not structurally recognized
    for g in (complete(3), complete(4), cycle(3), cycle(4),
              strong_product(path(2), path(2))):
        assert not declared_strong_prime(g)
