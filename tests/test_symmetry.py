import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest

import graphsym.distinguishing
from graphsym import (
    BudgetExceeded,
    Graph,
    automorphism_group,
    cartesian_product,
    complete,
    compose,
    cycle,
    default_corpus,
    direct_product,
    find_isomorphism,
    group_equal,
    has_nontrivial_automorphism,
    identity,
    inverse,
    is_automorphism,
    is_isomorphic,
    iter_automorphisms,
    path,
    run_all,
    strong_product,
)
from oracles import brute_automorphisms, reference_automorphisms
from test_acceptance import criterion

# The caterpillar tree on 6 vertices: reversing the spine (0<->4, 1<->3)
# and fixing the leaf 5 is an automorphism, so it is not asymmetric.
CATERPILLAR6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])

# Spider with legs of lengths 1, 2, 3 from vertex 0: the smallest kind of
# asymmetric tree (7 vertices).
SPIDER7 = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def test_permutation_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse(p)) == identity(3)
    assert inverse(inverse(p)) == p


def test_is_automorphism_examples():
    p4 = path(4)
    assert is_automorphism(p4, identity(4))
    assert is_automorphism(p4, (3, 2, 1, 0))
    # swapping an endpoint with the middle of P3 breaks degrees
    assert not is_automorphism(path(3), (1, 0, 2))
    with pytest.raises(ValueError):
        is_automorphism(p4, (0, 1, 2))
    with pytest.raises(ValueError):
        is_automorphism(p4, (0, 0, 1, 2))


def test_group_orders_of_families():
    for n in range(2, 8):
        assert automorphism_group(path(n)).order == 2
    for n in range(3, 8):
        assert automorphism_group(cycle(n)).order == 2 * n
    for n in range(1, 6):
        assert automorphism_group(complete(n)).order == math.factorial(n)
    # a self-product additionally has the factor swap
    assert automorphism_group(strong_product(path(3), path(3))).order == 8


def test_group_matches_naive_enumeration():
    for g in (path(4), cycle(5), complete(4), CATERPILLAR6, SPIDER7,
              strong_product(path(3), path(2))):
        assert list(automorphism_group(g).elements) == brute_automorphisms(g)


def test_group_axioms():
    for g in (path(5), cycle(6), complete(4), complete(5),
              strong_product(path(3), path(3))):
        group = automorphism_group(g)
        elements = set(group.elements)
        assert identity(g.n) in elements
        for a in group.elements:
            assert inverse(a) in elements
            for b in group.elements:
                assert compose(a, b) in elements


def test_elements_sorted_and_degree_preserving():
    for g in (cycle(6), complete(4), strong_product(path(3), path(4))):
        group = automorphism_group(g)
        assert list(group.elements) == sorted(group.elements)
        for a in group.elements:
            for v in range(g.n):
                assert g.degree(v) == g.degree(a[v])


def test_has_nontrivial_automorphism():
    assert has_nontrivial_automorphism(path(2))
    assert not has_nontrivial_automorphism(complete(1))
    # oracle-verified: the 6-vertex caterpillar has a reversal automorphism
    assert has_nontrivial_automorphism(CATERPILLAR6)
    assert len(brute_automorphisms(CATERPILLAR6)) == 2
    # and the 7-vertex spider is asymmetric
    assert not has_nontrivial_automorphism(SPIDER7)
    assert len(brute_automorphisms(SPIDER7)) == 1


def test_group_equal():
    a = automorphism_group(strong_product(path(3), path(4)))
    b = automorphism_group(cartesian_product(path(3), path(4)))
    assert group_equal(a, b)
    k4, c4 = automorphism_group(complete(4)), automorphism_group(cycle(4))
    assert not group_equal(k4, c4)
    assert group_equal(k4, k4)
    with pytest.raises(ValueError):
        group_equal(k4, automorphism_group(path(3)))


def test_budget_errors():
    with pytest.raises(BudgetExceeded):
        automorphism_group(path(21))
    with pytest.raises(BudgetExceeded):
        automorphism_group(complete(8), max_order=100)
    assert automorphism_group(path(24), max_vertices=24).order == 2


def test_layer_preservation_on_sthin_products():
    # every product automorphism maps each first-factor layer onto one
    for g, h in [(path(3), path(4)), (path(3), cycle(5))]:
        product = strong_product(g, h)
        layers = [frozenset(x * h.n + y for x in range(g.n)) for y in range(h.n)]
        group = automorphism_group(product)
        for a in group.elements:
            for lay in layers:
                assert frozenset(a[v] for v in lay) in layers
        # with non-isomorphic factors the group order factors over the sides
        expected = automorphism_group(g).order * automorphism_group(h).order
        assert group.order == expected


def test_find_isomorphism():
    iso = find_isomorphism(cartesian_product(path(2), path(2)), cycle(4))
    assert iso is not None
    assert is_isomorphic(complete(4), strong_product(path(2), path(2)))
    assert not is_isomorphic(path(4), cycle(4))
    assert not is_isomorphic(complete(3), path(3))
    # a found isomorphism really maps edges onto edges
    g, h = cycle(6), Graph.from_edges(6, [((i + 2) % 6, (i + 3) % 6) for i in range(6)])
    p = find_isomorphism(g, h)
    edge_set = set(h.edges)
    assert all((min(p[u], p[v]), max(p[u], p[v])) in edge_set for u, v in g.edges)


def _labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def _small_graphs():
    """Every labeled graph on at most 5 vertices, and one labeling of every
    graph on 6 vertices (the networkx atlas), connected or not."""
    nx = pytest.importorskip("networkx")
    for n in range(6):
        yield from _labeled_graphs(n)
    for a in nx.graph_atlas_g():
        if a.number_of_nodes() == 6:
            yield Graph.from_edges(6, a.edges())


def _random_graphs(count=200, seed=3):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        p = rng.uniform(0.1, 0.9)
        yield Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def _assert_matches_reference(g):
    expected = tuple(reference_automorphisms(g))
    assert automorphism_group(g).elements == expected, g
    assert tuple(iter_automorphisms(g)) == expected, g
    assert has_nontrivial_automorphism(g) == (len(expected) > 1), g


def test_matches_reference_enumerator_on_all_small_graphs():
    for g in _small_graphs():
        _assert_matches_reference(g)


def test_matches_reference_enumerator_on_random_graphs():
    for g in _random_graphs():
        _assert_matches_reference(g)


def test_matches_reference_enumerator_on_corpus_groups(monkeypatch):
    # record every group the harness builds within its budgets; every run_all
    # call starts from an empty memo
    built = {}

    def recording(graph, **kwargs):
        group = automorphism_group(graph, **kwargs)
        built[graph] = group
        return group

    # the harness builds every group through distinguishing._group_of
    monkeypatch.setattr(graphsym.distinguishing, "automorphism_group", recording)
    run_all(default_corpus())
    assert len(built) > 50
    for g, group in built.items():
        assert group.elements == tuple(reference_automorphisms(g)), g


def test_order_budget_boundary():
    g = strong_product(path(4), cycle(3))
    assert automorphism_group(g, max_order=2592).order == 2592
    with pytest.raises(BudgetExceeded) as exc:
        automorphism_group(g, max_order=2591)
    assert str(exc.value) == "automorphism group larger than the order budget 2591"


def test_oversized_groups_are_rejected_without_enumeration():
    # |Aut| is 8 * 5!^4, 10 * 4!^5 and 8 * 4!^4: the order budget is decided
    # from the coset representatives, long before 10001 elements are listed
    for g in (strong_product(complete(5), cycle(4)), strong_product(complete(4), cycle(5)),
              strong_product(complete(4), cycle(4))):
        with criterion(14, 1, f"order budget decided on an over-budget group ({g.n} vertices)"):
            with pytest.raises(BudgetExceeded) as exc:
                automorphism_group(g, max_order=10000)
        assert str(exc.value) == "automorphism group larger than the order budget 10000"


def test_mapped_neighbour_count_prunes_early():
    # K2 x P8 is two disjoint paths whose first eight vertices are pairwise
    # non-adjacent; without the count of mapped neighbours a wrong image is
    # only rejected near the leaves, which takes about 20 s here
    g = direct_product(complete(2), path(8))
    with criterion(15, 1, "Aut(K2 x P8), a disconnected direct product"):
        assert automorphism_group(g).order == 8


def test_group_order_matches_networkx_on_query_products():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    # the benchmark's query-mix product sample, read from its input generator
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    checked = 0
    for k1, a, op, k2, b in inputs.product_catalogue()[::inputs.PRODUCT_STRIDE]:
        n = a * b
        edges = inputs.product_edges(op, a, inputs.factor_edges(k1, a), b, inputs.factor_edges(k2, b))
        g = Graph.from_edges(n, edges)
        try:
            order = automorphism_group(g, max_order=10000).order
        except BudgetExceeded:
            continue
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(n))
        assert sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter()) == order, (k1, a, op, k2, b)
        checked += 1
    assert checked == 17  # the other 9 products are over the order cap


def test_find_isomorphism_is_the_first_in_lexicographic_order():
    rng = random.Random(11)
    for g in _random_graphs(60, seed=5):
        if g.n > 7:
            continue
        relabel = list(range(g.n))
        rng.shuffle(relabel)
        h = Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges])
        h_edges = set(h.edges)
        first = next(
            p for p in itertools.permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in h_edges for u, v in g.edges)
        )
        assert find_isomorphism(g, h) == first
