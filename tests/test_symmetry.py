import hashlib
import itertools
import json
import math
import random
import time

import pytest

import graphsym.distinguishing
import graphsym.symmetry
from graphsym import (
    DEFAULT_BUDGETS,
    AutomorphismGroup,
    BudgetExceeded,
    Graph,
    automorphism_group,
    cartesian_product,
    complete,
    compose,
    cycle,
    default_corpus,
    direct_product,
    distinguishing_index,
    distinguishing_number,
    find_isomorphism,
    identity,
    is_automorphism,
    is_isomorphic,
    path,
    run_all,
    serialize_graph6,
    strong_product,
)
from graphsym.distinguishing import _group_of
from graphsym.symmetry import _coset_representatives, _Matcher, _stable_colouring
from oracles import (
    brute_automorphisms, connected_graph_sample, reference_automorphisms,
    reference_stable_partition,
)
from test_acceptance import criterion

# The caterpillar tree on 6 vertices: reversing the spine (0<->4, 1<->3)
# and fixing the leaf 5 is an automorphism, so it is not asymmetric.
CATERPILLAR6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])

# Spider with legs of lengths 1, 2, 3 from vertex 0: the smallest kind of
# asymmetric tree (7 vertices).
SPIDER7 = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def inverse(p):
    inv = [0] * len(p)
    for v, w in enumerate(p):
        inv[w] = v
    return tuple(inv)


def test_permutation_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert compose(p, inverse(p)) == identity(3)
    assert inverse(inverse(p)) == p
    # one index or none is where itemgetter would not return a tuple
    assert compose((), ()) == ()
    assert compose((0,), (0,)) == (0,)
    assert compose((1, 0), (1, 0)) == (0, 1)


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
    assert automorphism_group(path(2)).order > 1
    assert automorphism_group(complete(1)).order == 1
    # oracle-verified: the 6-vertex caterpillar has a reversal automorphism
    assert automorphism_group(CATERPILLAR6).order > 1
    assert len(brute_automorphisms(CATERPILLAR6)) == 2
    # and the 7-vertex spider is asymmetric
    assert automorphism_group(SPIDER7).order == 1
    assert len(brute_automorphisms(SPIDER7)) == 1


def test_group_equal():
    a = automorphism_group(strong_product(path(3), path(4)))
    b = automorphism_group(cartesian_product(path(3), path(4)))
    assert a == b
    k4, c4 = automorphism_group(complete(4)), automorphism_group(cycle(4))
    assert k4 != c4
    assert k4 == k4
    # groups on different vertex counts are unequal
    assert k4 != automorphism_group(path(3))


def test_groups_are_equal_when_their_elements_are():
    # two chains of S3 with different level-0 representatives
    e = identity(3)
    a = AutomorphismGroup(3, ((0, (e, (1, 0, 2), (2, 1, 0))), (1, (e, (0, 2, 1)))))
    b = AutomorphismGroup(3, ((0, (e, (1, 2, 0), (2, 0, 1))), (1, (e, (0, 2, 1)))))
    assert a.levels != b.levels
    assert a == b and hash(a) == hash(b) and a.order == 6
    assert a.elements == b.elements == tuple(itertools.permutations(range(3)))
    assert a == automorphism_group(complete(3))
    cyclic = AutomorphismGroup(3, ((0, (e, (1, 2, 0), (2, 0, 1))),))
    assert cyclic != a and cyclic.order == 3


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
    # the kernel's own full walk from the empty map
    assert tuple(_Matcher(g, g).completions()) == expected, g


def test_matches_reference_enumerator_on_all_small_graphs():
    for g in _small_graphs():
        _assert_matches_reference(g)


def test_matches_reference_enumerator_on_random_graphs():
    for g in _random_graphs():
        _assert_matches_reference(g)


def test_matches_reference_enumerator_on_corpus_groups(monkeypatch):
    # record every group the harness builds within its budgets; the corpus
    # graphs are built afresh for this call, so none holds a group yet
    built = {}

    def recording(graph, **kwargs):
        group = automorphism_group(graph, **kwargs)
        built[graph] = group
        return group

    # the harness, the labeling tests and the solvers build every group
    # through distinguishing._group_of
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


def test_group_order_matches_networkx_on_query_products(query_products):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    checked = 0
    for spec, g in query_products:
        try:
            order = automorphism_group(g, max_order=10000).order
        except BudgetExceeded:
            continue
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(g.n))
        assert sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter()) == order, spec
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
        every = [
            p for p in itertools.permutations(range(g.n))
            if all((min(p[u], p[v]), max(p[u], p[v])) in h_edges for u, v in g.edges)
        ]
        assert find_isomorphism(g, h) == every[0]
        # and the kernel lists every isomorphism, in the same order
        assert list(_Matcher(g, h).completions()) == every, g


def test_kernel_from_every_prefix_its_candidates_reach():
    # from each partial map that pushing candidates reaches: the completions
    # are the brute-force isomorphisms through it, in lexicographic order,
    # and leave the map as it was; on g -> g the candidates are the unused
    # vertices of the next vertex's stable class that match its adjacency
    # to every mapped vertex
    rng = random.Random(7)
    prefixes = 0
    for n in range(1, 7):
        for g in connected_graph_sample(n, 6, seed=n):
            relabel = list(range(n))
            rng.shuffle(relabel)
            copy = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges])
            cls = {v: c for c in reference_stable_partition(g) for v in c}
            for h in (g, copy):
                nbr = h.neighbor_sets
                every = [p for p in itertools.permutations(range(n))
                         if all(p[v] in nbr[p[u]] for u, v in g.edges)]
                m = _Matcher(g, h)

                def walk():
                    nonlocal prefixes
                    prefixes += 1
                    depth, prefix, used = m.depth, m.image[:m.depth], m.used
                    assert list(m.completions()) == [p for p in every if list(p[:depth]) == prefix]
                    assert (m.depth, m.image[:depth], m.used) == (depth, prefix, used)
                    if depth == n:
                        return
                    if h is g:
                        assert m.candidates() == [
                            w for w in cls[depth] if w not in prefix
                            and all((x in nbr[w]) == (u in nbr[depth]) for u, x in enumerate(prefix))
                        ], (g.edges, prefix)
                    for w in m.candidates():
                        m.push(w)
                        walk()
                        m.pop()

                walk()
    assert prefixes > 500  # 750 with the colour-pool candidates


def _reference_chain(g):
    """(v, w) for v = n-1 down to 0 and, in increasing order, each w != v
    to which some automorphism fixing 0..v-1 maps v, from the reference
    enumerator."""
    elements = list(reference_automorphisms(g))
    return [
        (v, w) for v in reversed(range(g.n)) for w in range(g.n)
        if w != v and any(a[v] == w and a[:v] == identity(g.n)[:v] for a in elements)
    ]


def test_coset_representatives_follow_the_stabilizer_chain():
    # whether a representative was searched for or read off the transversal,
    # it is an automorphism fixing 0..v-1 and mapping v to w, and the (v, w)
    # pairs come in the order of the full search
    graphs = [strong_product(cycle(4), cycle(3)), cartesian_product(cycle(4), cycle(4)),
              direct_product(complete(2), path(5)), CATERPILLAR6, SPIDER7]
    graphs += list(_random_graphs(80, seed=23))
    for g in graphs:
        pairs = []
        for v, p in _coset_representatives(g):
            assert is_automorphism(g, p) and p[:v] == identity(g.n)[:v], g
            pairs.append((v, p[v]))
        assert pairs == _reference_chain(g), g


def test_successful_searches_are_at_most_log2_order(monkeypatch):
    # each successful search adds a generator outside the group already
    # known, which at least doubles it; one search for every (v, w) pair
    # would make 19 on C4 x C4
    found = []
    first = _Matcher.first

    def counting(self):
        p = first(self)
        if p is not None:
            found.append(p)
        return p

    monkeypatch.setattr(_Matcher, "first", counting)
    for g in (strong_product(cycle(4), cycle(4)), cartesian_product(cycle(4), cycle(4)),
              strong_product(path(4), cycle(3)), strong_product(path(10), complete(2)),
              direct_product(complete(2), path(8))):
        found.clear()
        order = automorphism_group(g).order
        assert 1 <= len(found) <= math.floor(math.log2(order)), (g, order, len(found))


@pytest.fixture
def searches(monkeypatch):
    """The graphs automorphism_group searches, one entry per search."""
    searched = []
    search = graphsym.symmetry._coset_representatives

    def counting(graph, *args):
        searched.append(graph)
        return search(graph, *args)

    monkeypatch.setattr(graphsym.symmetry, "_coset_representatives", counting)
    return searched


def test_group_number_and_index_of_one_graph_share_one_search(searches):
    for g in (path(5), cycle(6), strong_product(path(2), path(3)),
              strong_product(path(3), cycle(5))):
        searches.clear()
        group = automorphism_group(g)
        number, index = distinguishing_number(g), distinguishing_index(g)
        assert automorphism_group(g) is group
        assert searches == [g]
        # the held group gives what a fresh search on an equal graph gives
        fresh = Graph(g.n, g.adj)
        assert automorphism_group(fresh) == group
        assert (distinguishing_number(fresh), distinguishing_index(fresh)) == (number, index)
        assert len(searches) == 2


def test_order_budget_failure_is_remembered(searches):
    g = strong_product(path(4), cycle(3))  # |Aut| = 2592

    def refused(max_order):
        with pytest.raises(BudgetExceeded) as exc:
            automorphism_group(g, max_order=max_order)
        assert str(exc.value) == f"automorphism group larger than the order budget {max_order}"
        return len(searches)

    assert refused(100) == 1
    # the same or a smaller cap is refused without a search
    assert refused(100) == refused(7) == refused(0) == 1
    # a larger cap searches again, and its failure is remembered in turn
    assert refused(2591) == 2
    assert refused(1000) == 2
    assert automorphism_group(g, max_order=2592).order == 2592
    assert len(searches) == 3


def test_held_group_still_meets_the_order_and_vertex_bounds(searches):
    g = strong_product(path(4), cycle(3))
    assert automorphism_group(g).order == 2592
    with pytest.raises(BudgetExceeded) as exc:
        automorphism_group(g, max_order=2591)
    assert str(exc.value) == "automorphism group larger than the order budget 2591"
    with pytest.raises(BudgetExceeded) as exc:
        automorphism_group(g, max_vertices=11)
    assert str(exc.value) == "graph has 12 vertices, above the automorphism bound 11"
    # a search tests the order cap only once it has found a representative,
    # so any cap admits the trivial group, held or not
    spider = Graph(SPIDER7.n, SPIDER7.adj)
    for _ in range(2):
        assert automorphism_group(spider, max_order=0).order == 1
    assert searches == [g, spider]


def test_equal_graph_objects_share_nothing(searches):
    a, b = cycle(5), cycle(5)
    assert a == b and a is not b
    for _ in range(2):
        assert automorphism_group(a) == automorphism_group(b)
    assert len(searches) == 2 and searches[0] is a and searches[1] is b
    # nor is a failure shared
    searches.clear()
    for k6 in (complete(6), complete(6)):
        with pytest.raises(BudgetExceeded):
            automorphism_group(k6, max_order=10)
    assert len(searches) == 2


def test_graph_holding_its_group_equals_a_fresh_copy():
    held, failed = cycle(6), complete(6)
    automorphism_group(held)
    with pytest.raises(BudgetExceeded):
        automorphism_group(failed, max_order=10)
    for g, fresh in ((held, cycle(6)), (failed, complete(6))):
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert {fresh: 1}[g] == 1


def test_identity_is_the_first_element():
    # the identity is the least permutation, so it heads the lexicographic
    # list of every group, as autgroup --elements prints it
    corpus = [g for _, g in default_corpus()]
    graphs = corpus + [strong_product(a, b) for a, b in itertools.combinations_with_replacement(
        corpus, 2) if a.n * b.n <= DEFAULT_BUDGETS.aut_vertices]
    listed = 0
    for g in graphs:
        try:
            elements = _group_of(g, DEFAULT_BUDGETS).elements
        except BudgetExceeded:
            continue
        assert elements[0] == identity(g.n), g
        listed += 1
    assert listed > 40


def test_run_all_refuses_each_order_capped_product_once(searches):
    # no run cache holds the failure: the graph object remembers the order
    # cap it exceeds, and answers each later check with the same message.
    # K3 x K3, K3 x K4 and K4 x K4 are K9, K12 and K16
    reports = run_all([("K3", complete(3)), ("K4", complete(4))])
    assert len({id(g) for g in searches}) == len(searches)
    refused = [g.n for g in searches if g._aut == DEFAULT_BUDGETS.aut_max_order]
    assert refused == [9, 12, 16]
    note = ("budget: automorphism group larger than the order budget 10000",)
    capped = [(r.check, r.instance) for r in reports if r.notes == note]
    assert capped == [
        ("number-sandwich", "K3 x K3"), ("layered-labeling", "K3 x K3"),
        ("index-bound-plus-one", "K3 x K3"), ("index-lift", "K3 x K3"),
        ("traceable-index-two", "K3 x K3"),
        ("number-sandwich", "K3 x K4"), ("layered-labeling", "K3 x K4"),
        ("index-bound-plus-one", "K3 x K4"), ("index-lift", "K3 x K4"),
        ("layered-labeling", "K4 x K4"), ("index-bound-plus-one", "K4 x K4"),
        ("index-lift", "K4 x K4"),
    ]
    assert all(r.notes == note for r in reports if "order budget" in "".join(r.notes))


def test_run_all_searches_each_distinct_graph_once(searches):
    # within one run equal graphs are one object: P2 and K2, C3 and K3,
    # K4 and K2 x K2, and K2 x K3 and K3 x K2 (both K6) are each searched once
    run_all(default_corpus())
    assert searches and len(set(searches)) == len(searches)
    assert complete(6) in searches and complete(4) in searches


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def _relabelled(g, seed):
    """A copy of g with its vertices shuffled, and the shuffle."""
    relabel = list(range(g.n))
    random.Random(seed).shuffle(relabel)
    return Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in g.edges]), relabel


def _colouring_graphs():
    yield from _random_graphs(150, seed=31)
    yield from connected_graph_sample(8, 40, seed=4)
    for seed in range(10):
        yield _random_tree(30, seed)
    yield from (path(9), cycle(7), complete(5), CATERPILLAR6, SPIDER7, Graph(0, ()),
                direct_product(complete(2), path(6)), strong_product(path(3), cycle(4)))


def test_stable_colouring_is_equitable_and_refines_degree():
    for g in _colouring_graphs():
        colour = _stable_colouring(g)
        assert sorted(set(colour)) == list(range(len(set(colour)))), g
        for u, v in itertools.combinations(range(g.n), 2):
            if colour[u] == colour[v]:
                assert g.degree(u) == g.degree(v), g
                # equitable: equally many neighbours of every colour
                assert (sorted(colour[x] for x in g.adj[u])
                        == sorted(colour[x] for x in g.adj[v])), g


def test_stable_colouring_matches_textbook_refinement():
    # a long path refines over 30 rounds; P5 + C5 + K1,3 mixes components
    mixed = Graph.from_edges(14, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8),
                                  (8, 9), (5, 9), (10, 11), (10, 12), (10, 13)])
    for g in itertools.chain(_colouring_graphs(), (path(61), mixed)):
        classes: dict = {}
        for v, c in enumerate(_stable_colouring(g)):
            classes.setdefault(c, []).append(v)
        assert sorted(classes.values()) == reference_stable_partition(g), g


def test_stable_colouring_maps_through_a_relabelling():
    graphs = connected_graph_sample(7, 60, seed=8) + [_random_tree(40, s) for s in range(5)]
    for k, g in enumerate(graphs):
        h, relabel = _relabelled(g, k)
        colour_g, colour_h = _stable_colouring(g), _stable_colouring(h)
        assert all(colour_h[relabel[v]] == colour_g[v] for v in range(g.n)), g


def test_every_orbit_lies_inside_one_colour():
    for g in itertools.chain(_random_graphs(100, seed=37), connected_graph_sample(7, 40, seed=2),
                             (CATERPILLAR6, strong_product(path(3), path(3)))):
        colour = _stable_colouring(g)
        for a in reference_automorphisms(g):
            assert all(colour[a[v]] == colour[v] for v in range(g.n)), g


def test_regular_pairs_that_colouring_cannot_tell_apart():
    # each pair is regular with equal vertex and edge counts, so both
    # colourings are one class and the search alone refutes the isomorphism
    def cycles(*lengths):
        edges, start = [], 0
        for k in lengths:
            edges += [(start + i, start + (i + 1) % k) for i in range(k)]
            start += k
        return Graph.from_edges(start, edges)

    prism = cartesian_product(cycle(3), complete(2))
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    cube = cartesian_product(cycle(4), complete(2))
    two_k4 = Graph.from_edges(8, [(u, v) for u, v in itertools.combinations(range(8), 2)
                                  if u // 4 == v // 4])
    pairs = [(cycle(6), cycles(3, 3)), (k33, prism), (cube, two_k4), (cycle(8), cycles(4, 4)),
             (cycles(9), cycles(3, 3, 3))]
    for g, h in pairs:
        assert _stable_colouring(g) == _stable_colouring(h) == [0] * g.n
        assert find_isomorphism(g, h) is None and find_isomorphism(h, g) is None
        assert not is_isomorphic(g, h)
        # and each is still isomorphic to a relabelled copy of itself
        for x in (g, h):
            assert is_isomorphic(x, _relabelled(x, 1)[0])


@pytest.fixture
def pushes(monkeypatch):
    """Counts kernel pushes, and fails a search at once when it makes more
    than ``limit``: the degree-only kernel needed minutes on these graphs."""
    count = [0]
    limit = [math.inf]
    push = _Matcher.push

    def counting(self, w):
        count[0] += 1
        if count[0] > limit[0]:
            raise AssertionError(f"more than {limit[0]} kernel pushes")
        push(self, w)

    monkeypatch.setattr(_Matcher, "push", counting)

    def within(bound, search):
        count[0], limit[0] = 0, bound
        result = search()
        return result, count[0]

    return within


def test_relabelled_tree_isomorphism_is_linear_in_pushes(pushes):
    g = _random_tree(100, 5)
    h, relabel = _relabelled(g, 6)
    iso, made = pushes(2 * g.n, lambda: find_isomorphism(g, h))
    assert iso is not None and is_automorphism(g, compose(inverse(relabel), iso))
    assert made <= 2 * g.n


def test_colour_class_sizes_refuse_an_isomorphism_before_the_search(pushes):
    # P6 with a leaf on its second or its third vertex: equal degree
    # sequences, but two leaves next to the degree-3 vertex against one
    spine = [(i, i + 1) for i in range(5)]
    g, h = Graph.from_edges(7, spine + [(1, 6)]), Graph.from_edges(7, spine + [(2, 6)])
    assert sorted(map(g.degree, range(7))) == sorted(map(h.degree, range(7)))
    assert pushes(0, lambda: find_isomorphism(g, h)) == (None, 0)


def test_degree_sequences_refuse_an_isomorphism_before_the_colouring(monkeypatch):
    # K1,3 and P4 have four vertices and three edges each, but degrees
    # 3, 1, 1, 1 against 2, 2, 1, 1: no matcher, and so no colouring, is built
    star, p4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), path(4)
    assert (star.n, star.edge_count) == (p4.n, p4.edge_count)

    def unbuilt(*args):
        raise AssertionError("the search built a matcher")

    monkeypatch.setattr(_Matcher, "__init__", unbuilt)
    assert find_isomorphism(star, p4) is None and find_isomorphism(p4, star) is None


def test_disconnected_direct_product_group_takes_few_pushes(pushes):
    # K2 x P10 is two disjoint paths; by degree alone the failing searches
    # at shallow levels took about 1.5 million pushes
    g = direct_product(complete(2), path(10))
    group, made = pushes(1000, lambda: automorphism_group(g))
    assert group.order == 8 and made <= 1000


def test_tree_group_takes_few_pushes(pushes):
    g = _random_tree(100, 5)
    group, made = pushes(2000, lambda: automorphism_group(g, max_vertices=100))
    assert group.order == 36864 and made <= 2000


# sha256 of (graph6, levels) of every group listable at the default budgets
# among the corpus graphs and their strong and Cartesian products within the
# automorphism vertex bound: what the search finds, representatives and all
LEVELS_SHA256 = "ce650b726d53738d1e49ab85387fbce817b878c77736af81e4cffcfefc5626f9"


def test_levels_of_corpus_groups_are_pinned():
    corpus = [g for _, g in default_corpus()]
    graphs = corpus + [op(a, b) for op in (strong_product, cartesian_product)
                       for a, b in itertools.product(corpus, repeat=2)
                       if a.n * b.n <= DEFAULT_BUDGETS.aut_vertices]
    rows = []
    for g in graphs:
        try:
            group = _group_of(g, DEFAULT_BUDGETS)
        except BudgetExceeded:
            continue
        levels = [[v, [list(p) for p in reps]] for v, reps in group.levels]
        rows.append([serialize_graph6(g), levels])
    assert len(rows) == 227
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == LEVELS_SHA256


def test_kernel_pushes_over_the_corpus_are_pinned(pushes):
    # the search tree of every automorphism and isomorphism search of one
    # verify run: a kernel change that keeps every completion, every
    # refutation and the order they come in keeps this count
    _, made = pushes(math.inf, lambda: run_all(default_corpus()))
    assert made == 8631


def _star_square():
    """K1,5 x K1,5 (strong), each star's centre numbered 5: its 25 leaf
    pairs form one colour class, and the search for its group (order
    28,800) went past 9 million kernel pushes without deciding the order
    cap."""
    star = Graph.from_edges(6, [(leaf, 5) for leaf in range(5)])
    return strong_product(star, star)


def test_node_budget_stops_the_star_square_search(searches):
    g = _star_square()
    budgets = graphsym.distinguishing.Budgets(aut_vertices=36)
    start = time.process_time()
    with pytest.raises(BudgetExceeded) as exc:
        _group_of(g, budgets)
    assert time.process_time() - start < 2
    assert str(exc.value) == "automorphism search larger than the node budget 100000"
    # kept on the graph: the same budgets raise again without a search
    with pytest.raises(BudgetExceeded) as again:
        _group_of(g, budgets)
    assert str(again.value) == str(exc.value)
    assert searches == [g]
    # with the centre first the order cap decides within the node budget
    star = Graph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
    with pytest.raises(BudgetExceeded) as exc:
        _group_of(strong_product(star, star), budgets)
    assert str(exc.value) == "automorphism group larger than the order budget 10000"


def test_node_budget_failure_is_remembered(searches, pushes):
    g = strong_product(path(4), cycle(3))  # |Aut| = 2592
    _, needed = pushes(math.inf, lambda: automorphism_group(Graph(g.n, g.adj)))
    searches.clear()

    def refused(max_order, max_nodes):
        with pytest.raises(BudgetExceeded) as exc:
            automorphism_group(g, max_order=max_order, max_nodes=max_nodes)
        assert str(exc.value) == f"automorphism search larger than the node budget {max_nodes}"
        return len(searches)

    assert refused(None, needed - 1) == 1
    # a smaller node budget is refused without a search
    assert refused(None, needed - 1) == refused(None, 12) == 1
    # a smaller order budget may end the search sooner: it searches again,
    # and a larger one only prolongs the search refused under the smaller
    assert refused(2591, needed - 1) == 2
    assert refused(3000, needed - 1) == refused(None, needed - 1) == 2
    # a larger node budget searches again, and the group once held is
    # answered under any node budget
    assert automorphism_group(g, max_nodes=needed).order == 2592
    assert automorphism_group(g, max_nodes=1).order == 2592
    assert len(searches) == 3


def test_order_budget_failure_is_answered_under_any_node_budget(searches):
    g = strong_product(path(4), cycle(3))
    with pytest.raises(BudgetExceeded):
        automorphism_group(g, max_order=100)
    with pytest.raises(BudgetExceeded) as exc:
        automorphism_group(g, max_order=100, max_nodes=1)
    assert str(exc.value) == "automorphism group larger than the order budget 100"
    assert len(searches) == 1

