import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsym import (
    Graph,
    cartesian_product,
    closed_neighborhood,
    complete,
    cycle,
    direct_product,
    is_connected,
    parse_auto,
    parse_graph6,
    path,
    serialize_edgelist,
    serialize_graph6,
    strong_product,
)
from oracles import reference_from_edges, reference_validate
from test_acceptance import criterion


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
    with pytest.raises(ValueError, match="path needs at least one vertex"):
        path(0)


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
    with pytest.raises(ValueError, match="complete graph needs at least one vertex"):
        complete(0)


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
    assert not is_connected(Graph(0, ()))  # the null graph has no component


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


def _from_edges_outcome(build, n, edges):
    """The (n, adj) of the graph built, or the ValueError message."""
    try:
        g = build(n, edges)
    except ValueError as exc:
        return str(exc)
    return g.n, g.adj


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be non-negative"),
    (-2, [], "vertex count must be non-negative"),
    (-1, [(0, 1)], "edge (0, 1) out of range for -1 vertices"),
    (3, [(0, 1), (1, 3)], "edge (1, 3) out of range for 3 vertices"),
    (3, [(-1, 2)], "edge (-1, 2) out of range for 3 vertices"),
    (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
    (2, [(5, 5)], "edge (5, 5) out of range for 2 vertices"),
])
def test_from_edges_refuses_what_it_refused_before(n, edges, message):
    # from_edges skips the constructor's check, so it must raise the
    # constructor's error for a negative count itself
    assert _from_edges_outcome(Graph.from_edges, n, edges) == message
    assert _from_edges_outcome(reference_from_edges, n, edges) == message


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-3, max_value=6),
       st.lists(st.tuples(st.integers(min_value=-2, max_value=7),
                          st.integers(min_value=-2, max_value=7)), max_size=8))
def test_from_edges_matches_the_reference(n, edges):
    outcome = _from_edges_outcome(Graph.from_edges, n, edges)
    assert outcome == _from_edges_outcome(reference_from_edges, n, edges)
    if not isinstance(outcome, str):
        reference_validate(*outcome)


def test_package_builders_skip_the_validation(monkeypatch):
    # products and both readers hand over rows that are valid by
    # construction; only a direct Graph(n, adj) call validates
    calls = []
    validate = Graph.__post_init__

    def counted(self):
        calls.append(self.n)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    c60 = cycle(60)
    for product in (strong_product, cartesian_product, direct_product):
        built = product(c60, c60)
        for text in (serialize_graph6(built), serialize_edgelist(built)):
            assert parse_auto(text) == built
    assert calls == []
    Graph(3, ((1,), (0, 2), (1,)))
    assert calls == [3]


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


def _validation_outcome(validate, n, adj):
    """None if the table is accepted, else the ValueError message."""
    try:
        validate(n, adj)
    except ValueError as exc:
        return str(exc)
    return None


def _malformed_tables(count, seed):
    """Adjacency tables of random graphs with one to three random faults:
    a neighbour dropped, added, duplicated, moved or out of range, a
    self-loop, a row added or dropped, or a negative vertex count."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        rows = [[] for _ in range(n)]
        for v in range(n):
            for u in range(v):
                if rng.random() < 0.5:
                    rows[u].append(v)
                    rows[v].append(u)
        for v in range(n):
            rows[v].sort()
        for _ in range(rng.randint(1, 3)):
            fault = rng.randrange(8)
            if fault == 0:
                n = -rng.randint(1, 3)
            elif fault == 1:
                if rng.random() < 0.5 and rows:
                    rows.pop(rng.randrange(len(rows)))
                else:
                    rows.insert(rng.randint(0, len(rows)), [])
            elif rows:
                row = rows[rng.randrange(len(rows))]
                if fault == 2 and row:
                    row.pop(rng.randrange(len(row)))
                elif fault == 3:
                    row.insert(rng.randint(0, len(row)), rng.randint(-2, max(n, 0) + 2))
                elif fault == 4 and row:
                    row.insert(rng.randint(0, len(row)), rng.choice(row))
                elif fault == 5 and len(row) > 1:
                    i, j = rng.sample(range(len(row)), 2)
                    row[i], row[j] = row[j], row[i]
                elif fault == 6:
                    row.append(rows.index(row))
                    row.sort()
                else:
                    row.append(rng.randint(0, max(n, 1) - 1))
                    row.sort()
        yield n, tuple(tuple(row) for row in rows)


# tables whose first fault depends on the order of the checks
ORDERED_FAULTS = [
    (3, ((2,), (), (1,))),  # asymmetric pair reported from the earlier vertex
    (3, ((1, 2), (0,), (0, 0))),  # a malformed row is read for symmetry before its own check
    (3, ((1,), (0, 5), ())),  # out of range
    (2, ((0, 1), (0,))),  # self-loop before the asymmetric pair
    (3, ((2, 1), (0,), (0,))),  # unsorted
]


def test_validation_matches_the_reference_on_malformed_tables():
    # the set-based symmetry test reports the same first fault, in the same
    # words, as the former tuple scan
    faults = set()
    for n, adj in ORDERED_FAULTS + list(_malformed_tables(3000, seed=17)):
        expected = _validation_outcome(reference_validate, n, adj)
        assert _validation_outcome(Graph, n, adj) == expected, (n, adj)
        faults.add(expected and re.sub(r"-?\d+", "N", expected))
    # every kind of fault occurs, and some tables come out valid
    assert faults == {
        None,
        "vertex count must be non-negative",
        "adjacency table length differs from vertex count",
        "neighbour list of vertex N not sorted duplicate-free",
        "self-loop at vertex N",
        "neighbour N of vertex N out of range",
        "adjacency not symmetric for pair N, N",
    }


def test_validation_is_linear_on_a_dense_graph():
    # K400 has 79,800 edges; testing symmetry by scanning neighbour tuples
    # took about 0.5 s
    k400 = complete(400)
    with criterion(20, 0.2, "K400 validated by the public constructor"):
        g = Graph(k400.n, k400.adj)
    assert g == k400


def test_hash_is_cached_outside_the_fields():
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = parse_graph6(serialize_graph6(path(4)))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.n, a.adj)) == hash((b.n, b.adj))
    # kept after the first call, but neither a field nor shown
    assert a._hash == hash(a) and Graph(3, ((1,), (0, 2), (1,)))._hash is None
    assert Graph._fields == ("n", "adj")
    assert repr(a) == "Graph(n=4, adj=((1,), (0, 2), (1, 3), (2,)))"
    assert {a: 1}[b] == 1 and len({a, b, path(4)}) == 1
