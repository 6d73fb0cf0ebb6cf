"""The package's eight value classes: constructors, repr, equality, hashing
and immutability, each pinned on one fixed instance."""

import pytest

from graphsym import (
    AutomorphismGroup, BoundReport, Budgets, DistinguishingResult, EdgeLabeling, Graph,
    SPartition, VertexLabeling, automorphism_group, check_number_sandwich, distinguishing_number,
    is_distinguishing_edge, is_s_thin, path, s_partition,
)

# class, field names in constructor order, a factory for fresh field values,
# and the instance's repr
CASES = [
    (Graph, ("n", "adj"), lambda: (3, ((1,), (0, 2), (1,))),
     "Graph(n=3, adj=((1,), (0, 2), (1,)))"),
    (AutomorphismGroup, ("n", "levels"), lambda: (3, ((0, ((0, 1, 2), (2, 1, 0))),)),
     "AutomorphismGroup(n=3, levels=((0, ((0, 1, 2), (2, 1, 0))),))"),
    (Budgets, ("exact_vertices", "exact_edges", "aut_vertices", "aut_max_order", "aut_nodes",
               "hamiltonian_vertices", "trials", "seed"),
     lambda: (5, 6, 7, None, 8, 9, 10, 11),
     "Budgets(exact_vertices=5, exact_edges=6, aut_vertices=7, aut_max_order=None, "
     "aut_nodes=8, hamiltonian_vertices=9, trials=10, seed=11)"),
    (VertexLabeling, ("labels", "r"), lambda: ((1, 1, 2), 2),
     "VertexLabeling(labels=(1, 1, 2), r=2)"),
    (EdgeLabeling, ("labels", "r"), lambda: ({(0, 1): 1, (1, 2): 2}, 2),
     "EdgeLabeling(labels={(0, 1): 1, (1, 2): 2}, r=2)"),
    (DistinguishingResult, ("value", "mode", "witness", "lower_bound_reason", "lower"),
     lambda: (2, "exact", VertexLabeling((1, 1, 2), 2), "exhausted-smaller-r", 2),
     "DistinguishingResult(value=2, mode='exact', witness=VertexLabeling(labels=(1, 1, 2), "
     "r=2), lower_bound_reason='exhausted-smaller-r', lower=2)"),
    (SPartition, ("classes",), lambda: (((0,), (1, 2)),), "SPartition(classes=((0,), (1, 2)))"),
    (BoundReport, ("check", "instance", "hypotheses", "quantities", "status", "witness",
                   "notes"),
     lambda: ("number-sandwich", "P2xP3", {"connected": True}, {"D": 2}, "pass", None,
              ("a note",)),
     "BoundReport(check='number-sandwich', instance='P2xP3', hypotheses={'connected': True}, "
     "quantities={'D': 2}, status='pass', witness=None, notes=('a note',))"),
]
UNHASHABLE = (EdgeLabeling, BoundReport)
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_repr_is_the_class_and_its_fields(cls, names, values, text):
    obj = cls(*values())
    assert repr(obj) == text
    if cls is AutomorphismGroup:
        # a listed group keeps its elements outside the fields
        assert len(obj.elements) == 2 and repr(obj) == text
    if cls is Graph:
        # nor do its caches: the edges, the neighbour sets and the hash
        hash(obj)
        assert obj.edges and obj.neighbor_sets and repr(obj) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equal_fields_give_equal_objects(cls, names, values, text):
    a, b = cls(*values()), cls(**dict(zip(names, values())))
    assert a == b and not a != b and a is not b
    if cls in UNHASHABLE:
        for obj in (a, b):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_objects_of_different_classes_are_never_equal(cls, names, values, text):
    obj = cls(*values())
    others = [other(*make()) for other, _, make, _ in CASES if other is not cls]
    if cls is not AutomorphismGroup:  # a group equals any group with its elements
        others.append(type("Sub", (cls,), {})(*values()))
    for other in [*others, values()]:
        assert obj != other and other != obj
        assert not obj == other and not other == obj


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    obj = cls(*values())
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == dict(zip(names, values()))[name]
    assert repr(obj) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_a_missing_or_unknown_argument_is_a_type_error(cls, names, values, text):
    args = values()
    for bad in [(args + (0,), {}), (args, {"no_such_field": 0}), (args, {names[0]: args[0]})]:
        with pytest.raises(TypeError):
            cls(*bad[0], **bad[1])
    required = {Budgets: 0, BoundReport: 5}.get(cls, len(names))
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], args[1:])))


def test_budgets_defaults():
    assert Budgets() == Budgets(12, 14, 20, 10000, 100000, 16, 10000, 0)
    assert Budgets(seed=3) == Budgets(12, 14, 20, 10000, 100000, 16, 10000, 3)
    assert repr(Budgets()) == (
        "Budgets(exact_vertices=12, exact_edges=14, aut_vertices=20, aut_max_order=10000, "
        "aut_nodes=100000, hamiltonian_vertices=16, trials=10000, seed=0)")


def test_bound_report_defaults():
    report = BoundReport("c", "i", {}, {}, "pass")
    assert (report.witness, report.notes) == (None, ())
    assert report == BoundReport("c", "i", {}, {}, "pass", None, ())


def test_graph_from_list_rows_is_the_tuple_graph():
    g = Graph(3, [[1], [0, 2], [1]])
    assert g.adj == ((1,), (0, 2), (1,)) and type(g.adj[0]) is tuple
    assert g == path(3) and hash(g) == hash(path(3))
    assert repr(g) == repr(path(3))
    assert s_partition(g) == s_partition(path(3))
    assert is_s_thin(g) and distinguishing_number(g) == distinguishing_number(path(3))
    assert automorphism_group(g).order == 2
    report = check_number_sandwich(g, path(2))
    assert report == check_number_sandwich(path(3), path(2)) and report.status == "pass"
    with pytest.raises(ValueError, match="not symmetric"):
        Graph(3, [[1], [0], [1]])


def test_vertex_labeling_from_a_list_is_the_tuple_labeling():
    phi = VertexLabeling([1, 2, 1], 2)
    assert phi.labels == (1, 2, 1)
    assert phi == VertexLabeling((1, 2, 1), 2) and hash(phi) == hash(VertexLabeling((1, 2, 1), 2))
    assert repr(phi) == "VertexLabeling(labels=(1, 2, 1), r=2)"


def test_edge_labeling_keeps_a_copy_of_the_given_dict():
    source = {(0, 1): 1, (1, 2): 2}
    e = EdgeLabeling(source, 2)
    source[(0, 1)] = 7
    source[(5, 3)] = 1
    assert e.labels == {(0, 1): 1, (1, 2): 2} and e.labels is not source
    assert repr(e) == "EdgeLabeling(labels={(0, 1): 1, (1, 2): 2}, r=2)"
    assert e == EdgeLabeling({(0, 1): 1, (1, 2): 2}, 2)
    assert is_distinguishing_edge(path(3), e)


@pytest.mark.parametrize("cls, labels", [(VertexLabeling, ()), (EdgeLabeling, {})],
                         ids=["VertexLabeling", "EdgeLabeling"])
def test_a_labeling_needs_at_least_one_label(cls, labels):
    for r in (0, -1):
        with pytest.raises(ValueError, match="label count must be at least 1"):
            cls(labels, r)
