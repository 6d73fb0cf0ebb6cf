import ast
import functools
import gc
import inspect
import itertools

import pytest

import graphsym
import graphsym.checks
import graphsym.distinguishing
from graphsym import (
    DEFAULT_BUDGETS,
    AutomorphismGroup,
    BudgetExceeded,
    Budgets,
    EdgeLabeling,
    Graph,
    VertexLabeling,
    all_applicable_pass,
    automorphism_group,
    cartesian_product,
    check_index_monotone,
    check_index_sthin,
    check_layered_labeling,
    check_lift,
    check_number_equality,
    check_number_sandwich,
    check_power_number,
    check_traceable_index,
    complete,
    cycle,
    default_corpus,
    distinguishing_index,
    distinguishing_number,
    graph_name,
    is_distinguishing_edge,
    is_distinguishing_vertex,
    layered_labeling,
    lift_edge_labeling,
    min_alphabet,
    min_exponent,
    path,
    run_all,
    sequence_labeling,
    strong_power,
    strong_product,
)

from graphsym.checks import _equal_groups, _within
from oracles import all_connected_graphs, reference_subgroup

SPIDER7 = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def test_alphabet_search_vs_log_reading():
    assert min_alphabet(4, 4) == 2
    assert min_alphabet(3, 9) == 3
    # the two readings genuinely differ: with sequences of length 2 over l
    # letters, 9 sequences need l = 3, while the ceiling-log form gives 4
    assert min_alphabet(2, 9) == 3
    assert min_exponent(2, 9) == 4
    assert min_alphabet(5, 1) == 1
    assert min_exponent(1, 5) is None


def test_layered_labeling_construction():
    phi = VertexLabeling((1, 1, 2), 2)
    lab = layered_labeling(path(3), path(2), phi)
    assert lab.labels == (1, 3, 1, 3, 2, 4)
    assert lab.r == 4
    product = strong_product(path(3), path(2))
    assert is_distinguishing_vertex(product, lab)
    with pytest.raises(ValueError):
        layered_labeling(path(3), path(2), VertexLabeling((1, 1, 1), 1))
    with pytest.raises(ValueError):
        layered_labeling(path(3), path(2), VertexLabeling((1, 2), 2))


def test_layered_labeling_trivial_factor():
    phi = VertexLabeling((1,), 1)
    lab = layered_labeling(complete(1), path(3), phi)
    assert lab.labels == (1, 2, 3)


def test_check_layered_labeling_both_orientations():
    report = check_layered_labeling(path(3), path(4))
    assert report.passed
    assert report.quantities["labels used, G copies"] == 2 * 4
    assert report.quantities["labels used, H copies"] == 3 * 2


def test_check_number_sandwich():
    report = check_number_sandwich(complete(2), complete(2))
    assert report.passed
    assert report.quantities["D(cartesian)"] == 3
    assert report.quantities["D(strong)"] == 4
    assert report.quantities["min(D(G)|V(H)|, |V(G)|D(H))"] == 4

    report = check_number_sandwich(path(3), path(4))
    assert report.passed
    assert report.quantities["D(strong)"] == 2

    report = check_number_sandwich(complete(1), path(3))
    assert report.passed
    assert report.quantities["min(D(G)|V(H)|, |V(G)|D(H))"] == 2

    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    report = check_number_sandwich(disconnected, path(3))
    assert report.status == "not-applicable" and not report.hypotheses["G connected"]


def test_check_number_equality():
    for g, h in [(path(3), path(4)), (path(3), cycle(5))]:
        report = check_number_equality(g, h)
        assert report.passed
        assert report.quantities["groups equal"]
    report = check_number_equality(cycle(5), cycle(6), Budgets(aut_vertices=30))
    assert report.passed
    assert report.quantities["D(strong)"].startswith("2")
    report = check_number_equality(complete(2), complete(2))
    assert report.status == "not-applicable" and not report.hypotheses["G S-thin"]


def _groups_within_the_cap(graphs):
    """(graph, Aut(graph)) for each graph whose group is under the default
    budgets."""
    for g in graphs:
        try:
            yield g, automorphism_group(g, max_order=DEFAULT_BUDGETS.aut_max_order)
        except BudgetExceeded:
            pass


def test_generator_tests_agree_with_the_element_sets():
    # _within tests the representatives of one chain on the other graph,
    # and _equal_groups adds equal orders
    graphs = list(all_connected_graphs(4))
    factors = [g for _, g in default_corpus()]
    for a, b in itertools.combinations_with_replacement(factors, 2):
        if a.n * b.n <= 12:
            graphs += [strong_product(a, b), cartesian_product(a, b)]
    held = list(_groups_within_the_cap(graphs))
    outcomes = {"within": set(), "equal": set()}
    for (a, group_a), (b, group_b) in itertools.product(held, repeat=2):
        if a.n != b.n:
            continue
        within = _within(group_a, b)
        assert within == reference_subgroup(group_a, group_b)
        equal = _equal_groups(group_a, group_b, b)
        assert equal == (reference_subgroup(group_a, group_b)
                         and reference_subgroup(group_b, group_a))
        assert equal == (group_a == group_b)
        outcomes["within"].add(within)
        outcomes["equal"].add(equal)
    assert outcomes == {"within": {True, False}, "equal": {True, False}}


def test_number_equality_compares_groups_by_generators():
    # on every pair of the corpus that number-equality decides, the groups
    # are equal (the theorem), and so are their element sets
    corpus = dict(default_corpus())
    decided = 0
    for report in run_all(default_corpus()):
        if report.check == "number-equality-sthin" and report.applicable:
            g, h = (corpus[name] for name in report.instance.split(" x "))
            strong = automorphism_group(strong_product(g, h))
            box = automorphism_group(cartesian_product(g, h))
            assert report.quantities["groups equal"] and strong == box
            decided += 1
    assert decided > 5


def test_verify_all_lists_no_group(monkeypatch):
    # the labeling searches read the chain and the group hypotheses test
    # generators: one run over the default corpus lists no element
    listed = []
    listing = AutomorphismGroup.__dict__["elements"].func

    def elements(group):
        listed.append(group.order)
        return listing(group)

    counting = functools.cached_property(elements)
    counting.__set_name__(AutomorphismGroup, "elements")
    monkeypatch.setattr(AutomorphismGroup, "elements", counting)
    reports = run_all(default_corpus())
    assert len(reports) == 945 and listed == []
    assert automorphism_group(path(3)).elements == ((0, 1, 2), (2, 1, 0)) and listed == [2]


def test_check_power_number():
    assert check_power_number(path(3), 2).passed
    report = check_power_number(cycle(5), 2, Budgets(aut_vertices=25))
    assert report.passed
    # K2 fails the S-thin hypothesis, and the conclusion indeed fails there
    report = check_power_number(complete(2), 2)
    assert report.status == "not-applicable" and not report.hypotheses["G S-thin"]
    assert distinguishing_number(strong_power(complete(2), 2)).value == 4
    assert check_power_number(path(3), 1).status == "not-applicable"


def test_sequence_labeling_case_two():
    report = sequence_labeling(path(4), cycle(5))
    assert report.passed
    q = report.quantities
    assert q["case"] == "ii" and q["alphabet floor d"] == 2 and q["stated bound"] == 3
    assert q["labels used"] <= 3
    # exact value on the 20-vertex product stays consistent with the bound
    exact = distinguishing_number(
        strong_product(path(4), cycle(5)), Budgets(aut_vertices=20)
    )
    assert exact.value == 2 <= 3


def test_sequence_labeling_case_three_asymmetric_factor():
    report = sequence_labeling(SPIDER7, path(3), Budgets(aut_vertices=21))
    assert report.passed
    q = report.quantities
    assert q["case"] == "iii"
    assert q["D(G)"] == 1
    assert q["stated bound"] == min_alphabet(7, 3) == 2


def test_sequence_labeling_case_one():
    # C5 has distinguishing number 3 while 4 copies only need a 2-letter
    # alphabet: the two quantities differ, so no extra label is ever needed
    report = sequence_labeling(cycle(5), path(4))
    assert report.passed
    q = report.quantities
    assert q["case"] == "i"
    assert q["D(G)"] == 3 and q["alphabet floor d"] == 2
    assert q["stated bound"] == 3 and q["labels used"] <= 3
    assert q["extra label introduced"] is False


def test_sequence_labeling_case_two_extra_label():
    # with sequences of length 3 over 2 letters there are exactly 8 of them,
    # so 9 copies exhaust the family once the first copy's labeling is
    # excluded and the extra label has to appear
    report = sequence_labeling(path(3), path(9), Budgets(aut_vertices=27))
    assert report.passed
    q = report.quantities
    assert q["case"] == "ii"
    assert q["extra label introduced"] is True
    assert q["labels used"] == 3 == q["stated bound"]


def test_sequence_labeling_layer_sequences_distinct():
    report = sequence_labeling(path(3), cycle(5))
    assert report.passed
    n, m = 3, 5
    lab = report.witness
    layer_sequences = {tuple(lab.labels[x * m + i] for x in range(n)) for i in range(m)}
    assert len(layer_sequences) == m


def test_sequence_labeling_hypothesis_gating():
    report = sequence_labeling(path(3), complete(2))
    assert report.status == "not-applicable" and not report.hypotheses["H S-thin"]
    report = sequence_labeling(path(3), path(3))
    assert report.status == "not-applicable"
    assert not report.hypotheses["G and H non-isomorphic"]


def test_sequence_labeling_decides_factors_over_ten_vertices():
    # the non-isomorphism hypothesis is tested at any factor order
    report = sequence_labeling(path(12), cycle(5), Budgets(aut_vertices=60))
    assert report.passed and report.hypotheses["G and H non-isomorphic"]
    assert report.witness.r == report.quantities["labels used"]


def test_lift_edge_labeling():
    g = strong_product(path(3), path(4))
    h = cartesian_product(path(3), path(4))
    base = distinguishing_index(h)
    lifted = lift_edge_labeling(g, h, base.witness)
    assert set(lifted.labels) == set(g.edges)
    non_h = set(g.edges) - set(h.edges)
    assert all(lifted.labels[e] == 1 for e in non_h)
    assert all(lifted.labels[e] == base.witness.labels[e] for e in h.edges)
    assert is_distinguishing_edge(g, lifted)
    # lifting onto itself changes nothing
    again = lift_edge_labeling(h, h, base.witness)
    assert again.labels == base.witness.labels
    # C4 spans K4 but Aut(K4) is not inside Aut(C4)
    with pytest.raises(ValueError):
        lift_edge_labeling(complete(4), cycle(4), EdgeLabeling(
            {e: i + 1 for i, e in enumerate(cycle(4).edges)}, 4))
    with pytest.raises(ValueError):
        lift_edge_labeling(cycle(4), complete(4), EdgeLabeling(
            {e: 1 for e in complete(4).edges}, 1))


def test_check_lift():
    report = check_lift(path(3), path(4))
    assert report.passed and report.quantities["lift distinguishing"]
    report = check_lift(complete(2), complete(2))
    assert report.status == "not-applicable"
    assert not report.hypotheses["Aut(strong) subgroup of Aut(cartesian)"]


def test_check_index_bounds():
    assert check_index_monotone(path(3), path(4)).passed
    assert check_index_sthin(path(3), path(4)).passed
    # K2 x K2: exact values 3 and 3 satisfy the +1 form
    report = check_index_monotone(complete(2), complete(2))
    assert report.passed
    assert report.quantities["D'(strong)"] == "3 (exact)"
    assert report.quantities["D'(cartesian)"] == "3 (exact)"
    # but the equal-groups form does not apply to non-S-thin factors
    assert check_index_sthin(complete(2), complete(2)).status == "not-applicable"


def test_check_traceable_index():
    assert check_traceable_index([path(3), path(3)]).passed
    assert check_traceable_index([path(2), path(4)]).passed
    report = check_traceable_index([complete(2), complete(2)])
    assert report.status == "not-applicable"
    assert not report.hypotheses["product order at least 7"]
    report = check_traceable_index([complete(4), complete(4)])
    assert report.status == "not-applicable"  # max degree 3 > 2 factors
    report = check_traceable_index([path(3), path(3), path(3)], Budgets(
        aut_vertices=27, hamiltonian_vertices=27))
    assert report.passed


def test_power_index_instance():
    result = distinguishing_index(strong_power(path(3), 2))
    assert result.value == 2


def test_run_all_small_corpus():
    corpus = [("P3", path(3)), ("P4", path(4)), ("K2", complete(2))]
    reports = run_all(corpus)
    assert all_applicable_pass(reports)
    assert any(r.check == "number-equality-sthin" and r.passed for r in reports)
    assert any(r.status == "not-applicable" for r in reports)
    # deterministic ordering and labels
    again = run_all(corpus)
    assert [(r.check, r.instance, r.status) for r in reports] == \
        [(r.check, r.instance, r.status) for r in again]


def test_run_all_empty_and_gating():
    assert run_all([]) == []
    # a disconnected instance violates the connectivity hypothesis of every
    # check, so the run is all not-applicable yet still aggregates to success
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    reports = run_all([("2K2", disconnected)])
    assert reports and all(r.status == "not-applicable" for r in reports)
    assert all_applicable_pass(reports)
    # K2 violates only the S-thin-dependent hypotheses: those checks are
    # gated while the unconditional ones still run and pass
    reports = run_all([("K2", complete(2))])
    assert all_applicable_pass(reports)
    assert any(r.check == "number-sandwich" and r.passed for r in reports)
    assert any(r.check == "number-equality-sthin" and r.status == "not-applicable"
               for r in reports)


def test_run_all_on_k1():
    # K1 x K1 has no edge: its index is 1, not an error, so both index
    # checks that compute it decide the instance
    reports = run_all([("K1", complete(1))])
    assert [(r.check, r.status) for r in reports] == [
        ("number-sandwich", "pass"),
        ("layered-labeling", "pass"),
        ("number-equality-sthin", "not-applicable"),
        ("sequence-labeling-bound", "not-applicable"),
        ("index-bound-plus-one", "pass"),
        ("index-bound-sthin", "not-applicable"),
        ("index-lift", "pass"),
        ("traceable-index-two", "not-applicable"),
        ("power-number-two", "not-applicable"),
    ]


def test_run_all_extra_pairs():
    reports = run_all([], extra_pairs=[(("P3", path(3)), ("P4", path(4)))])
    assert reports and all_applicable_pass(reports)
    assert any(r.passed for r in reports)


def test_graph_name():
    assert graph_name(path(4)) == "P4"
    assert graph_name(cycle(5)) == "C5"
    assert graph_name(complete(4)) == "K4"
    assert graph_name(complete(1)) == "K1"
    assert graph_name(strong_product(path(3), path(3))) == "graph(n=9,m=20)"


def test_report_json_shape():
    report = check_number_sandwich(complete(2), complete(2))
    doc = report.to_json_dict()
    assert doc["status"] == "pass"
    assert set(doc) == {"check", "instance", "hypotheses", "quantities",
                        "status", "witness", "notes"}
    report = sequence_labeling(path(3), cycle(5))
    doc = report.to_json_dict()
    assert doc["witness"]["kind"] == "vertex"


def test_run_all_matches_direct_check_calls():
    # the memo shared within run_all changes no report
    bases = [("P3", path(3)), ("C4", cycle(4)), ("K2", complete(2))]
    expected = []
    for i, (na, a) in enumerate(bases):
        for nb, b in bases[i:]:
            lbl = f"{na} x {nb}"
            expected.append(check_number_sandwich(a, b, label=lbl))
            expected.append(check_layered_labeling(a, b, label=lbl))
            expected.append(check_number_equality(a, b, label=lbl))
            expected.append(sequence_labeling(a, b, label=lbl))
            if na != nb:
                expected.append(sequence_labeling(b, a, label=f"{nb} x {na}"))
            expected.append(check_index_monotone(a, b, label=lbl))
            expected.append(check_index_sthin(a, b, label=lbl))
            expected.append(check_lift(a, b, label=lbl))
            expected.append(check_traceable_index([a, b], label=lbl))
    for name, g in bases:
        expected.append(check_power_number(g, 2, label=f"{name}^2 (strong)"))
    assert run_all(bases) == expected


def test_run_all_builds_each_product_once(monkeypatch):
    # the checks of one run share the strong and Cartesian products of a
    # factor pair; a direct check call builds its own
    built = {"strong": [], "box": []}
    for kind, name, build in (("strong", "strong_product", strong_product),
                              ("box", "cartesian_product", cartesian_product)):
        def counting(g, h, kind=kind, build=build):
            built[kind].append((g, h))
            return build(g, h)

        monkeypatch.setattr(graphsym.checks, name, counting)
    run_all([(graph_name(g), g) for g in (path(2), path(3), cycle(4), complete(3))])
    for kind, pairs in built.items():
        assert pairs and len(pairs) == len(set(pairs)), kind
    for _ in range(2):
        built["strong"].clear()
        assert check_lift(path(3), path(4)).passed
        assert built["strong"] == [(path(3), path(4))]


def test_run_all_builds_no_product_over_the_size_gates(monkeypatch):
    # every check tests its factor hypotheses and its size gate before it
    # builds a product, so no product over the automorphism bound is built
    orders = []
    for name, build in (("strong_product", strong_product),
                        ("cartesian_product", cartesian_product)):
        def recording(g, h, build=build):
            orders.append(g.n * h.n)
            return build(g, h)

        monkeypatch.setattr(graphsym.checks, name, recording)
    run_all(default_corpus())
    assert orders and max(orders) <= DEFAULT_BUDGETS.aut_vertices


def test_index_checks_share_their_product_hypotheses():
    # over budget, both index checks carry only the factor hypotheses; in
    # budget, the product hypotheses follow them
    factors = ["G connected", "H connected"]
    over = check_index_monotone(path(3), cycle(7))
    assert over.status == "not-applicable" and "budget" in over.notes[0]
    assert over.hypotheses == check_lift(path(3), cycle(7)).hypotheses
    assert list(over.hypotheses) == factors
    spans = factors + ["cartesian spans strong"]
    assert list(check_index_monotone(path(3), path(4)).hypotheses) == spans
    assert list(check_lift(path(3), path(4)).hypotheses) == spans + [
        "Aut(strong) subgroup of Aut(cartesian)"]


def test_direct_check_calls_retain_nothing(monkeypatch):
    # nothing is kept outside the graphs a call is given: each call builds
    # its factors and products afresh, so it searches their groups again
    calls = []

    def counting(graph, **kwargs):
        calls.append(graph)
        return automorphism_group(graph, **kwargs)

    monkeypatch.setattr(graphsym.distinguishing, "automorphism_group", counting)
    for check in (check_lift, check_number_sandwich, check_index_monotone):
        counts = []
        for _ in range(2):
            calls.clear()
            assert check(path(3), path(4)).passed
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, check.__name__


def test_run_all_leaves_no_reference_cycles():
    # the run's caches close over its budgets, never over the run, so
    # reference counting alone frees a finished run and all it built
    gc.collect()
    gc.disable()
    try:
        run_all(default_corpus()[:6])
        assert gc.collect() == 0
    finally:
        gc.enable()


PAIR_PARAMETERS = [("g", inspect.Parameter.empty), ("h", inspect.Parameter.empty),
                   ("budgets", DEFAULT_BUDGETS), ("label", None)]


@pytest.mark.parametrize("name, parameters", [
    ("check_number_sandwich", PAIR_PARAMETERS),
    ("check_layered_labeling", PAIR_PARAMETERS),
    ("check_number_equality", PAIR_PARAMETERS),
    ("sequence_labeling", PAIR_PARAMETERS),
    ("check_index_monotone", PAIR_PARAMETERS),
    ("check_index_sthin", PAIR_PARAMETERS),
    ("check_lift", PAIR_PARAMETERS),
    ("check_power_number", [("g", inspect.Parameter.empty), ("k", inspect.Parameter.empty),
                            ("budgets", DEFAULT_BUDGETS), ("label", None)]),
    ("check_traceable_index", [("factors", inspect.Parameter.empty),
                               ("budgets", DEFAULT_BUDGETS), ("label", None)]),
])
def test_public_checks_keep_their_interface(name, parameters):
    # what help() shows: the signature, the name and the docstring written
    # on the def of that name in checks.py, for a pair check the declared body
    check = getattr(graphsym, name)
    signature = inspect.signature(check)
    assert [(p.name, p.default) for p in signature.parameters.values()] == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())
    assert check.__name__ == check.__qualname__ == name
    tree = ast.parse(inspect.getsource(graphsym.checks))
    declared, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == name)
    assert ast.get_docstring(declared)
    assert inspect.getdoc(check) == ast.get_docstring(declared)


@pytest.mark.parametrize("name, parameters", [
    ("is_distinguishing_vertex", ["graph", "labeling"]),
    ("is_distinguishing_edge", ["graph", "labeling"]),
    ("layered_labeling", ["g", "h", "phi"]),
    ("lift_edge_labeling", ["g", "h", "labeling"]),
])
def test_labeling_tests_take_budgets_not_a_group(name, parameters):
    # Aut(G) comes from the graph under the budgets, as for
    # distinguishing_number: no labeling test or construction takes a group
    signature = inspect.signature(getattr(graphsym, name))
    expected = [(p, inspect.Parameter.empty) for p in parameters] + [("budgets", DEFAULT_BUDGETS)]
    assert [(p.name, p.default) for p in signature.parameters.values()] == expected
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())


def test_labeling_tests_search_within_the_budgets_given():
    p25 = path(25)
    vertex = VertexLabeling((1,) * 24 + (2,), 2)
    edge = EdgeLabeling({e: 1 + (e == (23, 24)) for e in p25.edges}, 2)
    calls = [
        lambda b: is_distinguishing_vertex(p25, vertex, b),
        lambda b: is_distinguishing_edge(p25, edge, b),
        lambda b: layered_labeling(p25, path(2), vertex, b).r,
        lambda b: lift_edge_labeling(p25, p25, edge, b).r,
    ]
    for call in calls:
        with pytest.raises(BudgetExceeded) as exc:
            call(DEFAULT_BUDGETS)
        assert str(exc.value) == "graph has 25 vertices, above the automorphism bound 20"
    assert [call(Budgets(aut_vertices=25)) for call in calls] == [True, True, 4, 2]
