import hashlib
import inspect
import itertools
import json
import random

import pytest

from graphsym import (
    DEFAULT_BUDGETS,
    AutomorphismGroup,
    BudgetExceeded,
    Budgets,
    EdgeLabeling,
    Graph,
    VertexLabeling,
    automorphism_group,
    cartesian_product,
    complete,
    cycle,
    distinguishing_index,
    distinguishing_number,
    hamiltonian_path_exists,
    identity,
    is_distinguishing_edge,
    is_distinguishing_vertex,
    parse_graph6,
    path,
    strong_product,
)
from graphsym.checks import default_corpus
from graphsym.distinguishing import (
    _Chain,
    _chain,
    _exhaustive_minimum,
    _randomized_minimum,
    _row_columns,
    _row_masks,
    _tie_masks,
    _tie_pairs,
    _unbroken_row,
)
from oracles import (
    all_connected_graphs,
    connected_graph_sample,
    edge_rows,
    naive_distinguishing_index,
    naive_distinguishing_number,
    reference_minimum,
    reference_preserving_row,
    reference_row_masks,
    reference_transposition_class_bound,
    vertex_rows,
)
from test_acceptance import criterion


def test_is_distinguishing_vertex_examples():
    p3 = path(3)
    assert is_distinguishing_vertex(p3, VertexLabeling((1, 1, 2), 2))
    assert not is_distinguishing_vertex(p3, VertexLabeling((1, 1, 1), 1))
    c4 = cycle(4)
    # the reflection swapping 0<->1 and 2<->3 preserves (1,1,2,2)
    assert not is_distinguishing_vertex(c4, VertexLabeling((1, 1, 2, 2), 2))


def test_is_distinguishing_edge_examples():
    p3 = path(3)
    assert is_distinguishing_edge(p3, EdgeLabeling({(0, 1): 1, (1, 2): 2}, 2))
    k2 = complete(2)
    assert not is_distinguishing_edge(k2, EdgeLabeling({(0, 1): 1}, 1))
    # around C6, the labels 1,1,2,2,2,2 survive a reflection (oracle-checked)
    c6 = cycle(6)
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    labels = dict(zip(ring, (1, 1, 2, 2, 2, 2)))
    assert not is_distinguishing_edge(c6, EdgeLabeling(labels, 2))
    with pytest.raises(ValueError):
        is_distinguishing_edge(p3, EdgeLabeling({(0, 1): 1}, 1))


def test_labeling_shape_errors():
    p3 = path(3)
    with pytest.raises(ValueError, match="labeling length does not match vertex count"):
        is_distinguishing_vertex(p3, VertexLabeling((1, 2), 2))
    with pytest.raises(ValueError, match="labeling length does not match vertex count"):
        is_distinguishing_vertex(p3, VertexLabeling((1, 2, 1, 2), 2))
    # keys outside the edge set, with or without every edge present
    for labels in ({(0, 1): 1, (0, 2): 2}, {(0, 1): 1, (1, 2): 2, (0, 2): 1}):
        with pytest.raises(ValueError, match="labeling domain is not exactly the edge set"):
            is_distinguishing_edge(p3, EdgeLabeling(labels, 2))


def test_stabilizer_formulation_matches_direct_definition():
    rng = random.Random(7)
    for g in (path(4), cycle(5), complete(4), strong_product(path(3), path(2))):
        group = automorphism_group(g)
        ident = identity(g.n)
        for _ in range(25):
            r = rng.randint(1, 3)
            labels = tuple(rng.randint(1, r) for _ in range(g.n))
            lab = VertexLabeling(labels, r)
            stabilizer = [
                p for p in group.elements
                if all(labels[p[v]] == labels[v] for v in range(g.n))
            ]
            assert is_distinguishing_vertex(g, lab) == (stabilizer == [ident])


def test_distinguishing_number_known_values():
    assert distinguishing_number(path(4)).value == 2
    assert distinguishing_number(cycle(5)).value == 3
    assert distinguishing_number(complete(4)).value == 4
    k1 = distinguishing_number(complete(1))
    assert k1.value == 1 and k1.lower_bound_reason == "asymmetric"


def test_distinguishing_index_known_values():
    assert distinguishing_index(path(5)).value == 2
    assert distinguishing_index(cycle(4)).value == 3
    assert distinguishing_index(strong_product(path(2), path(2))).value == 3
    undef = distinguishing_index(complete(2))
    assert undef.mode == "undefined" and undef.value is None
    assert distinguishing_index(Graph.from_edges(3, [])).mode == "undefined"


def test_index_is_undefined_when_a_swap_of_isolated_vertices_fixes_every_edge():
    # K2 plus two isolated vertices: the first edge-fixing element in the
    # group is the swap of the isolated vertices, not K2's swap
    k2_plus = Graph.from_edges(4, [(0, 1)])
    assert automorphism_group(k2_plus).elements[1] == (0, 1, 3, 2)
    undef = distinguishing_index(k2_plus)
    assert (undef.value, undef.mode, undef.witness) == (None, "undefined", None)
    # P3 alone has index 2; two isolated vertices beside it make it undefined
    assert distinguishing_index(path(3)).value == 2
    assert distinguishing_index(Graph.from_edges(5, [(0, 1), (1, 2)])).mode == "undefined"
    # vertices never meet that rule: the number stays defined
    assert distinguishing_number(k2_plus).value == 2


def test_edge_test_rejects_a_group_that_is_not_of_automorphisms():
    p3 = path(3)
    # (1 0 2) maps the edge {1, 2} to the non-edge {0, 2}; planted as the
    # level-0 representative of a group in the slot where the graph keeps
    # its group, it is what the test reads
    fake = AutomorphismGroup(3, ((0, ((0, 1, 2), (1, 0, 2))),))
    object.__setattr__(p3, "_aut", fake)
    labeling = EdgeLabeling({(0, 1): 1, (1, 2): 2}, 2)
    with pytest.raises(RuntimeError, match="internal fault"):
        is_distinguishing_edge(p3, labeling)


def test_search_defaults_equal_the_default_budgets():
    # the searches repeat two Budgets defaults in their keyword signatures
    def default(search):
        return inspect.signature(search).parameters["max_vertices"].default

    assert default(automorphism_group) == DEFAULT_BUDGETS.aut_vertices
    assert default(hamiltonian_path_exists) == DEFAULT_BUDGETS.hamiltonian_vertices


def test_results_are_exact_with_verified_witness_in_budget():
    for g in (path(6), cycle(6), complete(5)):
        num = distinguishing_number(g)
        assert num.mode == "exact"
        assert num.witness.r == num.value
        assert len(set(num.witness.labels)) == num.value
        assert is_distinguishing_vertex(g, num.witness)
        idx = distinguishing_index(g)
        assert idx.mode == "exact"
        assert is_distinguishing_edge(g, idx.witness)


def test_certified_mode_above_budget():
    g = strong_product(path(3), cycle(5))  # 15 vertices, 52 edges
    num = distinguishing_number(g)
    assert num.mode == "certified-upper" and num.value == 2
    assert num.lower_bound_reason == "nontrivial-aut"
    assert num.bounds == (2, 2) and num.is_tight
    assert is_distinguishing_vertex(g, num.witness)
    idx = distinguishing_index(g)
    assert idx.mode == "certified-upper" and idx.value == 2
    assert is_distinguishing_edge(g, idx.witness)


def test_witness_survives_declaring_a_larger_palette():
    for g in (path(5), cycle(6)):
        num = distinguishing_number(g)
        widened = VertexLabeling(num.witness.labels, num.value + 1)
        assert is_distinguishing_vertex(g, widened)


def test_trivial_group_iff_value_one():
    graphs = [path(n) for n in range(1, 7)] + [cycle(n) for n in range(3, 7)]
    graphs += [complete(n) for n in range(1, 5)]
    graphs += [Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])]
    for g in graphs:
        trivial = automorphism_group(g).order == 1
        assert (distinguishing_number(g).value == 1) == trivial


def test_complete_graphs_are_the_extreme_case():
    for n in range(2, 6):
        assert distinguishing_number(complete(n)).value == n
    for g in (path(4), cycle(5), cycle(6), strong_product(path(2), path(3))):
        assert distinguishing_number(g).value < g.n


def test_oracle_agreement_small_graphs():
    sample = [
        path(4), cycle(4), cycle(5), complete(4),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]),
    ]
    for g in sample:
        assert distinguishing_number(g).value == naive_distinguishing_number(g)
        expected = naive_distinguishing_index(g)
        got = distinguishing_index(g)
        if expected is None:
            assert got.mode == "undefined"
        else:
            assert got.value == expected


def test_oracle_agreement_on_edgeless_graphs():
    # K1 has the trivial group and index 1; on two or more isolated
    # vertices a swap fixes every (absent) edge, so the index is undefined
    for n in range(1, 5):
        g = Graph.from_edges(n, [])
        expected = naive_distinguishing_index(g)
        got = distinguishing_index(g)
        assert expected == (1 if n == 1 else None)
        assert (got.value, got.mode) == ((1, "exact") if n == 1 else (None, "undefined"))


def test_oracle_agreement_seven_vertices():
    from oracles import connected_graph_sample

    for g in connected_graph_sample(7, 8, seed=3) + [path(7), cycle(7)]:
        assert distinguishing_number(g).value == naive_distinguishing_number(g)


def test_determinism():
    g = strong_product(path(3), path(4))
    first = distinguishing_number(g)
    second = distinguishing_number(g)
    assert first == second
    b = Budgets(seed=0)
    assert distinguishing_index(g, b) == distinguishing_index(g, b)


def test_labeling_validation():
    with pytest.raises(ValueError):
        VertexLabeling((0, 1), 2)
    with pytest.raises(ValueError):
        VertexLabeling((1, 3), 2)
    with pytest.raises(ValueError):
        EdgeLabeling({(1, 0): 1}, 1)
    with pytest.raises(ValueError):
        EdgeLabeling({(0, 1): 2}, 1)


def test_exhaustive_palette_pruning_is_sound():
    # every distinguishing labeling has a palette-renamed canonical twin,
    # so pruning cannot change the computed value: compare against a raw
    # enumeration without any pruning
    for g in (cycle(4), complete(3), path(5)):
        raw = None
        for r in range(1, g.n + 1):
            found = any(
                is_distinguishing_vertex(g, VertexLabeling(labels, r))
                for labels in itertools.product(range(1, r + 1), repeat=g.n)
            )
            if found:
                raw = r
                break
        assert distinguishing_number(g).value == raw


def _assert_matches_reference(g, budgets):
    """Same value and same witness as generate-and-test over growth strings."""
    rows = vertex_rows(g)
    value, labels = reference_minimum(g.n, rows)
    got = distinguishing_number(g, budgets)
    assert got.mode == "exact"
    assert (got.value, got.witness.labels, got.witness.r) == (value, labels, value)
    assert _chain(g, budgets, on_edges=False).transposition_class_bound() <= value
    if not g.edge_count or g.edge_count > budgets.exact_edges:
        return
    rows = edge_rows(g)
    expected = reference_minimum(g.edge_count, rows)
    got = distinguishing_index(g, budgets)
    if expected is None:
        assert got.mode == "undefined"
        return
    value, labels = expected
    assert got.mode == "exact"
    assert got.value == value and got.witness.r == value
    assert tuple(got.witness.labels[e] for e in g.edges) == labels
    assert _chain(g, budgets, on_edges=True).transposition_class_bound() <= value


def test_witness_matches_reference_search_small_graphs():
    budgets = Budgets(exact_vertices=6, exact_edges=15)
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    graphs += connected_graph_sample(6, 200, seed=0)
    for g in graphs:
        _assert_matches_reference(g, budgets)


def test_witness_matches_reference_search_products():
    for g in (
        strong_product(path(2), path(3)),
        strong_product(cycle(4), complete(2)),
        cartesian_product(complete(2), complete(3)),
    ):
        _assert_matches_reference(g, DEFAULT_BUDGETS)


def test_transposition_class_bound_on_twins_and_pendant_edges():
    # K_{1,4}: the four leaves are pairwise twins, and so are the four edges
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert _chain(star, DEFAULT_BUDGETS, on_edges=False).transposition_class_bound() == 4
    assert _chain(star, DEFAULT_BUDGETS, on_edges=True).transposition_class_bound() == 4
    assert distinguishing_number(star).value == 4
    assert distinguishing_index(star).value == 4
    # C5 has no transposition automorphism
    assert _chain(cycle(5), DEFAULT_BUDGETS, on_edges=False).transposition_class_bound() == 1


def test_each_graph_keeps_its_edge_chain(monkeypatch):
    # two edge tests on one graph build one chain; an order budget the
    # group exceeds is still refused, before the kept chain is read
    built = []
    init = _Chain.__init__
    monkeypatch.setattr(_Chain, "__init__",
                        lambda self, graph, group, on_edges: built.append(on_edges)
                        or init(self, graph, group, on_edges))
    g = cycle(5)
    # one edge labelled 2: the reflection through that edge preserves it
    labeling = EdgeLabeling({e: 1 + (e == g.edges[0]) for e in g.edges}, 2)
    assert not is_distinguishing_edge(g, labeling)
    assert not is_distinguishing_edge(g, labeling)
    assert built == [True]
    with pytest.raises(BudgetExceeded):
        is_distinguishing_edge(g, labeling, Budgets(aut_max_order=5))
    assert built == [True]


def test_randomized_search_starts_at_the_transposition_class_bound():
    # five pendant leaves at vertex 0 need five labels; with 16 vertices and
    # 15 edges both values come from the randomized search, which must not
    # spend its trial budget on the label counts below the bound
    tree = Graph.from_edges(16, [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(6, 15)])
    with criterion(17, 0.1, "D and D' of a 16-vertex tree with a five-leaf vertex"):
        number = distinguishing_number(tree)
        index = distinguishing_index(tree)
    assert (number.value, number.mode) == (5, "certified-upper")
    assert (index.value, index.mode) == (5, "certified-upper")
    assert is_distinguishing_vertex(tree, number.witness)
    assert is_distinguishing_edge(tree, index.witness)


def _orbit_labels(size, chosen, rng, r=None):
    """Labels constant on the orbits of the group the chosen rows generate,
    so that every chosen row preserves them: one label per orbit, or a
    random one of 1..r per orbit."""
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for row in chosen:
        for i, j in enumerate(row):
            parent[find(i)] = find(j)
    label = {}
    for root in sorted({find(i) for i in range(size)}):
        label[root] = len(label) + 1 if r is None else rng.randint(1, r)
    return [label[find(i)] for i in range(size)]


def _stabilizer_test_graphs():
    graphs = [
        strong_product(path(10), complete(2)),
        strong_product(path(2), cycle(8)),
        cartesian_product(complete(2), complete(3)),
    ]
    rng = random.Random(18)
    while len(graphs) < 63:
        n = rng.randint(2, 8)
        p = rng.uniform(0.2, 0.8)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        if g.edge_count:
            graphs.append(g)
    return graphs


# no order cap, as in automorphism_group's defaults: every group is found
_UNCAPPED = Budgets(aut_max_order=None)


def _stabilizer_test_cases():
    """(chain, rows) on the vertices and on the edges of each graph."""
    for g in _stabilizer_test_graphs():
        chain = _chain(g, _UNCAPPED, on_edges=False)
        yield chain, chain.rows()
        chain = _chain(g, _UNCAPPED, on_edges=True)
        rows = chain.rows()
        if tuple(range(g.edge_count)) not in rows:  # undefined index: no search runs
            yield chain, rows


def test_mask_test_returns_the_reference_row():
    rng = random.Random(8)
    outcomes = {True: 0, False: 0}
    for chain, rows in _stabilizer_test_cases():
        if not rows:
            continue
        size = len(rows[0])
        pairs = _tie_pairs(size, rows)
        labelings = [[rng.randint(1, r) for _ in range(size)] for r in (2, 3) for _ in range(30)]
        for _ in range(10):
            # preserved by one chosen row, or by several
            chosen = [rng.choice(rows)]
            labelings.append(_orbit_labels(size, chosen, rng))
            labelings.append(_orbit_labels(size, chosen, rng, r=3))
            several = rng.sample(rows, min(len(rows), rng.randint(2, 3)))
            labelings.append(_orbit_labels(size, several, rng))
            labelings.append(_orbit_labels(size, several, rng, r=2))
        # preserved by the last row, whose bit is the highest a mask can hold
        labelings.append(_orbit_labels(size, [rows[-1]], rng))
        for labels in labelings:
            expected = reference_preserving_row(labels, rows)
            assert _unbroken_row(labels, rows, pairs) == expected
            assert chain.first_preserving(labels) == expected
            outcomes[expected is None] += 1
    assert min(outcomes.values()) > 1000  # both distinguishing and preserved labelings


def _rows_down(columns):
    """The rows that columns spell, read down them: bytes columns hold
    positions as ints, str columns as characters, last row first."""
    rows = [tuple(c if isinstance(c, int) else ord(c) for c in row) for row in zip(*columns)]
    return rows[::-1]


def test_row_masks_match_the_row_by_row_build():
    count = 0
    for chain, rows in _stabilizer_test_cases():
        if rows:
            size = len(rows[0])
            assert _row_masks(size, _row_columns(size, rows)) == reference_row_masks(size, rows)
            columns = chain.columns()
            down = _rows_down(columns)
            assert _row_masks(size, columns) == reference_row_masks(size, down)
            count += 1
    assert count > 80
    # a row moving nothing is settled at position 0
    rows = [(1, 0, 2), (0, 1, 2), (0, 2, 1)]
    columns = _row_columns(3, rows)
    assert _rows_down(columns) == rows
    assert _row_masks(3, columns) == reference_row_masks(3, rows) == ([{}, {0: 1}, {1: 4}], [2, 1, 4])


def _wide_chains():
    """Vertex and edge chains of C136 and C300: positions past the ASCII
    range, and past the byte range."""
    budgets = Budgets(aut_vertices=300, aut_max_order=None)
    for n in (136, 300):
        for on_edges in (False, True):
            yield _chain(cycle(n), budgets, on_edges)


def test_chain_columns_hold_every_element_once():
    # read down the columns, the rows are the group's non-identity
    # elements, each once: the same set as the listed elements
    chains = [_chain(g, _UNCAPPED, on_edges) for g in _stabilizer_test_graphs()
              for on_edges in (False, True)]
    sizes = set()
    for chain in chains + list(_wide_chains()):
        columns = chain.columns()
        assert len(columns) == chain.size
        down = _rows_down(columns)
        assert len(down) == chain.group.order - 1
        assert set(down) == set(chain.rows()), chain.group
        sizes.add(chain.size)
    assert {136, 300} <= sizes


def test_chain_columns_past_the_ascii_and_byte_ranges():
    for chain in _wide_chains():
        columns = chain.columns()
        assert type(columns[0]) is (bytes if chain.size <= 256 else str)
        assert _row_masks(chain.size, columns) == reference_row_masks(chain.size, _rows_down(columns))


def test_walk_lists_the_rows_and_bounds_the_transposition_classes():
    # the walk with no effective limit gives every row in list order; with
    # limit 2 under distinct labels it gives the oracle's transposition-class
    # bound, or None exactly when some row fixes every position
    undefined = 0
    for g in _stabilizer_test_graphs():
        for on_edges in (False, True):
            chain = _chain(g, _UNCAPPED, on_edges)
            rows = list(chain.rows())
            size = chain.size
            assert [row for row, _ in chain.walk(range(size), size)] == rows
            if tuple(range(size)) in rows:
                assert chain.transposition_class_bound() is None
                undefined += 1
            else:
                expected = reference_transposition_class_bound(size, rows)
                assert chain.transposition_class_bound() == expected
    assert undefined > 0


def _corpus_products():
    """Strong and Cartesian products of the default corpus within the
    default automorphism bound."""
    factors = [g for _, g in default_corpus()]
    return [op(a, b) for a, b in itertools.combinations_with_replacement(factors, 2)
            for op in (strong_product, cartesian_product) if a.n * b.n <= 20]


def test_twin_bound_equals_the_walk():
    # on the vertices the transposition classes are read from the twins,
    # with no walk; the walk at limit 2 must find the same classes
    nx = pytest.importorskip("networkx")
    graphs = [Graph.from_edges(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()]
    assert len(graphs) == 1253 and max(g.n for g in graphs) == 7
    # no order cap and no node budget: K4 x K5 is K20, of order 20!
    budgets = Budgets(aut_max_order=None, aut_nodes=None)
    bounds = set()
    for g in graphs + _corpus_products():
        chain = _chain(g, budgets, on_edges=False)
        bound = chain.transposition_class_bound()
        assert bound == chain.walked_class_bound(), g
        bounds.add(bound)
    # up to 7 on the atlas (K7, seven isolated vertices); 15, 16 and 20 from
    # K3 x K5, K4 x K4 and K4 x K5, which are complete graphs
    assert bounds == {*range(1, 11), 12, 15, 16, 20}


def test_walk_at_intermediate_limits_yields_the_rows_within_the_limit():
    # at limit L the walk yields, in list order, exactly the rows that carry
    # at most L labels onto a position labelled otherwise, with that count
    rng = random.Random(25)
    yielded, partial = {1: 0, 3: 0}, 0
    for g in _stabilizer_test_graphs():
        for on_edges in (False, True):
            chain = _chain(g, _UNCAPPED, on_edges)
            rows = chain.rows()
            size = chain.size
            for r in (2, 3):
                for _ in range(3):
                    labels = [rng.randint(1, r) for _ in range(size)]
                    missed = [sum(labels[row[i]] != labels[i] for i in range(size))
                              for row in rows]
                    for limit in (1, 3):
                        expected = [(row, m) for row, m in zip(rows, missed) if m <= limit]
                        assert list(chain.walk(labels, limit)) == expected, (g, on_edges)
                        yielded[limit] += len(expected)
                        partial += sum(1 for _, m in expected if m)
    # a row keeps the count of each label, so no row misses exactly one: at
    # limit 1 the walk yields the preserving rows, at limit 3 also rows
    # that miss 2 or 3
    assert min(yielded.values()) > 100 and partial > 1000


def test_labeling_tests_list_no_elements():
    # the walk answers from the representatives; a randomized search whose
    # first labeling distinguishes never reaches its first repair
    g = strong_product(path(4), cycle(3))
    labels = dict.fromkeys(g.edges, 1)
    labels[g.edges[0]] = 2
    assert not is_distinguishing_edge(g, EdgeLabeling(labels, 2))
    group = automorphism_group(g)
    assert group.order == 2592 and "elements" not in vars(group)
    g = strong_product(cycle(4), cycle(5))
    result = distinguishing_index(g)
    assert (g.n, result.value, result.mode) == (20, 2, "certified-upper")
    group = automorphism_group(g)
    assert group.order == 80 and "elements" not in vars(group)
    # the exhaustive searches read the chain's columns
    g = strong_product(path(4), cycle(3))
    result = distinguishing_number(g)
    assert (g.n, result.value, result.mode) == (12, 4, "exact")
    assert "elements" not in vars(automorphism_group(g))
    g = strong_product(path(2), path(3))
    result = distinguishing_index(g)
    assert (g.edge_count, result.value, result.mode) == (11, 2, "exact")
    assert "elements" not in vars(automorphism_group(g))
    # reading them lists them, sorted
    assert list(group.elements) == sorted(group.elements) and "elements" in vars(group)


@pytest.mark.parametrize("size", [136, 300])
def test_row_masks_past_the_ascii_and_byte_ranges(size):
    # groups with D = 2 moved onto the last positions, so that both searches
    # find the witness among the first strings: positions 128 and up are
    # non-ASCII characters, 256 and up do not fit in a byte
    for rows in (vertex_rows(cycle(8)), vertex_rows(path(6)), edge_rows(cycle(7))):
        shift = size - len(rows[0])
        wide = [tuple(range(shift)) + tuple(shift + j for j in row) for row in rows]
        columns = _row_columns(size, wide)
        assert _row_masks(size, columns) == reference_row_masks(size, wide)
        value, labels = reference_minimum(size, wide)
        assert _exhaustive_minimum(size, columns, 2) == (value, labels)
        assert value == 2 and labels[:shift] == (1,) * shift


@pytest.mark.parametrize("size", [12, 255, 256, 257, 300])
def test_tie_masks_match_the_row_by_row_build_on_few_rows(size):
    # bytes columns up to 256 positions, str columns past them; fewer than
    # 10 rows make masks of fewer than 10 bits
    rng = random.Random(size)
    for count in range(10):
        rows = [tuple(rng.sample(range(size), size)) for _ in range(count)]
        if count:
            # a row moving only the last two positions
            rows[0] = tuple(range(size - 2)) + (size - 1, size - 2)
        assert _tie_masks(size, _row_columns(size, rows)) == reference_row_masks(size, rows)[0]


def _randomized_searches(graphs):
    """(graph, on_edges) for each graph and side the randomized search can
    run on: a nontrivial group within the default budgets, and a minimum
    that is defined."""
    for g in graphs:
        for on_edges in (False, True):
            try:
                chain = _chain(g, DEFAULT_BUDGETS, on_edges)
            except BudgetExceeded:
                break
            if chain.levels and chain.transposition_class_bound() is not None:
                yield g, on_edges


# a tenth of the default trials: a search without a two-label witness
# spends them all at r = 2, whichever test it runs
_FEW_TRIALS = Budgets(trials=1000)


def _forced_minimum(monkeypatch, g, on_edges, order):
    """_randomized_minimum on a fresh copy of g, with its group's order read
    as order: -1 lists the rows before the first test, inf never lists."""
    g = Graph.from_edges(g.n, g.edges)
    chain = _chain(g, _FEW_TRIALS, on_edges)
    start = max(2, chain.transposition_class_bound())
    if order is None:
        found = _randomized_minimum(chain, _FEW_TRIALS, start)
    else:
        with monkeypatch.context() as patch:
            patch.setattr(AutomorphismGroup, "order", order)
            found = _randomized_minimum(chain, _FEW_TRIALS, start)
    return found, "elements" in vars(chain.group)


def _assert_switch_keeps_the_result(monkeypatch, graphs):
    sides = {"walk": 0, "list": 0}
    for g, on_edges in _randomized_searches(graphs):
        walked, listed = _forced_minimum(monkeypatch, g, on_edges, float("inf"))
        assert not listed
        assert _forced_minimum(monkeypatch, g, on_edges, -1) == (walked, True)
        found, listed = _forced_minimum(monkeypatch, g, on_edges, None)
        assert found == walked
        sides["list" if listed else "walk"] += 1
    return sides


def test_randomized_switch_keeps_the_result_on_the_corpus_products(monkeypatch):
    # the walk and the listed rows give the same first preserving row, so
    # the search finds the same labeling whichever test it runs
    factors = [g for _, g in default_corpus()]
    products = [op(a, b) for a, b in itertools.combinations_with_replacement(factors, 2)
                for op in (strong_product, cartesian_product) if a.n * b.n <= 20]
    sides = _assert_switch_keeps_the_result(monkeypatch, products)
    assert sides["walk"] > 50 and sides["list"] > 0


def test_randomized_switch_keeps_the_result_on_the_query_products(monkeypatch, query_products):
    sides = _assert_switch_keeps_the_result(monkeypatch, [g for _, g in query_products])
    # the futile r = 2 trials of products like P10 x K2 turn to the listed rows
    assert sides["walk"] > 0 and sides["list"] > 0


def test_certified_lower_bound_is_the_transposition_class_bound():
    # a 14-vertex tree whose vertex 10 carries three leaves: every
    # labeling needs three labels there, so the certified 3 is tight
    g = parse_graph6("M?_G@PC?C__@__A??")
    assert g.adj[10] == (0, 3, 9, 11)
    num = distinguishing_number(g)
    assert (num.value, num.mode) == (3, "certified-upper")
    assert num.bounds == (3, 3) and num.is_tight
    assert num.to_json_dict()["reason"] == "nontrivial-aut"
    assert _chain(g, DEFAULT_BUDGETS, on_edges=False).transposition_class_bound() == 3
    # P10 x K2 has twin pairs only: the bound is 2 and the witness needs 3
    num = distinguishing_number(strong_product(path(10), complete(2)))
    assert num.bounds == (2, 3) and not num.is_tight
    exact = distinguishing_number(path(4))
    assert exact.bounds == (2, 2) and exact.is_tight
    assert distinguishing_index(complete(2)).is_tight is False
    with pytest.raises(ValueError, match="no bounds"):
        distinguishing_index(complete(2)).bounds


def test_randomized_search_on_a_product_with_twin_classes():
    # P10 x K2 has D = 3 but no two-label witness, so the whole trial
    # budget is spent at r = 2; the witness is the one the linear scan found
    g = strong_product(path(10), complete(2))
    with criterion(18, 0.5, "D(P10 x K2) = 3 after a full trial budget at r = 2"):
        result = distinguishing_number(g)
    assert (result.value, result.mode) == (3, "certified-upper")
    assert result.witness.labels == (1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 3, 2, 1, 3, 1, 3, 1, 3, 3, 2)


def test_randomized_path_is_pinned(query_products):
    # D and D' of the 13-20-vertex query-mix products come from the
    # randomized search, so their witnesses follow its random trajectory;
    # a change that moves one must update this hash and say which
    out = []
    for _, g in query_products:
        for solve in (distinguishing_number, distinguishing_index):
            try:
                out.append(solve(g).to_json_dict())
            except BudgetExceeded as exc:
                out.append(str(exc))
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "f2e5c3903cb3936cf61b63f861e85032876f21c1b0fe96c75fb3beaf116bda5a"
