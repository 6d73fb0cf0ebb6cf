"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) and
asserts both the expected values and the stated time limit.
"""

import hashlib
import time
from contextlib import contextmanager

import pytest

from graphsym import (
    Budgets,
    automorphism_group,
    cartesian_product,
    complete,
    cycle,
    default_corpus,
    distinguishing_index,
    distinguishing_number,
    is_isomorphic,
    parse_graph6,
    path,
    run_all,
    strong_product,
)
from graphsym.checks import check_number_sandwich, check_traceable_index, check_lift
from graphsym.cli import dispatch
from oracles import (
    all_connected_graphs,
    brute_automorphisms,
    connected_graph_sample,
    naive_distinguishing_index,
    naive_distinguishing_number,
)

_elapsed = {}


@contextmanager
def criterion(number, limit, description):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        _elapsed[number] = elapsed
        status = "FAIL" if (failed or elapsed >= limit) else "PASS"
        print(f"criterion {number:2d} {status} ({elapsed:6.2f}s, limit {limit:g}s): {description}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s limit"


@pytest.fixture(scope="module")
def default_reports():
    with criterion(11, 10, "the harness run over the default corpus"):
        reports = run_all(default_corpus())
    return reports


def _timed_exact(fn, graph, expect):
    t0 = time.perf_counter()
    result = fn(graph)
    dt = time.perf_counter() - t0
    assert result.mode == "exact" and result.value == expect, (fn.__name__, graph, result)
    assert dt < 1.0, f"{fn.__name__} took {dt:.2f}s"


def test_criterion_1_known_values():
    with criterion(1, 60, "known distinguishing numbers and indices of paths, cycles, complete graphs"):
        for n in range(3, 9):
            _timed_exact(distinguishing_number, path(n), 2)
            _timed_exact(distinguishing_index, path(n), 2)
        for n, expect in [(3, 3), (4, 3), (5, 3), (6, 2), (7, 2), (8, 2)]:
            _timed_exact(distinguishing_number, cycle(n), expect)
            _timed_exact(distinguishing_index, cycle(n), expect)
        for n in range(2, 6):
            _timed_exact(distinguishing_number, complete(n), n)


def test_criterion_2_product_identities():
    with criterion(2, 60, "complete strong products collapse and trivial factors are identities"):
        for n in range(1, 5):
            for m in range(1, 5):
                t0 = time.perf_counter()
                assert is_isomorphic(strong_product(complete(n), complete(m)), complete(n * m))
                assert time.perf_counter() - t0 < 1.0
        k1 = complete(1)
        for _, g in default_corpus():
            t0 = time.perf_counter()
            assert strong_product(g, k1) == g
            assert time.perf_counter() - t0 < 1.0


def test_criterion_3_group_coincidence():
    with criterion(3, 10, "strong and Cartesian products of S-thin prime pairs share their group"):
        for g, h in [(path(3), path(4)), (path(3), cycle(5)), (path(4), cycle(5))]:
            a = automorphism_group(strong_product(g, h))
            b = automorphism_group(cartesian_product(g, h))
            assert a == b


def test_criterion_4_product_number_equalities():
    with criterion(4, 60, "distinguishing number 2 for path/cycle strong products"):
        for n, q in [(3, 3), (3, 4), (4, 4)]:
            r = distinguishing_number(strong_product(path(n), path(q)), Budgets(aut_vertices=16))
            assert r.value == 2 and r.is_tight
        r = distinguishing_number(strong_product(path(3), cycle(5)))
        assert r.value == 2 and r.is_tight
        r = distinguishing_number(strong_product(cycle(5), cycle(6)), Budgets(aut_vertices=30))
        assert r.value == 2 and r.is_tight


def test_criterion_5_sandwich_bound(default_reports):
    with criterion(5, 10, "two-sided bound holds on every computable corpus pair, tight for K2 x K2"):
        sandwiches = [r for r in default_reports if r.check == "number-sandwich"]
        applicable = [r for r in sandwiches if r.applicable]
        assert applicable, "no sandwich instance was computable"
        assert all(r.passed for r in applicable)
        sharp = check_number_sandwich(complete(2), complete(2))
        assert sharp.passed
        assert sharp.quantities["D(cartesian)"] == 3
        assert sharp.quantities["D(strong)"] == 4
        assert sharp.quantities["min(D(G)|V(H)|, |V(G)|D(H))"] == 4


def test_criterion_6_constructive_labelings(default_reports):
    with criterion(6, 60, "every executed construction yields a verified distinguishing labeling"):
        layered = [r for r in default_reports if r.check == "layered-labeling" and r.applicable]
        sequences = [r for r in default_reports if r.check == "sequence-labeling-bound" and r.applicable]
        assert layered and sequences
        assert all(r.passed for r in layered)
        assert all(r.passed for r in sequences)
        lift = check_lift(path(3), path(4))
        assert lift.passed and lift.quantities["lift distinguishing"]


def test_criterion_7_index_values():
    with criterion(7, 120, "distinguishing index values for small strong products"):
        b = Budgets(aut_max_order=20000)
        exact3 = distinguishing_index(strong_product(path(2), path(2)), b)
        assert exact3.value == 3 and exact3.mode == "exact"
        for m, n in [(2, 3), (3, 3), (3, 4)]:
            r = distinguishing_index(strong_product(path(m), path(n)), b)
            assert r.value == 2 and r.is_tight
        r = distinguishing_index(strong_product(cycle(3), cycle(4)), b)
        assert r.value == 2 and r.is_tight
        r = distinguishing_index(strong_product(path(3), cycle(4)), b)
        assert r.value == 2 and r.is_tight


def test_criterion_8_traceable_products():
    with criterion(8, 30, "traceable products of low-degree factors have two-label witnesses"):
        for factors in ([path(3), path(3)], [path(2), path(4)]):
            report = check_traceable_index(factors)
            assert report.passed
            assert report.quantities["traceable"] is True
        report = check_traceable_index([complete(2), complete(2)])
        assert report.status == "not-applicable"
        assert report.hypotheses["product order at least 7"] is False


def test_criterion_9_oracle_equivalence():
    with criterion(9, 600, "search results agree with naive enumeration oracles"):
        budgets = Budgets(exact_vertices=6, exact_edges=15)
        small = []
        for n in range(2, 6):
            small.extend(all_connected_graphs(n))
        six = connected_graph_sample(6, 200, seed=0)
        for g in small + six:
            assert list(automorphism_group(g).elements) == brute_automorphisms(g)
            assert distinguishing_number(g, budgets).value == naive_distinguishing_number(g)
            if g.edge_count:
                expected = naive_distinguishing_index(g)
                got = distinguishing_index(g, budgets)
                if expected is None:
                    assert got.mode == "undefined"
                else:
                    assert got.mode == "exact" and got.value == expected
        seven = connected_graph_sample(7, 25, seed=1) + [path(7), cycle(7), complete(7)]
        for g in seven:
            assert list(automorphism_group(g).elements) == brute_automorphisms(g)


UNDEFINED_INDEX_NOTES = (
    "cartesian index undefined",
    "an index is undefined on this instance",
)


def test_criterion_10_out_of_scope_results(default_reports):
    with criterion(10, 5, "no desk-scale-unreachable results: all statements instance-checked above"):
        # every statement is decided on at least one default-corpus instance,
        # and every undecided report says which hypothesis or budget stopped it
        checks = {
            "number-sandwich", "layered-labeling", "number-equality-sthin",
            "power-number-two", "sequence-labeling-bound", "index-bound-plus-one",
            "index-bound-sthin", "index-lift", "traceable-index-two",
        }
        assert {r.check for r in default_reports} == checks
        assert {r.check for r in default_reports if r.status == "pass"} == checks
        assert not [r for r in default_reports if r.status == "fail"]
        for r in default_reports:
            if r.status == "not-applicable":
                assert len(r.notes) == 1, r
                note = r.notes[0]
                assert (note.startswith(("hypothesis failed", "budget:"))
                        or note in UNDEFINED_INDEX_NOTES), r


def test_regression_p4_c3_distinguishing_number():
    with criterion(12, 2, "D(P4 x C3) = 4, exact"):
        r = distinguishing_number(strong_product(path(4), cycle(3)))
        assert r.value == 4 and r.mode == "exact"


def test_regression_tree_with_five_leaves_distinguishing_index():
    with criterion(13, 2, "D' = 5 on a 15-vertex tree with a five-leaf vertex, exact"):
        r = distinguishing_index(parse_graph6("N?GCO`S?GA@??G?GE??"))
        assert r.value == 5 and r.mode == "exact"


def test_cli_verify_all_exits_zero(capsys):
    assert dispatch(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


# sha256 of `graphsym verify --all --json`; a change that moves a report
# updates it and names the report
VERIFY_ALL_JSON_SHA256 = "961b4f4f83cfd1c1276e87e8a29e681875754fbc9defb08bffaef092fd28c7e9"


def test_verify_all_json_is_pinned(capsys):
    assert dispatch(["verify", "--all", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256
