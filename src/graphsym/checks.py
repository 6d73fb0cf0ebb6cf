"""Executable verification of the product symmetry bounds and labelings.

Every check builds concrete instances, runs the constructive labeling or
computes both sides of the stated inequality, and returns a BoundReport.
Hypothesis violations and budget limits are reported as not-applicable,
never silently skipped and never conflated with a falsified bound: a check
fails only on a hypothesis-satisfying counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from math import prod
from typing import Callable, Iterable, Optional, Sequence, Union

from .distinguishing import (
    DEFAULT_BUDGETS,
    EXACT,
    UNDEFINED,
    Budgets,
    DistinguishingResult,
    EdgeLabeling,
    VertexLabeling,
    _group_of,
    _labeling_json,
    distinguishing_index,
    distinguishing_number,
    is_distinguishing_edge,
    is_distinguishing_vertex,
)
from .graph import Graph, complete, cycle, is_connected, path
from .products import cartesian_product, strong_product
from .structure import (
    declared_strong_prime,
    hamiltonian_path_exists,
    is_complete_graph,
    is_cycle_graph,
    is_path_graph,
    is_s_thin,
    is_spanning_subgraph,
)
from .symmetry import AutomorphismGroup, BudgetExceeded, is_automorphism, is_isomorphic

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

NUMBER_SANDWICH = "number-sandwich"
LAYERED_LABELING = "layered-labeling"
NUMBER_EQUALITY = "number-equality-sthin"
POWER_NUMBER = "power-number-two"
SEQUENCE_LABELING = "sequence-labeling-bound"
INDEX_MONOTONE = "index-bound-plus-one"
INDEX_STHIN = "index-bound-sthin"
INDEX_LIFT = "index-lift"
TRACEABLE_INDEX = "traceable-index-two"

_HYPOTHESIS_FAILED = "hypothesis failed"
_INEXACT_FACTOR = "budget: factor distinguishing number not exact"


def min_alphabet(length: int, target: int) -> int:
    """Smallest l >= 1 with l**length >= target, by integer search."""
    if length < 1:
        raise ValueError("sequence length must be positive")
    l = 1
    while l ** length < target:
        l += 1
    return l


def min_exponent(base: int, target: int) -> Optional[int]:
    """Smallest t >= 0 with base**t >= target (a ceiling-log reading)."""
    if base < 2:
        return None
    t = 0
    while base ** t < target:
        t += 1
    return t


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one verification check on one concrete instance."""

    check: str
    instance: str
    hypotheses: dict[str, bool]
    quantities: dict[str, object]
    status: str
    witness: object = None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def applicable(self) -> bool:
        return self.status != NOT_APPLICABLE

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "hypotheses": dict(self.hypotheses),
            "quantities": dict(self.quantities),
            "status": self.status,
            "witness": _labeling_json(self.witness),
            "notes": list(self.notes),
        }


def graph_name(g: Graph) -> str:
    """Family shorthand when recognizable, else a generic size tag."""
    if g.n == 1:
        return "K1"
    if is_complete_graph(g):
        return f"K{g.n}"
    if is_cycle_graph(g):
        return f"C{g.n}"
    if is_path_graph(g):
        return f"P{g.n}"
    return f"graph(n={g.n},m={g.edge_count})"


class _Run:
    """The budgets of one harness run and its caches of products and values.

    Products, distinguishing values and factor hypotheses are pure
    functions of the graphs and the budgets, so the checks of one run
    share them.  strong, box, number and index are functools caches that
    live as long as the run; their functions close over budgets and
    intern, never over the run, and look up the product builders and
    solvers when called.  connected, thin and prime are caches of
    is_connected, is_s_thin and declared_strong_prime, which read the
    graph alone: the hypotheses of every check.  intern hands back
    the first graph of the run equal to the one given: the products and
    the factors of every check go through it, so within one run equal
    graphs are one object.  Each graph object keeps its own automorphism
    group (see automorphism_group), or the order budget it is known to
    exceed, so neither a group nor a budget failure needs a cache entry,
    and equal graphs are searched for once.  run_all passes one run to
    every check in the budgets position; a check called with plain Budgets
    starts a fresh run, so nothing is kept outside the graphs a call is
    given.
    """

    def __init__(self, budgets: Budgets) -> None:
        self.budgets = budgets
        self.intern = intern = cache(lambda g: g)
        self.strong = cache(lambda g, h: intern(strong_product(g, h)))
        self.box = cache(lambda g, h: intern(cartesian_product(g, h)))
        self.number = cache(lambda g: distinguishing_number(g, budgets))
        self.index = cache(lambda g: distinguishing_index(g, budgets))
        self.connected = cache(is_connected)
        self.thin = cache(is_s_thin)
        self.prime = cache(declared_strong_prime)

    @staticmethod
    def of(budgets: Union[Budgets, "_Run"]) -> "_Run":
        return budgets if isinstance(budgets, _Run) else _Run(budgets)


def _connected(run: _Run, g: Graph, h: Graph) -> dict[str, bool]:
    return {"G connected": run.connected(g), "H connected": run.connected(h)}


def _thin_prime(run: _Run, g: Graph, h: Graph) -> dict[str, bool]:
    """Connected, S-thin and declared-prime factors: the S-thin checks' hypotheses."""
    return {
        **_connected(run, g, h),
        "G S-thin": run.thin(g),
        "H S-thin": run.thin(h),
        "G declared prime": run.prime(g),
        "H declared prime": run.prime(h),
    }


def _aut_note(order: int, budgets: Budgets, what: str = "product") -> Optional[str]:
    """The budget note when an order-vertex product is over the automorphism bound."""
    if order <= budgets.aut_vertices:
        return None
    return f"budget: {what} has {order} vertices, automorphism bound is {budgets.aut_vertices}"


def _product_aut_note(budgets: Budgets, g: Graph, h: Graph) -> Optional[str]:
    return _aut_note(g.n * h.n, budgets)


def _decide(check: str, instance: str, hyps: dict[str, bool], over_budget: Optional[str],
            body: Callable, late: Callable[[], dict[str, bool]] = dict):
    """body(report), unless a hypothesis fails, over_budget holds a size
    note, or a search runs out of budget: those are not-applicable.
    late() gives the hypotheses that build a product or a group; they
    extend hyps after the size note, under the same budget guard as body.
    report(status, quantities, *notes, witness=None) is a BoundReport of
    this check, instance and hypotheses."""

    def report(status: str, quantities: dict, *notes: str, witness=None) -> BoundReport:
        return BoundReport(check, instance, hyps, quantities, status, witness, notes)

    if not all(hyps.values()):
        return report(NOT_APPLICABLE, {}, _HYPOTHESIS_FAILED)
    if over_budget is not None:
        return report(NOT_APPLICABLE, {}, over_budget)
    try:
        hyps.update(late())
        if not all(hyps.values()):
            return report(NOT_APPLICABLE, {}, _HYPOTHESIS_FAILED)
        return body(report)
    except BudgetExceeded as exc:
        return report(NOT_APPLICABLE, {}, f"budget: {exc}")


def _pairwise(check: str, hypotheses: Callable, size_gate: Callable,
              late: Callable = lambda run, g, h: {}):
    """Declare a check on a factor pair: the decorated body(run, g, h, report)
    becomes the public check(g, h, budgets, label), with the body's name and
    docstring.

    hypotheses(run, g, h), size_gate(budgets, g, h) and late(run, g, h) are
    the stages _decide runs before the body, in that order.  The first two
    read only the factors, the hypotheses through the run's caches; a
    hypothesis that builds a product or a group belongs in late, so that
    nothing is built before the size gate passes.  budgets is a Budgets,
    or the _Run that run_all shares between its checks.
    """

    def declare(body: Callable) -> Callable[..., BoundReport]:
        def public(g: Graph, h: Graph, budgets: Budgets = DEFAULT_BUDGETS,
                   label: Optional[str] = None) -> BoundReport:
            run = _Run.of(budgets)
            g, h = run.intern(g), run.intern(h)
            instance = label if label is not None else f"{graph_name(g)} x {graph_name(h)}"
            return _decide(check, instance, hypotheses(run, g, h),
                           size_gate(run.budgets, g, h),
                           lambda report: body(run, g, h, report), lambda: late(run, g, h))

        public.__name__ = public.__qualname__ = body.__name__
        public.__doc__ = body.__doc__
        return public

    return declare


def _within(group: AutomorphismGroup, graph: Graph) -> bool:
    """Whether group is a subgroup of Aut(graph), on the same vertices.

    Every element of group is a product of the representatives of its
    chain, so it lies in Aut(graph) exactly when each representative is an
    automorphism of graph (Seress, Permutation Group Algorithms, 2003): a
    test of the generators, exact, that lists no element.
    """
    return all(is_automorphism(graph, u) for _, reps in group.levels for u in reps[1:])


def _equal_groups(group: AutomorphismGroup, other: AutomorphismGroup, graph: Graph) -> bool:
    """Whether group equals other = Aut(graph): a subgroup of the same
    order is the whole group."""
    return group.order == other.order and _within(group, graph)


def _result_summary(res: DistinguishingResult) -> str:
    return f"{res.value} ({res.mode})"


def layered_labeling(
    g: Graph, h: Graph, phi: VertexLabeling, budgets: Budgets = DEFAULT_BUDGETS
) -> VertexLabeling:
    """Label the strong product of g and h by shifting a distinguishing
    labeling of g to a disjoint palette on every copy of g.

    Vertex (x, y) receives phi(x) + y * r, so copy y uses labels
    y*r+1 .. (y+1)*r and no two copies share a label; the result uses
    r * |V(h)| labels.  phi must be distinguishing for g; that is tested
    against Aut(g) under budgets, as is_distinguishing_vertex does.
    """
    if len(phi.labels) != g.n:
        raise ValueError("labeling length does not match the first factor")
    if not is_distinguishing_vertex(g, phi, budgets):
        raise ValueError("base labeling is not distinguishing")
    labels = [0] * (g.n * h.n)
    for x in range(g.n):
        for y in range(h.n):
            labels[x * h.n + y] = phi.labels[x] + y * phi.r
    return VertexLabeling(tuple(labels), phi.r * h.n)


def _layered_size_gate(budgets: Budgets, g: Graph, h: Graph) -> Optional[str]:
    if g.n * h.n > budgets.aut_vertices:
        return f"budget: verification needs the product group, product has {g.n * h.n} vertices"
    return _INEXACT_FACTOR if max(g.n, h.n) > budgets.exact_vertices else None


@_pairwise(LAYERED_LABELING, _connected, _layered_size_gate)
def check_layered_labeling(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """Run the palette-shift construction in both orientations and verify
    each output is distinguishing with the advertised label count."""
    d_g = run.number(g)
    d_h = run.number(h)
    prod_gh = run.strong(g, h)
    prod_hg = run.strong(h, g)
    lab_gh = layered_labeling(g, h, d_g.witness, run.budgets)
    lab_hg = layered_labeling(h, g, d_h.witness, run.budgets)
    ok_gh = is_distinguishing_vertex(prod_gh, lab_gh, run.budgets)
    ok_hg = is_distinguishing_vertex(prod_hg, lab_hg, run.budgets)
    counts_ok = lab_gh.r == d_g.value * h.n and lab_hg.r == d_h.value * g.n
    quantities = {
        "labels used, G copies": lab_gh.r,
        "labels used, H copies": lab_hg.r,
        "distinguishing, G copies": ok_gh,
        "distinguishing, H copies": ok_hg,
    }
    status = PASS if (ok_gh and ok_hg and counts_ok) else FAIL
    return report(status, quantities, witness=lab_gh)


def _sandwich_size_gate(budgets: Budgets, g: Graph, h: Graph) -> Optional[str]:
    if g.n * h.n <= budgets.exact_vertices:
        return None
    return (f"budget: exact distinguishing number limited to {budgets.exact_vertices} vertices, "
            f"product has {g.n * h.n}")


@_pairwise(NUMBER_SANDWICH, _connected, _sandwich_size_gate)
def check_number_sandwich(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """Exactly compute D of both products and check the two-sided bound:
    the Cartesian value is at most the strong value, which is at most
    min(D(G)|V(H)|, |V(G)|D(H))."""
    strong = run.strong(g, h)
    box = run.box(g, h)
    d_box = run.number(box)
    d_strong = run.number(strong)
    d_g = run.number(g)
    d_h = run.number(h)
    right = min(d_g.value * h.n, g.n * d_h.value)
    quantities = {
        "D(cartesian)": d_box.value,
        "D(strong)": d_strong.value,
        "min(D(G)|V(H)|, |V(G)|D(H))": right,
    }
    ok = d_box.value <= d_strong.value <= right
    return report(PASS if ok else FAIL, quantities)


@_pairwise(NUMBER_EQUALITY, _thin_prime, _product_aut_note)
def check_number_equality(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """For connected S-thin declared-prime factors: the strong and Cartesian
    products must have equal automorphism groups and equal distinguishing
    numbers, the groups compared by _equal_groups."""
    strong = run.strong(g, h)
    box = run.box(g, h)
    aut_strong = _group_of(strong, run.budgets)
    aut_box = _group_of(box, run.budgets)
    d_strong = run.number(strong)
    d_box = run.number(box)
    groups_equal = _equal_groups(aut_strong, aut_box, box)
    quantities = {
        "Aut(strong) order": aut_strong.order,
        "Aut(cartesian) order": aut_box.order,
        "groups equal": groups_equal,
        "D(strong)": _result_summary(d_strong),
        "D(cartesian)": _result_summary(d_box),
    }
    if not (d_strong.is_tight and d_box.is_tight):
        return report(NOT_APPLICABLE, quantities,
                      "budget: certified values not tight enough to compare")
    ok = groups_equal and d_strong.value == d_box.value
    return report(PASS if ok else FAIL, quantities)


def check_power_number(
    g: Graph, k: int, budgets: Budgets = DEFAULT_BUDGETS, label: Optional[str] = None
) -> BoundReport:
    """The k-th strong power of a nontrivial connected S-thin graph has
    distinguishing number exactly 2 for k >= 2."""
    run = _Run.of(budgets)
    instance = label if label is not None else f"{graph_name(g)}^{k} (strong)"
    hyps = {
        "G connected": run.connected(g),
        "G non-trivial": g.n >= 2,
        "G S-thin": run.thin(g),
        "power at least 2": k >= 2,
    }
    order = g.n ** k

    def body(report) -> BoundReport:
        result = run.number(reduce(run.strong, [run.intern(g)] * k))
        quantities = {"power order": order, "D(power)": _result_summary(result)}
        if not result.is_tight:
            return report(NOT_APPLICABLE, quantities, "budget: value not certified tight")
        return report(PASS if result.value == 2 else FAIL, quantities, witness=result.witness)

    return _decide(POWER_NUMBER, instance, hyps, _aut_note(order, run.budgets, "power"), body)


def _non_isomorphic(run: _Run, g: Graph, h: Graph) -> dict[str, bool]:
    """The late hypothesis of the sequence check: the isomorphism search
    has no budget, so it waits for the size gate."""
    return {"G and H non-isomorphic": not is_isomorphic(g, h)}


def _sequence_size_gate(budgets: Budgets, g: Graph, h: Graph) -> Optional[str]:
    return _aut_note(g.n * h.n, budgets) or (
        _INEXACT_FACTOR if g.n > budgets.exact_vertices else None)


@_pairwise(SEQUENCE_LABELING, _thin_prime, _sequence_size_gate, late=_non_isomorphic)
def sequence_labeling(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """Label the copies of g inside the strong product with distinct label
    sequences and verify the advertised label count; a decided report
    carries the labeling as its witness.

    One copy of g receives a distinguishing minimum labeling; the other
    copies receive pairwise distinct sequences over an alphabet just large
    enough to supply them.  With n = |V(g)| and m = |V(h)| the alphabet
    floor is d = min{l : l^n >= m-1}: the l-ary sequence family of length
    n has exactly l^n members, so d is computed by integer search, not by
    floating-point logarithms.  A ceiling-log reading of the same bound is
    reported alongside whenever the two disagree.

    Cases: (i) D(g) >= 2 and D(g) != d uses max(D(g), d) labels;
    (ii) D(g) = d >= 2 may need one extra label, realized by overwriting
    the first coordinate of the last copy's sequence; (iii) D(g) = 1 gives
    every copy a distinct sequence over min{l : l^n >= m} labels.
    """
    n, m = g.n, h.n
    d_g = run.number(g)
    base = d_g.value
    d = min_alphabet(n, m - 1)
    log_reading = min_exponent(n, m - 1)
    notes: list[str] = []
    if log_reading is not None and log_reading != d:
        notes.append(
            f"integer-search alphabet {d} differs from the ceiling-log reading {log_reading}; "
            "the construction uses the integer search"
        )

    new_label = False
    if base == 1:
        case = "iii"
        alphabet = min_alphabet(n, m)
        bound = alphabet
        family = itertools.product(range(1, alphabet + 1), repeat=n)
        sequences = list(itertools.islice(family, m))
    else:
        case = "ii" if base == d else "i"
        alphabet = max(base, d) if case == "i" else base
        bound = base + 1 if case == "ii" else alphabet
        phi_seq = tuple(d_g.witness.labels)
        family = itertools.product(range(1, alphabet + 1), repeat=n)
        pool = (s for s in family if s != phi_seq)
        chosen = list(itertools.islice(pool, m - 1))
        if len(chosen) < m - 1:
            # Alphabet exhausted after excluding the first copy's sequence
            # (only possible when alphabet**n == m-1): spend the extra label
            # on the first coordinate of the final copy.
            chosen.append((alphabet + 1,) + phi_seq[1:])
            new_label = True
        sequences = [phi_seq] + chosen

    labels = [0] * (n * m)
    for i, seq in enumerate(sequences):
        for x in range(n):
            labels[x * m + i] = seq[x]
    used = max(labels)
    labeling = VertexLabeling(tuple(labels), used)

    distinct = len(set(sequences)) == m
    distinguishing = is_distinguishing_vertex(run.strong(g, h), labeling, run.budgets)
    within = used <= bound
    if new_label and case == "i":
        notes.append("construction needed an extra label beyond the stated bound")
    quantities = {
        "case": case,
        "D(G)": base,
        "factor order n": n,
        "copy count m": m,
        "alphabet floor d": d,
        "ceiling-log reading": log_reading,
        "stated bound": bound,
        "labels used": used,
        "extra label introduced": new_label,
        "sequences pairwise distinct": distinct,
        "labeling distinguishing": distinguishing,
    }
    status = PASS if (distinct and distinguishing and within) else FAIL
    return report(status, quantities, *notes, witness=labeling)


def lift_edge_labeling(
    g: Graph, h: Graph, labeling: EdgeLabeling, budgets: Budgets = DEFAULT_BUDGETS
) -> EdgeLabeling:
    """Extend a distinguishing edge labeling of a spanning subgraph h to g.

    Valid when every automorphism of g is an automorphism of h: such an
    automorphism maps h-edges to h-edges, so keeping h's labels and giving
    every remaining edge the repeated label 1 stays distinguishing.  Both
    conditions are tested against Aut(g) and Aut(h) under budgets, which
    the graph objects keep: the first on the representatives of Aut(g)'s
    chain (_within), the second by the stabilizer walk on Aut(h).
    """
    if not is_spanning_subgraph(h, g):
        raise ValueError("not a spanning subgraph")
    group_g = _group_of(g, budgets)
    _group_of(h, budgets)  # h's budget refusal comes before the subgroup test
    if not _within(group_g, h):
        raise ValueError("host automorphisms are not all subgraph automorphisms")
    if not is_distinguishing_edge(h, labeling, budgets):
        raise ValueError("labeling is not distinguishing for the subgraph")
    lifted = dict(labeling.labels)
    for e in g.edges:
        if e not in lifted:
            lifted[e] = 1
    return EdgeLabeling(lifted, labeling.r)


def _spans(run: _Run, g: Graph, h: Graph) -> dict[str, bool]:
    """Whether the Cartesian product spans the strong product: the late
    hypothesis of both index checks."""
    return {"cartesian spans strong": is_spanning_subgraph(run.box(g, h), run.strong(g, h))}


def _lift_hypotheses(run: _Run, g: Graph, h: Graph) -> dict[str, bool]:
    """The lift's hypotheses on the products, tested once the size gate
    passed.  Both groups are searched for, the strong product's first, so
    that either one's budget refusal makes the check not-applicable."""
    strong, box = run.strong(g, h), run.box(g, h)
    aut_strong = _group_of(strong, run.budgets)
    _group_of(box, run.budgets)
    return {**_spans(run, g, h), "Aut(strong) subgroup of Aut(cartesian)": _within(aut_strong, box)}


@_pairwise(INDEX_LIFT, _connected, _product_aut_note, late=_lift_hypotheses)
def check_lift(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """Lift a distinguishing edge labeling from the Cartesian product onto
    the strong product and verify it stays distinguishing, witnessing that
    the strong index is at most the Cartesian index."""
    strong = run.strong(g, h)
    box = run.box(g, h)
    base = run.index(box)
    if base.mode == UNDEFINED:
        return report(NOT_APPLICABLE, {}, "cartesian index undefined")
    lifted = lift_edge_labeling(strong, box, base.witness, run.budgets)
    ok = is_distinguishing_edge(strong, lifted, run.budgets)
    quantities = {
        "D'(cartesian)": _result_summary(base),
        "lifted labels": lifted.r,
        "lift distinguishing": ok,
    }
    return report(PASS if ok else FAIL, quantities, witness=lifted)


def _index_comparison(run: _Run, g: Graph, h: Graph, report, slack: int) -> BoundReport:
    """Compare D'(strong) <= D'(cartesian) + slack using the certified
    brackets of both computations."""
    r_strong = run.index(run.strong(g, h))
    r_box = run.index(run.box(g, h))
    if r_strong.mode == UNDEFINED or r_box.mode == UNDEFINED:
        return report(NOT_APPLICABLE, {}, "an index is undefined on this instance")
    lo_s, hi_s = r_strong.bounds
    lo_b, hi_b = r_box.bounds
    quantities = {
        "D'(strong)": _result_summary(r_strong),
        "D'(cartesian)": _result_summary(r_box),
        "slack": slack,
    }
    if hi_s <= lo_b + slack:
        status = PASS
    elif lo_s > hi_b + slack:
        status = FAIL
    else:
        return report(NOT_APPLICABLE, quantities,
                      "budget: brackets too loose to decide the inequality")
    return report(status, quantities, witness=r_strong.witness)


@_pairwise(INDEX_MONOTONE, _connected, _product_aut_note, late=_spans)
def check_index_monotone(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """D'(strong) <= D'(cartesian) + 1 for connected factors: the Cartesian
    product spans the strong product, and a spanning subgraph costs at most
    one extra edge label."""
    return _index_comparison(run, g, h, report, 1)


@_pairwise(INDEX_STHIN, _thin_prime, _product_aut_note)
def check_index_sthin(run: _Run, g: Graph, h: Graph, report) -> BoundReport:
    """D'(strong) <= D'(cartesian) for connected S-thin declared-prime
    factors, where the two products share their automorphism group."""
    return _index_comparison(run, g, h, report, 0)


def check_traceable_index(
    factors: Sequence[Graph], budgets: Budgets = DEFAULT_BUDGETS, label: Optional[str] = None
) -> BoundReport:
    """For at least two nontrivial connected factors whose maximum degrees
    do not exceed the factor count, and whose order product is at least 7,
    the strong product must be traceable with a witnessed two-label
    distinguishing edge labeling."""
    run = _Run.of(budgets)
    b = run.budgets
    factors = list(map(run.intern, factors))
    delta = len(factors)
    instance = label if label is not None else " x ".join(graph_name(f) for f in factors)
    orders = [f.n for f in factors]
    order = prod(orders) if orders else 0
    hyps = {
        "at least two factors": delta >= 2,
        "factors non-trivial": all(n >= 2 for n in orders) and delta > 0,
        "factors connected": all(map(run.connected, factors)) and delta > 0,
        f"max degree at most {delta}": all(
            max((f.degree(v) for v in range(f.n)), default=0) <= delta for f in factors
        ),
        "product order at least 7": order >= 7,
    }
    over = None
    if order > b.aut_vertices or order > b.hamiltonian_vertices:
        over = (f"budget: product has {order} vertices, bounds are aut {b.aut_vertices} "
                f"and traceability {b.hamiltonian_vertices}")

    def body(report) -> BoundReport:
        product = reduce(run.strong, factors)
        traceable = hamiltonian_path_exists(product, max_vertices=b.hamiltonian_vertices)
        result = run.index(product)
        quantities = {
            "product order": order,
            "traceable": traceable,
            "D'(product)": _result_summary(result),
        }
        if not traceable:
            return report(FAIL, quantities,
                          "product is not traceable although every factor meets the degree bound")
        _, hi = result.bounds
        if hi <= 2:
            return report(PASS, quantities, witness=result.witness)
        if result.mode == EXACT:
            return report(FAIL, quantities)
        return report(NOT_APPLICABLE, quantities,
                      "budget: no two-label witness found within the trial budget")

    return _decide(TRACEABLE_INDEX, instance, hyps, over, body)


def default_corpus() -> list[tuple[str, Graph]]:
    """Paths on 2..6 vertices, cycles on 3..7, complete graphs on 2..5."""
    entries: list[tuple[str, Graph]] = []
    entries.extend((f"P{k}", path(k)) for k in range(2, 7))
    entries.extend((f"C{k}", cycle(k)) for k in range(3, 8))
    entries.extend((f"K{k}", complete(k)) for k in range(2, 6))
    return entries


def run_all(
    corpus: Iterable[tuple[str, Graph]],
    budgets: Budgets = DEFAULT_BUDGETS,
    extra_pairs: Iterable[tuple[tuple[str, Graph], tuple[str, Graph]]] = (),
) -> list[BoundReport]:
    """Run every check over all unordered base pairs (plus explicit pairs)
    and the second strong power of every base graph.

    Reports appear in corpus order regardless of how long each check takes;
    hypothesis violations and budget skips are data, not errors.  The checks
    share one _Run of products and values, which lives for this call only;
    within it equal graphs are one object, and each graph keeps its
    automorphism group, or the order budget it is known to exceed, so each
    distinct graph is searched for once.
    """
    bases = list(corpus)
    pairs = list(itertools.combinations_with_replacement(bases, 2)) + list(extra_pairs)

    run = _Run(budgets)
    reports: list[BoundReport] = []
    for (na, a), (nb, b) in pairs:
        lbl = f"{na} x {nb}"
        reports.append(check_number_sandwich(a, b, run, label=lbl))
        reports.append(check_layered_labeling(a, b, run, label=lbl))
        reports.append(check_number_equality(a, b, run, label=lbl))
        reports.append(sequence_labeling(a, b, run, label=lbl))
        if (na, a) != (nb, b):
            reports.append(sequence_labeling(b, a, run, label=f"{nb} x {na}"))
        reports.append(check_index_monotone(a, b, run, label=lbl))
        reports.append(check_index_sthin(a, b, run, label=lbl))
        reports.append(check_lift(a, b, run, label=lbl))
        reports.append(check_traceable_index([a, b], run, label=lbl))
    for name, g in bases:
        reports.append(check_power_number(g, 2, run, label=f"{name}^2 (strong)"))
    return reports


def all_applicable_pass(reports: Iterable[BoundReport]) -> bool:
    """Aggregate verdict: no applicable check failed."""
    return all(r.status != FAIL for r in reports)
