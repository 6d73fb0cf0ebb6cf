"""Distinguishing vertex and edge labelings and their minimum label counts.

A labeling is distinguishing when no non-identity automorphism preserves
every label, i.e. the stabilizer of the labeling inside the automorphism
group is trivial.  The minimum over vertex labelings is the distinguishing
number, over edge labelings the distinguishing index.

Exactness contract: below the configured exhaustive budgets every smaller
label count is either excluded by the transposition-class bound or
exhausted by a pruned backtracking search, and the result is exact.
Above them the result is a certified upper bound: the returned witness is
always verified against the full automorphism group, and a nontrivial
group certifies the lower bound 2.  A certified value of 2 is therefore
tight (value 1 happens exactly for asymmetric graphs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph
from .symmetry import AutomorphismGroup, Permutation, automorphism_group, identity

EXACT = "exact"
CERTIFIED_UPPER = "certified-upper"
UNDEFINED = "undefined"

REASON_ASYMMETRIC = "asymmetric"
REASON_NONTRIVIAL_AUT = "nontrivial-aut"
REASON_EXHAUSTED = "exhausted-smaller-r"


@dataclass(frozen=True)
class Budgets:
    """Search budgets shared by the solvers, the harness, and the CLI.

    exact_vertices / exact_edges: largest instance for which labelings are
    enumerated exhaustively (exact mode).  aut_vertices / aut_max_order:
    automorphism enumeration bounds.  hamiltonian_vertices: traceability
    search bound.  trials: randomized witness budget per label count.
    """

    exact_vertices: int = 12
    exact_edges: int = 14
    aut_vertices: int = 20
    aut_max_order: Optional[int] = 10000
    hamiltonian_vertices: int = 16
    trials: int = 10000
    seed: int = 0


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class VertexLabeling:
    """Assignment of a label in 1..r to every vertex, in vertex order."""

    labels: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("label count must be at least 1")
        if any(not 1 <= lab <= self.r for lab in self.labels):
            raise ValueError("label out of range 1..r")


@dataclass(frozen=True)
class EdgeLabeling:
    """Assignment of a label in 1..r to every edge, keyed by (min, max) pairs."""

    labels: dict[tuple[int, int], int]
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("label count must be at least 1")
        for (u, v), lab in self.labels.items():
            if u >= v:
                raise ValueError(f"edge key {(u, v)} not in (min, max) form")
            if not 1 <= lab <= self.r:
                raise ValueError("label out of range 1..r")


@dataclass(frozen=True)
class DistinguishingResult:
    """Outcome of a distinguishing number or index computation.

    value is the exact minimum (mode "exact") or a witnessed upper bound
    (mode "certified-upper"); lower_bound_reason certifies the matching
    lower bound.  The edge-labeling singularity (a non-identity
    automorphism that fixes every edge, as in K_2) is reported with mode
    "undefined" and no value.
    """

    value: Optional[int]
    mode: str
    witness: object
    lower_bound_reason: Optional[str]

    @property
    def bounds(self) -> tuple[int, int]:
        """Certified (lower, upper) bracket for the true value."""
        if self.mode == EXACT:
            return (self.value, self.value)
        if self.mode == CERTIFIED_UPPER:
            return (2, self.value)
        raise ValueError("undefined result has no bounds")

    @property
    def is_tight(self) -> bool:
        """True when the reported value is provably the exact minimum."""
        if self.mode == EXACT:
            return True
        return self.mode == CERTIFIED_UPPER and self.value == 2

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "mode": self.mode,
            "witness": _labeling_json(self.witness),
            "reason": self.lower_bound_reason,
        }


def _labeling_json(labeling: object) -> Optional[dict]:
    """JSON form of a labeling: vertex labels in vertex order, edge labels
    as sorted [u, v, label] triples; None for anything else."""
    if isinstance(labeling, VertexLabeling):
        return {"kind": "vertex", "labels": list(labeling.labels), "r": labeling.r}
    if isinstance(labeling, EdgeLabeling):
        triples = sorted([u, v, lab] for (u, v), lab in labeling.labels.items())
        return {"kind": "edge", "labels": triples, "r": labeling.r}
    return None


def is_distinguishing_vertex(
    graph: Graph, group: AutomorphismGroup, labeling: VertexLabeling
) -> bool:
    """True iff no non-identity automorphism preserves all vertex labels."""
    if group.n != graph.n:
        raise ValueError("group does not act on this graph")
    if len(labeling.labels) != graph.n:
        raise ValueError("labeling length does not match vertex count")
    rows = _nonidentity_rows(group.elements, identity(graph.n))
    return _preserving_row(labeling.labels, rows) is None


def is_distinguishing_edge(
    graph: Graph, group: AutomorphismGroup, labeling: EdgeLabeling
) -> bool:
    """True iff no non-identity automorphism preserves all edge labels.

    The group acts on edges through vertex images; an element mapping an
    edge outside the edge set would mean the group is not a group of
    automorphisms and is treated as an internal fault.
    """
    if group.n != graph.n:
        raise ValueError("group does not act on this graph")
    if set(labeling.labels) != set(graph.edges):
        raise ValueError("labeling domain is not exactly the edge set")
    flat = tuple(labeling.labels[e] for e in graph.edges)
    ident = identity(graph.n)
    rows = [row for p, row in zip(group.elements, _edge_images(graph, group.elements))
            if p != ident]
    return _preserving_row(flat, rows) is None


def _edge_images(graph: Graph, elements: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """For each group element, the induced permutation of edge positions."""
    index = {e: i for i, e in enumerate(graph.edges)}
    out = []
    for p in elements:
        row = []
        for (u, v) in graph.edges:
            a, b = p[u], p[v]
            key = (a, b) if a < b else (b, a)
            if key not in index:
                raise RuntimeError(
                    "internal fault: group element maps an edge outside the edge set"
                )
            row.append(index[key])
        out.append(tuple(row))
    return out


def _nonidentity_rows(
    elements: Sequence[Permutation], ident: Permutation
) -> list[Permutation]:
    return [p for p in elements if p != ident]


def _preserving_row(
    labels: Sequence[int], rows: Sequence[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first row (a permutation of label positions) preserving all labels, if any."""
    for row in rows:
        for i, lab in enumerate(labels):
            if labels[row[i]] != lab:
                break
        else:
            return row
    return None


def _transposition_class_bound(size: int, rows: Sequence[tuple[int, ...]]) -> int:
    """Size of the largest class of positions pairwise swapped by transposition rows.

    A transposition row preserves any labeling that repeats a label on the
    two positions it swaps, so every position of a class needs its own
    label.  The rows form a group with the identity, and (i j)(j k)(i j) =
    (i k), so the class of i is i plus every position swapped with it.
    Twin vertices and pendant edges at one vertex form such classes.
    """
    swapped = [1] * size
    for row in rows:
        # a transposition fixes one of any three positions: most rows fail at once
        if size > 2 and row[0] != 0 and row[1] != 1 and row[2] != 2:
            continue
        moved = [i for i, j in enumerate(row) if i != j]
        if len(moved) == 2:
            for i in moved:
                swapped[i] += 1
    return max(swapped, default=1)


def _normalize_labels(labels: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Relabel to 1..k by first occurrence; preserves the stabilizer."""
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen) + 1
        out.append(seen[lab])
    return tuple(out), len(seen)


def _exhaustive_minimum(
    size: int, rows: Sequence[tuple[int, ...]], start: int
) -> tuple[int, tuple[int, ...]]:
    """Smallest label count with a distinguishing assignment of `size`
    positions, and the first such assignment in canonical order.

    For each r, the canonical order lists the assignments with exactly r
    labels whose first occurrences increase (one per palette renaming),
    lexicographically.  Backtracking labels positions left to right and
    keeps a bitmask of the live rows, those the prefix has not broken: a
    row is broken once some i and row[i] are both labeled and differ.  A
    live row whose moved positions are all labeled preserves every
    completion, which cuts the branch.  The search starts at r = start,
    a lower bound on the answer.

    Requires that the all-distinct assignment is distinguishing (true for
    vertex labelings always, for edge labelings once the edge-fixing
    kernel is known trivial), so the search terminates at r = size.
    """
    # ties[k][j], j < k: bitmask of the rows mapping j to k or k to j;
    # settled[k]: bitmask of the rows whose largest moved position is k
    ties: list[dict[int, int]] = [{} for _ in range(size)]
    settled = [0] * size
    for t, row in enumerate(rows):
        bit = 1 << t
        last = 0
        for i, j in enumerate(row):
            if i != j:
                last = i
                hi, lo = max(i, j), min(i, j)
                ties[hi][lo] = ties[hi].get(lo, 0) | bit
        settled[last] |= bit
    # labels[k]: the label tried last at position k (0: none yet);
    # used[k], live[k]: the label count and the live rows of the prefix 0..k-1
    labels = [0] * size
    used = [0] * (size + 1)
    live = [(1 << len(rows)) - 1] * (size + 1)
    for r in range(start, size + 1):
        k = 0
        while k >= 0:
            if k == size:
                return r, tuple(labels)
            for lab in range(labels[k] + 1, min(used[k] + 1, r) + 1):
                now = max(used[k], lab)
                if now + (size - k - 1) < r:
                    continue
                broken = 0
                for j, mask in ties[k].items():
                    if labels[j] != lab:
                        broken |= mask
                kept = live[k] & ~broken
                if kept & settled[k]:
                    continue
                labels[k] = lab
                used[k + 1], live[k + 1] = now, kept
                k += 1
                break
            else:
                labels[k] = 0
                k -= 1
    raise AssertionError("the all-distinct labeling must be distinguishing")


def _randomized_minimum(
    size: int, rows: Sequence[tuple[int, ...]], budgets: Budgets, start: int
) -> tuple[int, tuple[int, ...]]:
    """Witness search above the exhaustive budget.

    Seeded random labelings with greedy repair: while some automorphism
    preserves the labeling, flip the label at the first position it moves.
    Every stabilizer evaluation counts against the trial budget, applied
    afresh per label count r, from r = start up.  At r = size the
    all-distinct labeling is tried first, which guarantees termination.
    """
    rng = random.Random(budgets.seed)
    for r in range(start, size + 1):
        trials = 0
        pending: list[list[int]] = []
        if r == size:
            pending.append(list(range(1, size + 1)))
        while trials < budgets.trials or pending:
            labels = pending.pop() if pending else [rng.randint(1, r) for _ in range(size)]
            trials += 1
            row = _preserving_row(labels, rows)
            steps = 0
            while row is not None and trials < budgets.trials and steps < 2 * size:
                moved = next(i for i in range(size) if row[i] != i)
                labels[moved] = labels[moved] % r + 1
                trials += 1
                steps += 1
                row = _preserving_row(labels, rows)
            if row is None:
                normalized, distinct = _normalize_labels(labels)
                return distinct, normalized
    raise AssertionError("the all-distinct labeling must be distinguishing")


def _minimum(
    size: int, rows: Sequence[tuple[int, ...]], exact: bool, budgets: Budgets, wrap
) -> DistinguishingResult:
    """The least label count for `size` positions under the non-identity
    rows, exact or certified-upper; wrap(labels, r) builds the witness.

    Both searches start at the transposition-class bound (at least 2,
    since the group is nontrivial): no smaller r has a witness.
    """
    start = max(2, _transposition_class_bound(size, rows))
    if exact:
        value, labels = _exhaustive_minimum(size, rows, start)
        reason = REASON_NONTRIVIAL_AUT if value == 2 else REASON_EXHAUSTED
        return DistinguishingResult(value, EXACT, wrap(labels, value), reason)
    value, labels = _randomized_minimum(size, rows, budgets, start)
    return DistinguishingResult(value, CERTIFIED_UPPER, wrap(labels, value), REASON_NONTRIVIAL_AUT)


def _group_of(
    graph: Graph, budgets: Budgets, group: Optional[AutomorphismGroup]
) -> AutomorphismGroup:
    """The given group after a size check, else Aut(graph) within the budgets."""
    if group is None:
        return automorphism_group(
            graph, max_vertices=budgets.aut_vertices, max_order=budgets.aut_max_order
        )
    if group.n != graph.n:
        raise ValueError("group does not act on this graph")
    return group


def distinguishing_number(
    graph: Graph,
    budgets: Budgets = DEFAULT_BUDGETS,
    *,
    group: Optional[AutomorphismGroup] = None,
) -> DistinguishingResult:
    """Least number of vertex labels admitting a distinguishing labeling.

    Exact for graphs within budgets.exact_vertices; otherwise a certified
    upper bound with a verified witness (tight when the value is 2).  A
    caller that already holds Aut(graph) passes it as group.
    """
    group = _group_of(graph, budgets, group)
    if group.is_trivial:
        witness = VertexLabeling((1,) * graph.n, 1)
        return DistinguishingResult(1, EXACT, witness, REASON_ASYMMETRIC)
    rows = _nonidentity_rows(group.elements, identity(graph.n))
    return _minimum(graph.n, rows, graph.n <= budgets.exact_vertices, budgets, VertexLabeling)


def distinguishing_index(
    graph: Graph,
    budgets: Budgets = DEFAULT_BUDGETS,
    *,
    group: Optional[AutomorphismGroup] = None,
) -> DistinguishingResult:
    """Least number of edge labels admitting a distinguishing edge labeling.

    Undefined (dedicated outcome, not an error) when some non-identity
    automorphism fixes every edge as a set; among connected graphs that
    happens only for K_2, whose swap fixes the unique edge.  A caller that
    already holds Aut(graph) passes it as group.
    """
    if graph.edge_count == 0:
        raise ValueError("distinguishing index needs at least one edge")
    group = _group_of(graph, budgets, group)
    if group.is_trivial:
        witness = EdgeLabeling({e: 1 for e in graph.edges}, 1)
        return DistinguishingResult(1, EXACT, witness, REASON_ASYMMETRIC)
    ident = identity(graph.n)
    m = graph.edge_count
    ident_row = tuple(range(m))
    rows = [row for p, row in zip(group.elements, _edge_images(graph, group.elements))
            if p != ident]
    if any(row == ident_row for row in rows):
        return DistinguishingResult(None, UNDEFINED, None, None)

    def wrap(flat: tuple[int, ...], r: int) -> EdgeLabeling:
        return EdgeLabeling(dict(zip(graph.edges, flat)), r)

    return _minimum(m, rows, m <= budgets.exact_edges, budgets, wrap)
