"""Distinguishing vertex and edge labelings and their minimum label counts.

A labeling is distinguishing when no non-identity automorphism preserves
every label, i.e. the stabilizer of the labeling inside the automorphism
group is trivial.  The minimum over vertex labelings is the distinguishing
number, over edge labelings the distinguishing index.

Both are one problem over positions, the vertices or the edges in
``graph.edges`` order, and one solver serves both.  A group element acts
on the positions as a row, a permutation of them.  The stabilizer tests
walk the group's stabilizer chain (see _Chain) and never list its
elements: the first non-identity element preserving a labeling and, on
the edges, the transposition classes and whether some non-identity
element fixes every position (K_2's swap on its edge, never a vertex),
which makes the minimum undefined.  On the vertices the transposition
classes are the twin classes, read from the graph.  A trivial group
gives the value 1.  The exhaustive search reads its tables from the
chain's columns, the images of each position under every product of
representatives, and lists no element either.  Only the randomized
search, once its walks have visited more chain nodes than the group has
elements, lists the elements as rows.

Exactness contract: below the configured exhaustive budgets every smaller
label count is either excluded by the transposition-class bound or
exhausted by a pruned backtracking search, and the result is exact.
Above them the result is a certified upper bound: the returned witness is
always verified against the full automorphism group, and the
transposition-class bound (at least 2, as the group is nontrivial)
certifies the lower bound.  A certified value equal to that bound is
therefore tight (value 1 happens exactly for asymmetric graphs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graph import Graph
from .structure import _largest_twin_class
from .symmetry import AutomorphismGroup, Permutation, automorphism_group, compose, identity

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
    enumerated exhaustively (exact mode).  aut_vertices / aut_max_order /
    aut_nodes: automorphism search bounds, the last on the search's kernel
    pushes.  hamiltonian_vertices: traceability search bound.  trials:
    stabilizer tests per label count in the randomized witness search,
    repair steps included (not labelings).
    """

    exact_vertices: int = 12
    exact_edges: int = 14
    aut_vertices: int = 20
    aut_max_order: Optional[int] = 10000
    aut_nodes: Optional[int] = 100000
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
    lower bound.  lower is the certified lower bound: the value itself
    when exact, else the transposition-class bound, at least 2.  The
    edge-labeling singularity (a non-identity automorphism that fixes
    every edge, as in K_2) is reported with mode "undefined" and no value.
    """

    value: Optional[int]
    mode: str
    witness: object
    lower_bound_reason: Optional[str]
    lower: Optional[int]

    @property
    def bounds(self) -> tuple[int, int]:
        """Certified (lower, upper) bracket for the true value."""
        if self.mode == UNDEFINED:
            raise ValueError("undefined result has no bounds")
        return (self.lower, self.value)

    @property
    def is_tight(self) -> bool:
        """True when the reported value is provably the exact minimum."""
        return self.mode != UNDEFINED and self.lower == self.value

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
    graph: Graph, labeling: VertexLabeling, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """True iff no non-identity automorphism preserves all vertex labels.

    Aut(graph) comes from automorphism_group under the automorphism
    bounds of budgets, and the graph object keeps it; a graph over them
    raises BudgetExceeded.
    """
    if len(labeling.labels) != graph.n:
        raise ValueError("labeling length does not match vertex count")
    return _chain(graph, budgets, on_edges=False).first_preserving(labeling.labels) is None


def is_distinguishing_edge(
    graph: Graph, labeling: EdgeLabeling, budgets: Budgets = DEFAULT_BUDGETS
) -> bool:
    """True iff no non-identity automorphism preserves all edge labels.

    Aut(graph) comes as for is_distinguishing_vertex, and acts on edges
    through vertex images.
    """
    if set(labeling.labels) != set(graph.edges):
        raise ValueError("labeling domain is not exactly the edge set")
    flat = tuple(labeling.labels[e] for e in graph.edges)
    return _chain(graph, budgets, on_edges=True).first_preserving(flat) is None


def _group_of(graph: Graph, budgets: Budgets) -> AutomorphismGroup:
    """Aut(graph) under the automorphism bounds of budgets."""
    return automorphism_group(
        graph, max_vertices=budgets.aut_vertices, max_order=budgets.aut_max_order,
        max_nodes=budgets.aut_nodes,
    )


def _chain(graph: Graph, budgets: Budgets, on_edges: bool) -> _Chain:
    """graph's chain on the vertices or the edges.  Aut(graph) is read
    first, so a budget refusal comes where it did, and the chain is kept
    on the graph beside its group, built again only for another group."""
    group = _group_of(graph, budgets)
    chains = graph._chains
    if chains is None:
        chains = {}
        object.__setattr__(graph, "_chains", chains)
    chain = chains.get(on_edges)
    if chain is None or chain.group is not group:
        chain = chains[on_edges] = _Chain(graph, group, on_edges)
    return chain


class _Chain:
    """Aut(graph) acting on label positions, the vertices or the edges in
    graph.edges order, through the stabilizer chain the group holds.

    levels[k] is (v, choices, span) for the group's level k at vertex v.
    Each choice is (u[v], u, row) for a representative u, the identity
    first, where row is u as a permutation of the positions: u itself on
    the vertices, its action on the edge positions on the edges.  An
    element's choices at levels 0..k fix its images of the vertices from
    v up to the next level's vertex (n after the last level); span lists
    the positions in that range: those vertices, or the edges whose
    larger endpoint is one of them.  Every element fixes the positions
    before the first level.

    On the edges the representatives' rows are built here.  A
    representative mapping an edge outside the edge set would mean the
    group is not one of automorphisms, an internal fault; every element
    is a product of representatives, so testing them covers the group.

    Each graph keeps its vertex and its edge chain (see _chain), so a chain
    holds no reference to its graph, which would make a reference cycle:
    on the vertices the largest twin class is read at build time.  visited
    counts on across calls, and each randomized search resets it.
    """

    def __init__(self, graph: Graph, group: AutomorphismGroup, on_edges: bool) -> None:
        n = graph.n
        self.group = group
        self.edges = graph.edges if on_edges else None
        self.size = len(graph.edges) if on_edges else n
        self.visited = 0  # the walks' nodes so far: one per choice taken
        self.levels: list[tuple[int, list, Sequence[int]]] = []
        # unread on the edges; a trivial group has no twins to swap
        self.twin_bound = 1 if on_edges or not group.levels else _largest_twin_class(graph)
        if not group.levels:
            return
        starts = [v for v, _ in group.levels]
        bounds = list(zip(starts, starts[1:] + [n]))
        if on_edges:
            self.position = [[-1] * n for _ in range(n)]
            for i, (a, b) in enumerate(self.edges):
                self.position[a][b] = self.position[b][a] = i
            spans: list[Sequence[int]] = [
                [i for i, (_, b) in enumerate(self.edges) if v <= b < w] for v, w in bounds
            ]
        else:
            spans = [range(v, w) for v, w in bounds]
        unmoved = identity(self.size)
        for (v, reps), span in zip(group.levels, spans):
            rows = [self._edge_row(u) for u in reps[1:]] if on_edges else reps[1:]
            if on_edges and any(-1 in row for row in rows):
                raise RuntimeError(
                    "internal fault: group element maps an edge outside the edge set"
                )
            choices = [(u[v], u, row) for u, row in zip(reps, [unmoved, *rows])]
            self.levels.append((v, choices, span))

    def _edge_row(self, p: Permutation) -> tuple[int, ...]:
        """p as a permutation of edge positions: -1 where it maps an edge
        onto a non-edge."""
        position = self.position
        return tuple([position[p[a]][p[b]] for a, b in self.edges])

    def columns(self) -> list:
        """Every non-identity element as a row, read down the positions:
        columns[i] spells the images of position i, last row first, as
        _tie_masks reads them (see _alphabet).  The rows are the products
        u_0 u_1 ... of one representative per level, level 0 outermost
        and each level's choices in order, without the identity, their
        first product.  No element is listed or composed.

        The rows are spelled one after another in one string, built
        deepest level first.  If E lists the products of the levels below
        level k, the products from level k down are u e for each choice u
        of level k and e in E, and the row of u e is e's row with each
        position p replaced by u's row at p: the rows over E translated
        by the table of u's row.  So each level costs one translate per
        choice, at C speed, over all positions at once, and each column
        is then one strided slice of the string.
        """
        size = self.size
        spell, table = _alphabet(size)
        rows = spell(range(size))  # the identity's row
        for _, choices, _ in reversed(self.levels):
            # last row first: the last choice's block first, the identity's last
            blocks = [rows.translate(table(row)) for _, _, row in reversed(choices[1:])]
            rows = rows[:0].join(blocks + [rows])
        end = len(rows) - size  # the identity's row is the last
        return [rows[i:end:size] for i in range(size)]

    def rows(self) -> Sequence[tuple[int, ...]]:
        """Every non-identity element as a row, in lexicographic order of
        the vertex images: the identity heads group.elements.  This lists
        the elements."""
        elements = self.group.elements[1:]
        if self.edges is None:
            return elements
        return [self._edge_row(p) for p in elements]

    def walk(self, labels: Sequence[int], limit: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """(row, missed) for each non-identity element whose row carries
        to at most limit positions i a label other than labels[i], missed
        being how many, in lexicographic order of the vertex images.

        An element is the identity down to its first moving level k,
        where it maps the level's vertex v to some w > v, and fixes every
        earlier vertex: the deeper k, the earlier it comes.  From there
        the walk goes depth first, with p the product of the
        representatives chosen so far and q its row.  Choosing u at the
        next level, at vertex v', makes p u, which maps v' to p[u[v']]:
        distinct u give distinct images and agree on the earlier
        vertices, so the choices taken in increasing p[u[v']] give the
        elements in lexicographic order (Seress, Permutation Group
        Algorithms, 2003).  p u also fixes the row on that level's span,
        so the branch is cut as soon as more than limit labels there and
        above differ.
        """
        p, q = identity(self.group.n), identity(self.size)
        for k in range(len(self.levels) - 1, -1, -1):
            # the moving choices of the first moving level, in increasing u[v]
            yield from self._descend(labels, limit, k, p, q, 0, self.levels[k][1][1:])

    def _descend(
        self, labels: Sequence[int], limit: int, k: int,
        p: Permutation, q: tuple[int, ...], missed: int, choices: Sequence,
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        """The walk below level k-1, where the product is p with row q and
        missed labels differ so far, taking the choices of level k in the
        order given.

        The row of p u is q r, for r the choice's row, so its label at
        position i is labels[q[r[i]]], which for the identity choice is
        labels[q[i]].  The span test reads that before anything is
        composed, and p u and q r are composed only for a choice that
        passes it: most choices fail it, and a composition costs the
        whole vertex or edge count.  A method, not a closure: a closure
        calling itself would be a reference cycle, left for the garbage
        collector."""
        levels = self.levels
        v, _, span = levels[k]
        on_vertices = self.edges is None
        for w, u, r in choices:
            self.visited += 1
            count = missed
            for i in span:
                if labels[q[r[i]]] != labels[i]:
                    count += 1
                    if count > limit:
                        break
            else:
                if w == v:  # the identity
                    pu, qu = p, q
                else:
                    pu = compose(p, u)
                    qu = pu if on_vertices else compose(q, r)
                if k == len(levels) - 1:
                    yield qu, count
                else:
                    deeper = sorted(levels[k + 1][1], key=lambda c: pu[c[0]])
                    yield from self._descend(labels, limit, k + 1, pu, qu, count, deeper)

    def first_preserving(self, labels: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The row of the first non-identity element, in the order of
        rows(), that preserves every label, if any."""
        return next((row for row, _ in self.walk(labels, 0)), None)

    def transposition_class_bound(self) -> Optional[int]:
        """Size of the largest class of positions pairwise swapped by
        transposition rows, or None when a non-identity element fixes
        every position.

        A transposition row preserves any labeling that repeats a label on
        the two positions it swaps, so every position of a class needs its
        own label.  The rows form a group with the identity, and (i j)(j
        k)(i j) = (i k), so the class of i is i plus every position
        swapped with it.  Twin vertices and pendant edges at one vertex
        form such classes.  On the vertices no element but the identity
        fixes every position, and the classes are the twin classes, read
        from the graph in O(n + m); on the edges the walk finds them.
        """
        if self.edges is None:
            return self.twin_bound
        return self.walked_class_bound()

    def walked_class_bound(self) -> Optional[int]:
        """transposition_class_bound read off the walk: under the
        all-distinct labeling the walk with limit 2 gives exactly the rows
        moving at most two positions, none or a transposition."""
        swapped = [1] * self.size
        for row, moved in self.walk(range(self.size), 2):
            if not moved:
                return None
            for i, j in enumerate(row):
                if i != j:
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


def _alphabet(size: int) -> tuple[Callable, Callable]:
    """How the columns of rows on positions 0..size-1 are spelled:
    (spell, table), where spell spells a sequence of positions, one
    character each, and table(row) is the translation table taking each
    position i to row[i].  The characters are bytes when every position
    is below 256, and str, slower to build and translate, when positions
    do not fit in a byte."""
    if size <= 256:
        pad = bytes(range(size, 256))
        return bytes, lambda row: bytes(row) + pad
    spell = lambda seq: "".join(map(chr, seq))
    return spell, spell


def _row_columns(size: int, rows: Sequence[tuple[int, ...]]) -> list:
    """The columns of listed rows, last row first, spelled by _alphabet."""
    spell, _ = _alphabet(size)
    return [spell(col) for col in zip(*reversed(rows))]


def _tie_masks(size: int, columns: Sequence) -> list[dict[int, int]]:
    """ties[k][j], j < k: the bitmask of the rows mapping j to k or k to j,
    in which bit t is row t; only nonzero masks are kept.  The tie masks
    serve both labeling searches.

    columns[i] spells the images of position i down the rows, last row
    first, as _alphabet says: translating it by the table of k, "1" at k
    and "0" elsewhere, spells the mask of the rows mapping i to k in
    binary.  The tables, one per position, are windows on one string,
    built once per call.
    """
    if size <= 256:
        zero, one, width, images = b"0", b"1", 256, set
    else:
        zero, one, width = "0", "1", size
        images = lambda text: map(ord, set(text))
    line = zero * (width - 1) + one + zero * (width - 1)
    tables = [line[width - 1 - k:2 * width - 1 - k] for k in range(size)]
    ties: list[dict[int, int]] = [{} for _ in range(size)]
    for i, text in enumerate(columns):
        for k in images(text):
            if k != i:
                mask = int(text.translate(tables[k]), 2)
                tie, j = (ties[i], k) if k < i else (ties[k], i)
                tie[j] = tie.get(j, 0) | mask
    return ties


def _row_masks(size: int, columns: Sequence) -> tuple[list[dict[int, int]], list[int]]:
    """The exhaustive search's tables over the rows of the columns: the
    ties of _tie_masks, and settled[k], the rows whose largest moved
    position is k, with a row that moves nothing counted at 0."""
    ties = _tie_masks(size, columns)
    # a row moves k exactly when it maps k elsewhere or another position onto k
    moved = [0] * size
    for k, tie in enumerate(ties):
        for j, mask in tie.items():
            moved[k] |= mask
            moved[j] |= mask
    full = (1 << len(columns[0])) - 1 if columns else 0
    settled = [0] * size
    later = 0
    for k in range(size - 1, -1, -1):
        settled[k] = (moved[k] if k else full) & ~later
        later |= moved[k]
    return ties, settled


def _tie_pairs(size: int, rows: Sequence[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """The tie masks of listed rows as one list of (k, j, ties[k][j])
    triples, bit t standing for rows[t]."""
    ties = _tie_masks(size, _row_columns(size, rows))
    return [(k, j, mask) for k, tie in enumerate(ties) for j, mask in tie.items()]


def _unbroken_row(
    labels: Sequence[int],
    rows: Sequence[tuple[int, ...]],
    pairs: Sequence[tuple[int, int, int]],
) -> Optional[tuple[int, ...]]:
    """The first row preserving the labels, read off the _tie_pairs of the
    rows: the row _Chain.first_preserving returns when rows are the
    chain's rows().

    A row is broken when it ties two positions with different labels,
    that is when it is in the mask of a pair (k, j) with labels[k] !=
    labels[j], and preserves the labels otherwise.  The OR of those masks
    is the set of broken rows; its lowest zero bit is the first row not
    broken, or len(rows) when every row is.  Unlike the walk, the test
    reads every pair: it has no early exit.
    """
    broken = 0
    for k, j, mask in pairs:
        if labels[k] != labels[j]:
            broken |= mask
    t = (~broken & (broken + 1)).bit_length() - 1
    return rows[t] if t < len(rows) else None


def _exhaustive_minimum(size: int, columns: Sequence, start: int) -> tuple[int, tuple[int, ...]]:
    """Smallest label count with a distinguishing assignment of `size`
    positions, and the first such assignment in canonical order.

    For each r, the canonical order lists the assignments with exactly r
    labels whose first occurrences increase (one per palette renaming),
    lexicographically.  Backtracking labels positions left to right and
    keeps a bitmask of the live rows, those the prefix has not broken: a
    row is broken once some i and row[i] are both labeled and differ.
    Labeling position k with a label breaks the rows of ties[k][j] for
    each earlier j labeled otherwise.  A live row of settled[k], whose
    moved positions are all labeled once k is, preserves every
    completion, which cuts the branch.  _row_masks builds both tables
    from the columns of the rows (see _tie_masks) before the search, at C
    speed; the randomized search reads ties built the same way.  Which
    bit stands for which row does not matter: the search only asks
    whether a set of rows is empty, so it returns the first
    distinguishing assignment in canonical order whatever the order of
    the rows.  The search starts at r = start, a lower bound on the
    answer.

    Requires that no row fixes every position, so that the all-distinct
    assignment is distinguishing and the search terminates at r = size.
    """
    ties, settled = _row_masks(size, columns)
    # labels[k]: the label tried last at position k (0: none yet);
    # used[k], live[k]: the label count and the live rows of the prefix 0..k-1
    labels = [0] * size
    used = [0] * (size + 1)
    live = [(1 << len(columns[0])) - 1] * (size + 1)
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
    chain: _Chain, budgets: Budgets, start: int
) -> tuple[int, tuple[int, ...]]:
    """Witness search above the exhaustive budget.

    Seeded random labelings with greedy repair: while some automorphism
    preserves the labeling, flip the label at the first position it moves.
    Every stabilizer evaluation counts against the trial budget, applied
    afresh per label count r, from r = start up.  At r = size the
    all-distinct labeling is tried first, which guarantees termination.

    Each stabilizer test either walks the chain or reads the tie masks of
    the listed rows through _unbroken_row.  Listing costs about order x
    size, and each walk costs its nodes, so the search walks until the
    walks of this search have visited more chain nodes than the group
    has elements, and only then lists the rows and builds their masks:
    a search that stops early lists nothing, and one that goes on spends
    at most about twice what the better of the two would have.  Both
    tests return the first preserving row, so the repair steps and the
    random trajectory do not depend on which one ran.
    """
    size = chain.size
    rng = random.Random(budgets.seed)
    order = chain.group.order
    chain.visited = 0
    rows: Sequence[tuple[int, ...]] = ()
    pairs: Optional[list[tuple[int, int, int]]] = None

    def first_preserving(labels: Sequence[int]) -> Optional[tuple[int, ...]]:
        nonlocal rows, pairs
        if pairs is None and chain.visited > order:
            rows = chain.rows()
            pairs = _tie_pairs(size, rows)
        if pairs is None:
            return chain.first_preserving(labels)
        return _unbroken_row(labels, rows, pairs)

    for r in range(start, size + 1):
        trials = 0
        pending: list[list[int]] = []
        if r == size:
            pending.append(list(range(1, size + 1)))
        while trials < budgets.trials or pending:
            labels = pending.pop() if pending else [rng.randint(1, r) for _ in range(size)]
            trials += 1
            row = first_preserving(labels)
            steps = 0
            while row is not None and trials < budgets.trials and steps < 2 * size:
                moved = next(i for i in range(size) if row[i] != i)
                labels[moved] = labels[moved] % r + 1
                trials += 1
                steps += 1
                row = first_preserving(labels)
            if row is None:
                normalized, distinct = _normalize_labels(labels)
                return distinct, normalized
    raise AssertionError("the all-distinct labeling must be distinguishing")


def _solve(chain: _Chain, exact: bool, budgets: Budgets, wrap) -> DistinguishingResult:
    """The least label count for the chain's positions, exact or
    certified-upper; wrap(labels, r) builds the witness.

    A trivial group: one label suffices.  A non-identity element fixing
    every position preserves every labeling: the minimum is undefined.
    Otherwise both searches start at the transposition-class bound (at
    least 2, since the group is nontrivial): no smaller r has a witness.
    """
    size = chain.size
    if not chain.levels:
        return DistinguishingResult(1, EXACT, wrap((1,) * size, 1), REASON_ASYMMETRIC, 1)
    bound = chain.transposition_class_bound()
    if bound is None:
        return DistinguishingResult(None, UNDEFINED, None, None, None)
    start = max(2, bound)
    if exact:
        value, labels = _exhaustive_minimum(size, chain.columns(), start)
        reason = REASON_NONTRIVIAL_AUT if value == 2 else REASON_EXHAUSTED
        return DistinguishingResult(value, EXACT, wrap(labels, value), reason, value)
    value, labels = _randomized_minimum(chain, budgets, start)
    return DistinguishingResult(
        value, CERTIFIED_UPPER, wrap(labels, value), REASON_NONTRIVIAL_AUT, start
    )


def distinguishing_number(
    graph: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> DistinguishingResult:
    """Least number of vertex labels admitting a distinguishing labeling.

    Exact for graphs within budgets.exact_vertices; otherwise a certified
    upper bound with a verified witness (tight when the value meets the
    transposition-class bound).  Aut(graph) comes from
    automorphism_group, which the graph object keeps, so a caller that
    asks for the group, the number and the index of one graph pays for
    one search.
    """
    chain = _chain(graph, budgets, on_edges=False)
    return _solve(chain, graph.n <= budgets.exact_vertices, budgets, VertexLabeling)


def distinguishing_index(
    graph: Graph, budgets: Budgets = DEFAULT_BUDGETS
) -> DistinguishingResult:
    """Least number of edge labels admitting a distinguishing edge labeling.

    Undefined (dedicated outcome, not an error) when some non-identity
    automorphism fixes every edge as a set, as K_2's swap does, or a swap
    of two isolated vertices.  So an edgeless graph on two or more
    vertices is undefined, while K_1, whose group is trivial, gets 1.
    Aut(graph) is searched for once per graph object, as for
    distinguishing_number.
    """
    m = graph.edge_count
    chain = _chain(graph, budgets, on_edges=True)

    def wrap(flat: tuple[int, ...], r: int) -> EdgeLabeling:
        return EdgeLabeling(dict(zip(graph.edges, flat)), r)

    return _solve(chain, m <= budgets.exact_edges, budgets, wrap)
