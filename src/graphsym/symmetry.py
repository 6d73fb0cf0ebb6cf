"""Automorphism groups and isomorphisms by one backtracking search.

Each search first computes the stable colouring of its graphs: the
degrees, refined until every two vertices of one colour have equally many
neighbours of each colour (colour refinement, the first step of
McKay-Piperno, Practical graph isomorphism II, 2014).  Isomorphisms keep
that colouring, so a single iterative kernel extends a partial vertex map
in vertex order, taking candidate images only from the vertex's own colour
and testing them on adjacency with the images of its earlier neighbours;
no branch it cuts holds a completion, so the completions and their order
are those of the unpruned search.  The kernel works on int bitsets, one
bit per vertex of the target graph: the candidates of a vertex are one
AND of masks per earlier neighbour, and the test that a candidate has no
other mapped neighbour is one AND and one comparison, so a step keeps no
per-vertex counts.  The colouring is not refined again after a branch, so
where it leaves large classes the search can still take exponential
time: on regular graphs, such as vertex-transitive strong powers, whose
colouring is one class, and on K1,5 x K1,5 (strong), whose 25 leaf pairs
are one class, with each star's centre numbered last.  A node budget on
the kernel's pushes bounds the automorphism search; the isomorphism
search has none.  Isomorphisms walk the kernel from the empty map.
``automorphism_group`` walks a stabilizer chain instead: for v = n-1 down
to 0 it takes, for each possible w, one automorphism that fixes 0..v-1 and
maps v to w.  The automorphisms that a search found are kept as
generators, with the orbit of v under the group they make: where w is in
that orbit the representative is read off the orbit's transversal, and
where w is in the orbit of a candidate already refuted it is skipped, so
the kernel searches only where the known group cannot answer.  Each
successful search at least doubles the known group, so there are at most
log2 |Aut| of them.  The coset representatives multiply to every element
exactly once, so their counts give a lower bound on the group order as
soon as they are found, and the order budget is decided before any
element is listed.  Under the budget the group is held as that chain, the
representatives of each level; its elements, permutations in one-line
image notation (tuples), are listed in lexicographic order only when
first asked for.  Each graph keeps what its search proved, so the group
of one Graph object is searched for once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, prod
from operator import itemgetter
from typing import Iterator, Optional

from .graph import Graph

Permutation = tuple[int, ...]


class BudgetExceeded(RuntimeError):
    """A configured size or enumeration bound was hit."""


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: the image of v is p[q[v]]."""
    if len(q) < 2:  # itemgetter needs an index, and for one it returns a bare item
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def is_automorphism(graph: Graph, p: Permutation) -> bool:
    """True iff p maps edges to edges (and therefore non-edges to non-edges).

    Because p is a bijection, mapping every edge onto an edge already
    forces non-edges onto non-edges.
    """
    if len(p) != graph.n:
        raise ValueError("permutation length does not match vertex count")
    if sorted(p) != list(range(graph.n)):
        raise ValueError("not a permutation of the vertex set")
    nbr = graph.neighbor_sets
    return all(p[v] in nbr[p[u]] for u, v in graph.edges)


@dataclass(frozen=True, eq=False)
class AutomorphismGroup:
    """The automorphism group of a graph on n vertices, held as a
    stabilizer chain.

    levels holds (v, reps), v increasing, for each vertex v whose orbit
    under the stabilizer of 0..v-1 is more than v itself: reps, the
    identity first, are coset representatives of the stabilizer of 0..v
    in that of 0..v-1, one mapping v to each point of that orbit, in
    increasing order of that point.  Every element is one product
    u_0 u_1 ... of one representative per level, shallowest first, so
    order is the product of the level sizes.  elements lists those
    products in lexicographic order on first use.  Two groups are equal
    when they have the same elements.
    """

    n: int
    levels: tuple[tuple[int, tuple[Permutation, ...]], ...]

    @property
    def order(self) -> int:
        return prod(len(reps) for _, reps in self.levels)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        # the stabilizer of 0..v-1 is {u p : u a representative for v, p in
        # the stabilizer of 0..v}: build it deepest level first
        elements = [identity(self.n)]
        for _, reps in reversed(self.levels):
            elements = [compose(u, p) for u in reps for p in elements]
        elements.sort()
        return tuple(elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AutomorphismGroup):
            return NotImplemented
        return (self.n, self.order) == (other.n, other.order) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.n, self.order))


def _stable_colouring(graph: Graph) -> list[int]:
    """The coarsest equitable partition of the vertices that refines their
    degrees, as one colour per vertex (colour refinement, 1-WL).

    All vertices start in one class, the first splitter.  A splitter
    splits every class whose vertices have
    unequally many neighbours in it into pieces, in increasing order of
    that number: the first piece keeps the class's colour, the others take
    new colours, and each becomes a splitter.  Of a class split while it is
    not waiting to split others, the largest piece need not: its counts
    follow from the others' and the whole class's (Hopcroft's rule).  So
    each vertex lies in O(log n) splitters and the refinement takes
    O(m log n) steps, where one pass over the graph per round (textbook
    1-WL) would take n/2 passes on a path.  When no splitter is left, any
    two vertices of one colour have equally many neighbours of each colour.
    Every choice here is read from colours and counts, never from vertex
    numbers, so an isomorphism g -> h maps g's colouring onto h's, and
    every automorphism maps each colour onto itself.
    """
    adj = graph.adj
    # one class to start: split by itself, it splits into the degree classes
    colour = [0] * graph.n
    cells = [set(range(graph.n))]
    splitters, waiting = [0], {0}
    for s in splitters:  # the list grows while it is read
        waiting.discard(s)
        count: dict[int, int] = {}
        for x in cells[s]:
            for y in adj[x]:
                count[y] = count.get(y, 0) + 1
        # the vertices with a neighbour in s, by colour and then by count:
        # only these move, so a split costs what s's edges cost
        hit: dict[int, dict[int, set[int]]] = {}
        for y, k in count.items():
            hit.setdefault(colour[y], {}).setdefault(k, set()).add(y)
        for c in sorted(hit):
            pieces = [hit[c][k] for k in sorted(hit[c])]
            cell = cells[c]
            for piece in pieces:
                cell -= piece
            if not cell:  # every vertex was hit: the lowest count keeps c
                cells[c] = pieces.pop(0)
            if not pieces:
                continue
            new = list(range(len(cells), len(cells) + len(pieces)))
            cells.extend(pieces)
            for j, piece in zip(new, pieces):
                for v in piece:
                    colour[v] = j
            if c not in waiting:
                largest = max([c, *new], key=lambda j: len(cells[j]))
                new = [j for j in [c, *new] if j != largest]
            splitters.extend(new)
            waiting.update(new)
    return colour


class _Matcher:
    """A map of g's vertices 0..depth-1 into h, extended in vertex order,
    on int bitsets: bit w of a mask stands for h's vertex w.

    ``h_mask[w]`` holds h's neighbours of w, ``pool[v]`` the vertices of h
    that have v's colour in the stable colourings of g and h, and ``used``
    the images taken so far.  An image w of the next vertex v must lie in
    ``pool[v]`` and not in ``used``, be adjacent to the image of every
    earlier neighbour of v, and have no other mapped neighbour: ``h_mask[w]
    & used`` must equal ``want``, the mask of those images.  That is
    adjacency consistency with every mapped vertex, and it keeps no state
    that ``push`` and ``pop`` must update beyond ``used``.  Every
    isomorphism keeps the colours, so the colour test cuts only branches
    that no completion passes through.  Candidates are taken lowest bit
    first, so completions come in lexicographic image order.

    ``pushes`` counts the pushes made; one past ``max_pushes`` raises
    BudgetExceeded, which bounds the work of a search.
    """

    def __init__(self, g: Graph, h: Graph, max_pushes: Optional[int] = None) -> None:
        n = g.n
        self.n = n
        self.g_colour = _stable_colouring(g)
        self.h_colour = self.g_colour if h is g else _stable_colouring(h)
        self.h_mask = [sum(1 << x for x in row) for row in h.adj]
        by_colour: dict[int, int] = {}
        for w, c in enumerate(self.h_colour):
            by_colour[c] = by_colour.get(c, 0) | 1 << w
        self.pool = [by_colour.get(c, 0) for c in self.g_colour]
        self.earlier = [tuple(u for u in g.adj[v] if u < v) for v in range(n)]
        self.image = [-1] * n
        self.used = 0
        self.depth = 0
        self.pushes = 0
        self.max_pushes = inf if max_pushes is None else max_pushes

    def push(self, w: int) -> None:
        """Map the next vertex to w."""
        self.pushes += 1
        if self.pushes > self.max_pushes:
            raise _nodes_exceeded(self.max_pushes)
        self.image[self.depth] = w
        self.used |= 1 << w
        self.depth += 1

    def pop(self) -> None:
        """Undo the last push."""
        self.depth -= 1
        self.used ^= 1 << self.image[self.depth]

    def options(self) -> tuple[int, int]:
        """(mask, want) for the next vertex v: mask, the unused vertices of
        v's colour adjacent to the image of each earlier neighbour u of v,
        and want, the mask of those images.  A w of mask fits v when
        h_mask[w] & used == want."""
        image, h_mask = self.image, self.h_mask
        v = self.depth
        mask, want = self.pool[v] & ~self.used, 0
        for u in self.earlier[v]:
            x = image[u]
            mask &= h_mask[x]
            want |= 1 << x
        return mask, want

    def candidates(self) -> Iterator[int]:
        """The images that fit the next vertex, lazily and in increasing order."""
        mask, want = self.options()
        used, h_mask = self.used, self.h_mask
        while mask:
            low = mask & -mask
            mask ^= low
            w = low.bit_length() - 1
            if h_mask[w] & used == want:
                yield w

    def completions(self) -> Iterator[Permutation]:
        """Every full map extending the current one, in lexicographic image
        order: depth-first, with an explicit stack of the candidate masks
        not yet taken and the want of each depth."""
        n, image, h_mask = self.n, self.image, self.h_mask
        if self.depth == n:
            yield tuple(image)
            return
        mask, want = self.options()
        masks, wants = [mask], [want]
        while masks:
            mask, want, used = masks[-1], wants[-1], self.used
            while mask:
                low = mask & -mask
                mask ^= low
                w = low.bit_length() - 1
                if h_mask[w] & used == want:
                    break
            else:
                masks.pop()
                wants.pop()
                if masks:
                    self.pop()
                continue
            masks[-1] = mask
            self.push(w)
            if self.depth == n:
                yield tuple(image)
                self.pop()
            else:
                mask, want = self.options()
                masks.append(mask)
                wants.append(want)

    def first(self) -> Optional[Permutation]:
        """The first completion of the current map, or None; the map is left
        as it was."""
        depth = self.depth
        found = next(self.completions(), None)
        while self.depth > depth:
            self.pop()
        return found


def _transversal(v: int, gens: list[Permutation], n: int) -> dict[int, Permutation]:
    """The orbit of v under the group gens make, each point x with an
    element of that group mapping v to x (a Schreier transversal)."""
    trans = {v: identity(n)}
    queue = [v]
    for x in queue:
        for g in gens:
            y = g[x]
            if y not in trans:
                trans[y] = compose(g, trans[x])
                queue.append(y)
    return trans


def _order_exceeded(max_order: int) -> BudgetExceeded:
    return BudgetExceeded(f"automorphism group larger than the order budget {max_order}")


def _nodes_exceeded(max_nodes: int) -> BudgetExceeded:
    return BudgetExceeded(f"automorphism search larger than the node budget {max_nodes}")


def _coset_representatives(
    graph: Graph, max_nodes: Optional[int] = None
) -> Iterator[tuple[int, Permutation]]:
    """Yield (v, p) for v = n-1 down to 0 and, in increasing order, each
    w != v for which some automorphism fixes 0..v-1 and maps v to w; p is
    one such automorphism.

    With the identity, the p yielded for v are coset representatives of the
    stabilizer of 0..v in the stabilizer of 0..v-1.  The automorphisms
    that searches found are kept as generators; at level v they all fix
    0..v-1.  A w in the orbit of v under the group they make takes its p
    from the transversal, with no search.  A w in the orbit of a candidate
    that a search refuted is skipped, because that group lies in the
    stabilizer of 0..v-1 and so keeps v's orbit apart from the refuted one.
    Any other w is searched for in the part of the full search tree below
    the map (0..v-1 fixed, v -> w); a success is a new generator outside
    the known group, so it at least doubles it.  The deepest levels come
    first because their searches have the fewest free vertices: they are
    cheap, and the order they prove can end the walk before a shallow
    search runs.  One kernel serves every search, and past max_nodes
    pushes in all, the identity's n included, it raises BudgetExceeded.
    """
    n = graph.n
    m = _Matcher(graph, graph, max_nodes)
    for v in range(n):
        m.push(v)
    gens: list[Permutation] = []
    for v in reversed(range(n)):
        m.pop()
        trans = _transversal(v, gens, n)
        dead: set[int] = set()
        for w in m.candidates():
            if w == v or w in dead:
                continue
            p = trans.get(w)
            if p is None:
                m.push(w)
                p = m.first()
                m.pop()
                if p is None:
                    dead.update(_transversal(w, gens, n))
                    continue
                gens.append(p)
                trans = _transversal(v, gens, n)
            yield v, p


def automorphism_group(
    graph: Graph,
    *,
    max_vertices: int = 20,
    max_order: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> AutomorphismGroup:
    """Aut(graph), raising BudgetExceeded beyond the given bounds.

    The order budget is checked against the product of the coset
    representative counts found so far, a lower bound on the order, so an
    oversized group is rejected without listing its elements.  The node
    budget bounds the search's work: its kernel pushes, over all its
    searches.  The group returned holds the representatives of every
    level; its elements are listed only when read.

    The graph object keeps what its search proved: the group once found,
    the largest order budget the group is known to exceed, or else the
    order and node budgets of a search that ran out of nodes.  A later
    call checks the vertex bound, then answers from what is kept without
    a search: from a group under any order budget, as a new search would;
    as over the order budget when its order budget is at most the one
    exceeded; as over the node budget when its node budget is at most the
    one run out of and its order budget, which can only prolong the same
    search, at least that search's.  An answer kept costs no search, so
    the node budget does not apply to it.  Otherwise it searches again.
    Nothing is shared between distinct objects, equal or not.
    """
    if graph.n > max_vertices:
        raise BudgetExceeded(
            f"graph has {graph.n} vertices, above the automorphism bound {max_vertices}"
        )
    known = graph._aut
    reach = inf if max_order is None else max_order
    if isinstance(known, AutomorphismGroup):
        # a search tests the budget once it has a representative: order > 1
        if known.order > max(reach, 1):
            raise _order_exceeded(max_order)
        return known
    if isinstance(known, int) and reach <= known:
        raise _order_exceeded(max_order)
    if isinstance(known, tuple):
        # a search under the order budget ran past the node budget; a
        # larger order budget only prolongs that same search
        ran_reach, ran_nodes = known
        if max_nodes is not None and max_nodes <= ran_nodes and reach >= ran_reach:
            raise _nodes_exceeded(max_nodes)
    ident = identity(graph.n)
    levels: dict[int, list[Permutation]] = {}
    order = 1
    try:
        for v, p in _coset_representatives(graph, max_nodes):
            reps = levels.setdefault(v, [ident])
            order = order // len(reps) * (len(reps) + 1)
            reps.append(p)
            if order > reach:
                break
        else:
            # the levels were found deepest first
            group = AutomorphismGroup(
                graph.n, tuple((v, tuple(reps)) for v, reps in reversed(levels.items()))
            )
            object.__setattr__(graph, "_aut", group)
            return group
    except BudgetExceeded:  # the kernel ran out of nodes
        object.__setattr__(graph, "_aut", (reach, max_nodes))
        raise
    object.__setattr__(graph, "_aut", max_order)
    raise _order_exceeded(max_order)


def find_isomorphism(g: Graph, h: Graph) -> Optional[Permutation]:
    """Backtracking search for a vertex bijection g -> h mapping edges onto edges.

    Returns the first isomorphism found (lexicographic image order) or None.
    The search has no budget.  It maps each vertex only into its own class
    of the stable colouring, and graphs whose colour classes differ in size
    are refused before it; a relabelled random 100-vertex tree, whose
    colouring splits into small classes, takes about 100 kernel steps.
    Where the colouring leaves large classes it can still take exponential
    time: on regular graphs, whose colouring is one class, such as vertex-
    transitive strong powers, and on graphs like K1,5 x K1,5 (strong) with
    each star's centre numbered last.
    """
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return None
    m = _Matcher(g, h)
    if sorted(m.g_colour) != sorted(m.h_colour):
        return None
    return m.first()


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether find_isomorphism finds an isomorphism g -> h.  Like that
    search it has no budget, and can take exponential time where the
    stable colouring leaves large classes."""
    return find_isomorphism(g, h) is not None
