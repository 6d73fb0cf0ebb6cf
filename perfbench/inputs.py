"""Seeded input generators for the benchmark workloads.

Inputs are built here with the standard library only, so the program under
test sees nothing but the generated graph6 strings (query-mix) or the
relabeled factor graphs (io-large).  The same seed always gives the same
inputs.
"""

from __future__ import annotations

import random

QUERY_KINDS = ("gnp", "tree", "product")
PRODUCT_OPS = ("cartesian", "direct", "strong")
IO_SIZES = (20, 40, 60)
IO_OPS = ("cartesian", "strong")
PRODUCT_STRIDE = 6
# A vertex with five leaves forces five edge labels, and the exhaustive search
# up to 14 edges then tries every labeling with up to four labels: over 100 s
# for one 15-vertex tree.  Bounded degree keeps each query within a run.
MAX_TREE_DEGREE = 4


def encode_graph6(n: int, edges) -> str:
    """graph6 text for n <= 62 vertices (one-byte header)."""
    if not 0 <= n <= 62:
        raise ValueError("this encoder covers n <= 62 only")
    bits = set()
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        bits.add(b * (b - 1) // 2 + a)
    npairs = n * (n - 1) // 2
    out = [chr(n + 63)]
    for start in range(0, npairs, 6):
        group = 0
        for k in range(start, start + 6):
            group = (group << 1) | (k in bits)
        out.append(chr(group + 63))
    return "".join(out)


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _gnp(rng: random.Random, n: int) -> list[tuple[int, int]]:
    p = rng.uniform(0.2, 0.5)
    while True:
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        if _connected(n, edges):
            return edges


def _tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labeled tree of maximum degree MAX_TREE_DEGREE, from a random
    Pruefer sequence (a vertex's degree is its count in the sequence plus 1)."""
    while True:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        if max(seq.count(v) for v in set(seq)) < MAX_TREE_DEGREE:
            break
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def factor_edges(kind: str, k: int) -> list[tuple[int, int]]:
    if kind == "P":
        return [(i, i + 1) for i in range(k - 1)]
    if kind == "C":
        return [(i, (i + 1) % k) for i in range(k)]
    return [(i, j) for j in range(k) for i in range(j)]


def product_edges(op: str, n1: int, e1, n2: int, e2) -> list[tuple[int, int]]:
    """Edges of a product on vertices g * n2 + h, by the textbook definition."""
    box = [(g * n2 + y, g * n2 + z) for g in range(n1) for y, z in e2]
    box += [(u * n2 + y, v * n2 + y) for u, v in e1 for y in range(n2)]
    times = [(u * n2 + y, v * n2 + z) for u, v in e1 for y, z in e2]
    times += [(u * n2 + z, v * n2 + y) for u, v in e1 for y, z in e2]
    if op == "cartesian":
        return box
    if op == "direct":
        return times
    return box + times


def _odd_cycle(kind: str, k: int) -> bool:
    """Whether factor kind/k contains an odd cycle (P never; C_k for odd k; K_k for k >= 3)."""
    return (kind == "C" and k % 2 == 1) or (kind == "K" and k >= 3)


def product_catalogue() -> list[tuple[str, int, str, str, int]]:
    """Every connected product F1 op F2 of factors P_a, C_a, K_a with 13..20
    vertices, one orientation per factor pair, in a fixed order.

    Products up to 12 vertices take the exhaustive labeling search, which
    verify-default already covers; these take the randomized
    certified-upper path."""
    factors = [(kind, k) for kind in "PCK" for k in range(2 if kind != "C" else 3, 11)]
    out = []
    for i, (k1, a) in enumerate(factors):
        for k2, b in factors[i:]:
            if not 13 <= a * b <= 20:
                continue
            for op in PRODUCT_OPS:
                if op != "direct" or _odd_cycle(k1, a) or _odd_cycle(k2, b):
                    out.append((k1, a, op, k2, b))
    return out


def query_batch(seed: int, batch: int) -> list[tuple[str, str]]:
    """The queries of pass ``batch`` for ``seed``, as (kind, graph6) pairs.

    A third are the fixed product sample ``product_catalogue()[::PRODUCT_STRIDE]``,
    the same in every pass and for every seed; a third are random connected
    G(n, p) graphs and a third random trees, both with n = 6..16, drawn from
    (seed, batch).  The seed also fixes the order of the queries.
    """
    rng = random.Random(f"query-mix:{seed}:{batch}")
    out = []
    for k1, a, op, k2, b in product_catalogue()[::PRODUCT_STRIDE]:
        edges = product_edges(op, a, factor_edges(k1, a), b, factor_edges(k2, b))
        out.append(("product", encode_graph6(a * b, edges)))
    for _ in range(len(out)):
        n = rng.randint(6, 16)
        out.append(("gnp", encode_graph6(n, _gnp(rng, n))))
        n = rng.randint(6, 16)
        out.append(("tree", encode_graph6(n, _tree(rng, n))))
    rng.shuffle(out)
    return out


def relabeled_cycle(seed: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """C_k with its vertices renamed by a seeded permutation."""
    perm = list(range(k))
    random.Random(f"io-large:{seed}:{k}").shuffle(perm)
    return k, [(perm[i], perm[(i + 1) % k]) for i in range(k)]
