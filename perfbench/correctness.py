"""Outcome classification and the output checks, kept out of the timed phase.

Every answer ends in exactly one of four outcomes:

- DECIDED: an exact (or certified tight) answer, or a PASS report;
- UNDECIDED: a documented budget outcome, i.e. ``BudgetExceeded``, a
  certified bound that is not tight, or a not-applicable report;
- FAILED: a decided answer that is wrong: a FAIL report, or an output
  rejected by a check below;
- ERROR: anything else, such as another exception or exit status 2.

``decided_frac`` counts DECIDED and FAILED over all answers; ``error_frac``
counts FAILED and ERROR over all attempts.  Each check returns a list of
messages, empty when the output is accepted.
"""

from __future__ import annotations

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"
ERROR = "error"


def classify_exception(exc: BaseException) -> str:
    """A budget exception is undecided; every other exception is an error."""
    return UNDECIDED if type(exc).__name__ == "BudgetExceeded" else ERROR


def classify_report(status: str) -> str:
    return {"pass": DECIDED, "not-applicable": UNDECIDED, "fail": FAILED}.get(status, ERROR)


def classify_result(result) -> str:
    """A DistinguishingResult: decided when provably the exact minimum."""
    return DECIDED if result.is_tight else UNDECIDED


def verify_errors(exit_code: int, reports: list[dict], reference: list[dict]) -> list[str]:
    """``verify --all`` output against the reports decided at the reference commit.

    The exit status must be 0, or 1 when some report fails (FAIL reports
    themselves are counted by ``classify_report``).  Every reference report
    must come back with the same status and identical quantities; a report
    may move from not-applicable to decided.
    """
    errors = []
    expected_exit = 1 if any(r["status"] == "fail" for r in reports) else 0
    if exit_code != expected_exit:
        errors.append(f"verify exited with status {exit_code}")
    by_key = {(r["check"], r["instance"]): r for r in reports}
    for ref in reference:
        key = (ref["check"], ref["instance"])
        got = by_key.get(key)
        if got is None:
            errors.append(f"missing report {key}")
        elif got["status"] != ref["status"] or got["quantities"] != ref["quantities"]:
            errors.append(f"report {key} changed: {got['status']} {got['quantities']}")
    return errors


def _networkx_graph(graph6: str):
    import networkx as nx

    return nx.from_graph6_bytes(graph6.encode("ascii"))


def _nontrivial_preserving_map(graph, node_match=None, edge_match=None) -> bool:
    """Whether some non-identity automorphism of ``graph`` preserves the labels."""
    from networkx.algorithms.isomorphism import GraphMatcher

    matcher = GraphMatcher(graph, graph, node_match=node_match, edge_match=edge_match)
    return any(any(u != v for u, v in m.items()) for m in matcher.isomorphisms_iter())


def witness_errors(graph6: str, kind: str, answer: dict) -> list[str]:
    """A distinguishing-number or -index witness, checked with networkx.

    ``answer`` holds ``value`` and the JSON witness (``labels``, ``r``) as
    ``DistinguishingResult.to_json_dict`` gives them.  The labels must lie
    in 1..value, and no non-identity automorphism may preserve them.
    """
    witness = answer["witness"]
    value = answer["value"]
    name = f"{kind} witness for {graph6}"
    if witness is None or witness["r"] != value:
        return [f"{name}: witness missing or r != value {value}"]
    graph = _networkx_graph(graph6)
    if kind == "vertex":
        labels = witness["labels"]
        if len(labels) != graph.number_of_nodes() or not all(1 <= x <= value for x in labels):
            return [f"{name}: labels do not cover 1..{value} on every vertex"]
        for v, lab in enumerate(labels):
            graph.nodes[v]["label"] = lab
        moved = _nontrivial_preserving_map(
            graph, node_match=lambda a, b: a["label"] == b["label"])
    else:
        triples = witness["labels"]
        if ({(u, v) for u, v, _ in triples} != {tuple(sorted(e)) for e in graph.edges}
                or not all(1 <= lab <= value for *_, lab in triples)):
            return [f"{name}: labels do not cover 1..{value} on every edge"]
        for u, v, lab in triples:
            graph.edges[u, v]["label"] = lab
        moved = _nontrivial_preserving_map(
            graph, edge_match=lambda a, b: a["label"] == b["label"])
    return [f"{name}: a non-identity automorphism preserves every label"] if moved else []


def roundtrip_errors(name: str, expected, built, parsed: dict, classes: int) -> list[str]:
    """io-large: the built product equals the textbook product, every
    format's round trip equals the built product, and the S-partition has
    one class per vertex (products of cycles C_k, k >= 4, are S-thin)."""
    errors = [] if built == expected else [f"{name}: built product differs from its definition"]
    errors += [f"{name}: {fmt} round trip differs" for fmt, g in parsed.items() if g != built]
    if classes != expected.n:
        errors.append(f"{name}: S-partition has {classes} classes, expected {expected.n}")
    return errors
