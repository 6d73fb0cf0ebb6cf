"""Self-test of the benchmark's output checks: each must accept a correct
answer and reject one planted wrong answer.

Run from the root of a checkout:  python3 perfbench/selftest.py
Exit status 0 when every check behaves; 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import correctness as C
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphsym import (  # noqa: E402
    BudgetExceeded, Graph, cartesian_product, cycle, distinguishing_index,
    distinguishing_number, parse_auto, s_partition, serialize_graph6, strong_product,
)


def cases():
    """(name, messages for the correct answer, messages for the planted wrong one)."""
    reference = json.loads((Path(__file__).parent / "verify_reference.json").read_text())
    reports = [dict(r) for r in reference]
    changed = [dict(r) for r in reference]
    changed[0] = dict(changed[0], quantities={**changed[0]["quantities"], "planted": 1})
    yield ("verify: quantities of a decided report",
           C.verify_errors(0, reports, reference), C.verify_errors(0, changed, reference))
    yield ("verify: exit status 2",
           C.verify_errors(0, reports, reference), C.verify_errors(2, reports, reference))
    yield ("verify: a decided report goes missing",
           C.verify_errors(0, reports, reference), C.verify_errors(0, reports[1:], reference))
    yield ("verify: a FAIL report is a failed outcome",
           [] if C.classify_report("pass") == C.DECIDED else ["pass misread"],
           [] if C.classify_report("fail") == C.DECIDED else ["fail rejected"])

    g = cartesian_product(cycle(4), cycle(3))
    g6 = serialize_graph6(g)
    for kind, solve in (("vertex", distinguishing_number), ("edge", distinguishing_index)):
        good = solve(g).to_json_dict()
        bad = json.loads(json.dumps(good))
        if kind == "vertex":
            bad["witness"]["labels"] = [1] * g.n  # all equal: every automorphism preserves it
        else:
            bad["witness"]["labels"] = [[u, v, 1] for u, v, _ in bad["witness"]["labels"]]
        yield (f"query-mix: {kind} witness that some automorphism preserves",
               C.witness_errors(g6, kind, good), C.witness_errors(g6, kind, bad))

    n, edges = inputs.relabeled_cycle(1, 20)
    factor = Graph.from_edges(n, edges)
    expected = Graph.from_edges(n * n, inputs.product_edges("strong", n, edges, n, edges))
    built = strong_product(factor, factor)
    parsed = parse_auto(serialize_graph6(built))
    classes = len(s_partition(parsed).classes)
    dropped = Graph.from_edges(built.n, built.edges[1:])
    yield ("io-large: a round trip that drops an edge",
           C.roundtrip_errors("C20", expected, built, {"graph6": parsed}, classes),
           C.roundtrip_errors("C20", expected, built, {"graph6": dropped}, classes))
    yield ("io-large: a product that differs from its definition",
           C.roundtrip_errors("C20", expected, built, {"graph6": parsed}, classes),
           C.roundtrip_errors("C20", expected, dropped, {"graph6": dropped}, classes))
    yield ("io-large: an S-partition with merged classes",
           C.roundtrip_errors("C20", expected, built, {"graph6": parsed}, classes),
           C.roundtrip_errors("C20", expected, built, {"graph6": parsed}, classes - 1))
    yield ("outcomes: a non-budget exception is an error",
           [] if C.classify_exception(BudgetExceeded("x")) == C.UNDECIDED else ["budget misread"],
           [] if C.classify_exception(ValueError("x")) == C.UNDECIDED else ["error rejected"])

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [[(m["name"], m["unit"]) for m in config[key]] for key in ("end_to_end", "per_layer")]
    printed = [run.END_TO_END, run.PER_LAYER]
    yield ("BENCHMARK.json lists the metrics run.py prints",
           [] if declared == printed else ["metric lists differ"],
           [] if declared[::-1] == printed else ["metric lists differ"])


def main() -> int:
    ok = True
    for name, good, bad in cases():
        passed = not good and bool(bad)
        ok &= passed
        print(f"{'ok' if passed else 'BROKEN':6} {name}: accepts correct {not good}, "
              f"rejects planted {bool(bad)}")
        for message in good:
            print(f"       unexpected rejection: {message}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
