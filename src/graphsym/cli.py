"""Command-line front end.

Verbs: product, autgroup, distnum, distidx, sthin, traceable, verify.
Graphs are read from files (or stdin via "-") in graph6 or edge-list
format, detected automatically.  Exit status: 0 on success or pass, 1 when
a verification run contains a failed check, 2 on usage, parse, or budget
errors.  All randomness flows from --seed, so identical invocations give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .checks import (
    all_applicable_pass,
    default_corpus,
    graph_name,
    run_all,
)
from .distinguishing import (
    DEFAULT_BUDGETS,
    UNDEFINED,
    Budgets,
    distinguishing_index,
    distinguishing_number,
)
from .formats import FormatError, parse_auto, parse_graph6, serialize_graph6
from .graph import Graph, complete, cycle, path
from .products import cartesian_product, direct_product, strong_product
from .structure import hamiltonian_path_exists, s_partition, is_s_thin
from .symmetry import BudgetExceeded, automorphism_group

_FAMILY_RE = re.compile(r"^([PCK])(\d+)$")
_PAIR_RE = re.compile(r"^([PCK]\d+)x([PCK]\d+)s?$")


def _count(text: str) -> int:
    """A budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _budget_parent() -> argparse.ArgumentParser:
    d = DEFAULT_BUDGETS
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--exact-bound", type=_count, default=d.exact_vertices,
        help="largest vertex count for exhaustive vertex-labeling search",
    )
    p.add_argument(
        "--edge-exact-bound", type=_count, default=d.exact_edges,
        help="largest edge count for exhaustive edge-labeling search",
    )
    p.add_argument(
        "--aut-bound", type=_count, default=d.aut_vertices,
        help="largest vertex count for automorphism enumeration",
    )
    p.add_argument(
        "--max-order", type=_count, default=d.aut_max_order or 0,
        help="abort automorphism enumeration beyond this many elements (0 = unlimited)",
    )
    p.add_argument(
        "--ham-bound", type=_count, default=d.hamiltonian_vertices,
        help="largest vertex count for the Hamiltonian path search",
    )
    p.add_argument(
        "--trials", type=_count, default=d.trials,
        help="randomized witness search budget per label count",
    )
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    return p


def _budgets(args: argparse.Namespace) -> Budgets:
    return Budgets(
        exact_vertices=args.exact_bound,
        exact_edges=args.edge_exact_bound,
        aut_vertices=args.aut_bound,
        aut_max_order=None if args.max_order == 0 else args.max_order,
        hamiltonian_vertices=args.ham_bound,
        trials=args.trials,
        seed=args.seed,
    )


def _load_graph(source: str) -> Graph:
    if source == "-":
        return parse_auto(sys.stdin.read())
    with open(source, "r", encoding="ascii") as fh:
        return parse_auto(fh.read())


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_product(args: argparse.Namespace) -> int:
    a = _load_graph(args.a)
    b = _load_graph(args.b)
    op = {"cartesian": cartesian_product, "direct": direct_product, "strong": strong_product}
    result = op[args.op](a, b)
    g6 = serialize_graph6(result)
    _emit(
        args,
        {"op": args.op, "n": result.n, "edges": result.edge_count, "graph6": g6},
        [g6],
    )
    return 0


def _cmd_autgroup(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    b = _budgets(args)
    group = automorphism_group(g, max_vertices=b.aut_vertices, max_order=b.aut_max_order)
    payload: dict = {"n": group.n, "order": group.order}
    lines = [f"order {group.order}"]
    if args.elements:
        payload["elements"] = [list(p) for p in group.elements]
        lines.extend(" ".join(map(str, p)) for p in group.elements)
    _emit(args, payload, lines)
    return 0


def _cmd_distnum(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = distinguishing_number(g, _budgets(args))
    payload = result.to_json_dict()
    lines = [
        f"value {result.value} ({result.mode})",
        f"reason {result.lower_bound_reason}",
        f"witness {list(result.witness.labels)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_distidx(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = distinguishing_index(g, _budgets(args))
    payload = result.to_json_dict()
    if result.mode == UNDEFINED:
        lines = ["undefined: a non-identity automorphism fixes every edge"]
    else:
        lines = [
            f"value {result.value} ({result.mode})",
            f"reason {result.lower_bound_reason}",
            f"witness {payload['witness']['labels']}",
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_sthin(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    part = s_partition(g)
    thin = is_s_thin(g)
    _emit(
        args,
        {"s_thin": thin, "classes": [list(c) for c in part.classes]},
        [f"s-thin: {'yes' if thin else 'no'}",
         "classes: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in part.classes)],
    )
    return 0


def _cmd_traceable(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    b = _budgets(args)
    ok = hamiltonian_path_exists(g, max_vertices=b.hamiltonian_vertices)
    _emit(args, {"traceable": ok}, [f"traceable: {'yes' if ok else 'no'}"])
    return 0


def _family_graph(token: str) -> Graph:
    m = _FAMILY_RE.match(token)
    if not m:
        raise FormatError(f"unknown family shorthand {token!r}")
    kind, num = m.group(1), int(m.group(2))
    if kind == "P":
        return path(num)
    if kind == "C":
        return cycle(num)
    return complete(num)


def _parse_corpus(text: str):
    """Corpus lines: family shorthands (P5, C6, K4), explicit strong-product
    pairs (P3xP4s), or raw graph6 strings.  '#' starts a comment."""
    bases: list[tuple[str, Graph]] = []
    pairs: list[tuple[tuple[str, Graph], tuple[str, Graph]]] = []
    for raw in text.splitlines():
        token = raw.split("#", 1)[0].strip()
        if not token:
            continue
        pair = _PAIR_RE.match(token)
        if pair:
            a, b = pair.group(1), pair.group(2)
            pairs.append(((a, _family_graph(a)), (b, _family_graph(b))))
        elif _FAMILY_RE.match(token):
            bases.append((token, _family_graph(token)))
        else:
            g = parse_graph6(token)
            bases.append((graph_name(g), g))
    return bases, pairs


def _cmd_verify(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    if args.corpus is not None:
        with open(args.corpus, "r", encoding="ascii") as fh:
            bases, pairs = _parse_corpus(fh.read())
        reports = run_all(bases, budgets, extra_pairs=pairs)
    elif args.all:
        reports = run_all(default_corpus(), budgets)
    else:
        print("error: verify needs --all or --corpus FILE", file=sys.stderr)
        return 2
    passed = all_applicable_pass(reports)
    counts = {
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "not-applicable": sum(r.status == "not-applicable" for r in reports),
    }
    if args.json:
        print(json.dumps(
            {"passed": passed, "counts": counts,
             "reports": [r.to_json_dict() for r in reports]},
            indent=2,
        ))
    else:
        for r in reports:
            line = f"[{r.status.upper():>14}] {r.check}: {r.instance}"
            if r.notes:
                line += f"  ({'; '.join(r.notes)})"
            print(line)
        print(f"checks: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['not-applicable']} not applicable")
        print("result:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    budget = _budget_parent()
    parser = argparse.ArgumentParser(
        prog="graphsym",
        description="Graph products, automorphism groups, and symmetry-breaking labelings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("product", parents=[budget], help="build a graph product")
    p.add_argument("--op", choices=("cartesian", "direct", "strong"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("autgroup", parents=[budget], help="enumerate the automorphism group")
    p.add_argument("graph")
    p.add_argument("--elements", action="store_true", help="print one permutation per line")
    p.set_defaults(func=_cmd_autgroup)

    p = sub.add_parser("distnum", parents=[budget], help="distinguishing number")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_distnum)

    p = sub.add_parser("distidx", parents=[budget], help="distinguishing index")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_distidx)

    p = sub.add_parser("sthin", parents=[budget], help="closed-neighborhood partition")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_sthin)

    p = sub.add_parser("traceable", parents=[budget], help="Hamiltonian path existence")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_traceable)

    p = sub.add_parser("verify", parents=[budget], help="run the verification harness")
    p.add_argument("--all", action="store_true", help="use the built-in corpus")
    p.add_argument("--corpus", metavar="FILE", help="corpus file of graphs and pairs")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (FormatError, BudgetExceeded, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
