"""Command-line front end.

Verbs: product, autgroup, distnum, distidx, sthin, traceable, verify.
Graphs are read from files (or stdin via "-") in graph6 or edge-list
format, detected automatically.  Each verb takes only the budget flags
its command reads.  Exit status: 0 on success or pass, 1 when
a verification run contains a failed check, 2 on usage, parse, or budget
errors.  All randomness flows from --seed, so identical invocations give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace
from json.encoder import encode_basestring_ascii
from typing import Optional

from .checks import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    all_applicable_pass,
    default_corpus,
    graph_name,
    run_all,
)
from .distinguishing import (
    DEFAULT_BUDGETS,
    UNDEFINED,
    Budgets,
    _group_of,
    distinguishing_index,
    distinguishing_number,
)
from .formats import (
    _LONG_NUMBER, _MAX_COUNT, FormatError, _encode_count, parse_auto, parse_graph6,
    serialize_graph6,
)
from .graph import Graph, complete, cycle, path
from .products import cartesian_product, direct_product, strong_product
from .structure import hamiltonian_path_exists, s_partition, is_s_thin
from .symmetry import BudgetExceeded

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


def _cap(text: str) -> Optional[int]:
    """A cap: a non-negative integer, 0 for unlimited."""
    return _count(text) or None


# flag: (Budgets field, argument type, help)
_BUDGET_FLAGS = {
    "--exact-bound": (
        "exact_vertices", _count, "largest vertex count for exhaustive vertex-labeling search"),
    "--edge-exact-bound": (
        "exact_edges", _count, "largest edge count for exhaustive edge-labeling search"),
    "--aut-bound": ("aut_vertices", _count, "largest vertex count for automorphism enumeration"),
    "--max-order": (
        "aut_max_order", _cap,
        "abort automorphism enumeration beyond this many elements (0 = unlimited)"),
    "--aut-nodes": (
        "aut_nodes", _cap, "abort an automorphism search beyond this many kernel pushes "
        "(0 = unlimited)"),
    "--ham-bound": (
        "hamiltonian_vertices", _count, "largest vertex count for the Hamiltonian path search"),
    "--trials": ("trials", _count, "randomized witness search budget per label count"),
    "--seed": ("seed", int, "seed of the randomized witness search"),
}


def _add_verb(sub, name: str, about: str, *flags: str) -> argparse.ArgumentParser:
    """A subparser taking --json and the named budget flags, each stored
    under its Budgets field."""
    p = sub.add_parser(name, help=about)
    for flag in flags:
        field, kind, text = _BUDGET_FLAGS[flag]
        p.add_argument(flag, dest=field, type=kind, default=getattr(DEFAULT_BUDGETS, field),
                       metavar="N", help=text)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    return p


def _budgets(args: argparse.Namespace) -> Budgets:
    """DEFAULT_BUDGETS with the fields of the flags this verb takes."""
    present = {f.name for f in fields(Budgets)} & vars(args).keys()
    return replace(DEFAULT_BUDGETS, **{name: getattr(args, name) for name in present})


def _load_graph(source: str) -> Graph:
    if source == "-":
        return parse_auto(sys.stdin.read())
    with open(source, "r", encoding="ascii") as fh:
        return parse_auto(fh.read())


# the JSON text of a str, int, bool or None, by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json(value: object, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, byte for byte, for
    str keys and JSON values, tuples as lists.  The standard encoder runs
    in pure Python whenever it indents; here each container is one join of
    its items, with strings encoded by the C escaper json uses, scalar
    items written in place rather than by a call of _json each, and a list
    of ints, bools excluded, written in one join of their reprs.  Exact
    types are dispatched first; a subclass is written as its base type,
    as the standard encoder writes it, containers here and str and int
    subclasses by json.dumps."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        scalar = _SCALARS.get
        items = []
        for k, v in value.items():
            write = scalar(type(v))
            items.append(encode_basestring_ascii(k) + ": "
                         + (write(v) if write else _json(v, inner)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(v) is int for v in value):
            items = map(int.__repr__, value)
        else:
            scalar = _SCALARS.get
            items = []
            for v in value:
                write = scalar(type(v))
                items.append(write(v) if write else _json(v, inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    write = _SCALARS.get(kind)
    if write is not None:
        return write(value)
    if isinstance(value, dict):
        return _json(dict(value.items()), pad)
    if isinstance(value, (list, tuple)):
        return _json(list(value), pad)
    return json.dumps(value)


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_product(args: argparse.Namespace) -> int:
    a = _load_graph(args.a)
    b = _load_graph(args.b)
    # the graph6 writer's own refusal, raised before a product too large for
    # it is built
    _encode_count(a.n * b.n)
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
    group = _group_of(g, _budgets(args))
    payload: dict = {"n": group.n, "order": group.order}
    lines = [f"order {group.order}"]
    if args.elements:
        payload["elements"] = [list(p) for p in group.elements]
        lines.extend(" ".join(map(str, p)) for p in group.elements)
    _emit(args, payload, lines)
    return 0


def _cmd_distinguishing(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = args.solve(g, _budgets(args))
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
    kind, digits = m.groups()
    # the readers' vertex count limit, tested before anything is built; as
    # in the edge-list reader, by length first, since int() refuses a string
    # of over 4,300 digits
    if _LONG_NUMBER.fullmatch(digits) or int(digits) > _MAX_COUNT:
        raise FormatError(f"family shorthand vertex count outside 0..{_MAX_COUNT}")
    num = int(digits)
    if kind == "P":
        return path(num)
    if kind == "C":
        return cycle(num)
    return complete(num)


def _parse_corpus(text: str):
    """Corpus lines: family shorthands (P5, C6, K4), explicit strong-product
    pairs (P3xP4s), or raw graph6 strings.  '#' starts a comment.  A graph6
    line is named by its family when it has one, else by its own text, so
    distinct graphs of one size keep distinct instance names.  An error
    names the line it was raised on."""
    bases: list[tuple[str, Graph]] = []
    pairs: list[tuple[tuple[str, Graph], tuple[str, Graph]]] = []
    for number, raw in enumerate(text.splitlines(), 1):
        token = raw.split("#", 1)[0].strip()
        if not token:
            continue
        try:
            pair = _PAIR_RE.match(token)
            if pair:
                a, b = pair.group(1), pair.group(2)
                pairs.append(((a, _family_graph(a)), (b, _family_graph(b))))
            elif _FAMILY_RE.match(token):
                bases.append((token, _family_graph(token)))
            else:
                g = parse_graph6(token)
                name = graph_name(g)
                bases.append((token if name.startswith("graph(") else name, g))
        except FormatError as exc:
            raise FormatError(f"corpus line {number}: {exc}") from exc
    return bases, pairs


def _cmd_verify(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    if args.corpus is not None:
        with open(args.corpus, "r", encoding="ascii") as fh:
            bases, pairs = _parse_corpus(fh.read())
        reports = run_all(bases, budgets, extra_pairs=pairs)
    else:
        reports = run_all(default_corpus(), budgets)
    passed = all_applicable_pass(reports)
    counts = {s: sum(r.status == s for r in reports) for s in (PASS, FAIL, NOT_APPLICABLE)}
    lines = []
    for r in reports:
        notes = f"  ({'; '.join(r.notes)})" if r.notes else ""
        lines.append(f"[{r.status.upper():>14}] {r.check}: {r.instance}{notes}")
    lines.append(f"checks: {counts[PASS]} pass, {counts[FAIL]} fail, "
                 f"{counts[NOT_APPLICABLE]} not applicable")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    payload = {"passed": passed, "counts": counts,
               "reports": [r.to_json_dict() for r in reports]}
    _emit(args, payload, lines)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsym",
        description="Graph products, automorphism groups, and symmetry-breaking labelings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    aut = ("--aut-bound", "--max-order", "--aut-nodes")
    search = (*aut, "--trials", "--seed")

    p = _add_verb(sub, "product", "build a graph product")
    p.add_argument("--op", choices=("cartesian", "direct", "strong"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_product)

    p = _add_verb(sub, "autgroup", "enumerate the automorphism group", *aut)
    p.add_argument("graph")
    p.add_argument("--elements", action="store_true", help="print one permutation per line")
    p.set_defaults(func=_cmd_autgroup)

    for verb, solve, about, exact in (
        ("distnum", distinguishing_number, "distinguishing number", "--exact-bound"),
        ("distidx", distinguishing_index, "distinguishing index", "--edge-exact-bound"),
    ):
        p = _add_verb(sub, verb, about, exact, *search)
        p.add_argument("graph")
        p.set_defaults(func=_cmd_distinguishing, solve=solve)

    p = _add_verb(sub, "sthin", "closed-neighborhood partition")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_sthin)

    p = _add_verb(sub, "traceable", "Hamiltonian path existence", "--ham-bound")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_traceable)

    p = _add_verb(sub, "verify", "run the verification harness", *_BUDGET_FLAGS)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--all", action="store_true", help="use the built-in corpus")
    source.add_argument("--corpus", metavar="FILE", help="corpus file of graphs and pairs")
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
