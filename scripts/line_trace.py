"""List the statements of src/graphsym that a pytest run never executes.

Usage, from the root of a checkout:

    python3 scripts/line_trace.py [pytest arguments]

Runs pytest in this process, with the arguments given (none runs the
whole suite), under ``sys.settrace`` and ``threading.settrace``, and then
prints one ``path:line: text`` line for each statement of the package
that never ran, in path and line order, and a summary.  Docstrings,
``def`` and ``class`` lines and imports are left out; so are ``global``
and ``nonlocal``, which compile to nothing.  A simple statement counts as
run when any of its lines ran; a compound one (``if``, ``for``, ``while``,
``with``, ``except``) when a line of its header ran.  Code that tests run
in a subprocess is not traced.

Nothing is written into the checkout: bytecode writing and pytest's cache
are off, and the hypothesis database lives in a temporary directory that
is deleted afterwards.

pytest's exit status is printed but is not the suite's verdict: the
tracer keeps frames, and the objects they reference, alive longer, so
tests that count garbage can fail under it.  The script itself exits 0
once the report is printed.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

sys.dont_write_bytecode = True  # before the import below, so scripts/ stays as it is
from code_lines import docstring_lines  # noqa: E402  (scripts/ is sys.path[0])

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphsym"

# try lines compile to nothing, and their handlers are reported instead
_LEFT_OUT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
             ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))


def _header_end(node: ast.AST) -> int:
    """The last line of a statement's own text: the header of a compound
    statement, the whole of a simple one."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.iter.end_lineno
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return node.items[-1].context_expr.end_lineno
    if isinstance(node, ast.ExceptHandler):
        return node.type.end_lineno if node.type else node.lineno
    if isinstance(node, ast.Match):
        return node.subject.end_lineno
    return node.end_lineno


def statements(source: str) -> list[tuple[int, int]]:
    """The (first line, last header line) of each reported statement of a
    module, in line order."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    return sorted({(node.lineno, _header_end(node)) for node in ast.walk(tree)
                   if isinstance(node, (ast.stmt, ast.ExceptHandler))
                   and not isinstance(node, _LEFT_OUT) and node.lineno not in docstrings})


def unrun(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements none of whose lines ran."""
    return [first for first, last in statements(source)
            if ran.isdisjoint(range(first, last + 1))]


def trace(run, files: list[Path]) -> tuple[object, dict[Path, set[int]]]:
    """Call run() with every line of the given files that executes recorded;
    returns run's result and the lines that ran, per file."""
    ran: dict[Path, set[int]] = {path: set() for path in files}
    resolved: dict[str, object] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = resolved.get(name, resolved)
        if lines is resolved:
            lines = resolved[name] = ran.get(Path(os.path.realpath(name)))
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    files = sorted(Path(os.path.realpath(p)) for p in PACKAGE.rglob("*.py"))
    with tempfile.TemporaryDirectory(prefix="line_trace_") as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        import pytest

        status, ran = trace(lambda: pytest.main(["-p", "no:cacheprovider", *argv]), files)
    total = missed = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        total += len(statements(source))
        for line in unrun(source, ran[path]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements never ran; pytest exit status {int(status)} "
          "(under tracing, which is not the tier-1 result)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
