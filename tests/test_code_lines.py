import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SNIPPET = '''"""Module docstring
over two lines."""

# a comment
import os  # code with a trailing comment


def f(x):
    """One-line docstring."""
    text = """a multi-line string
that is not a docstring"""

    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # counted: import, def, both lines of the plain string, both lines of
    # the return, class, y = 1
    assert _counter().code_lines(SNIPPET) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _counter().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8 {tmp_path / 'pkg' / 'a.py'}",
        f"     1 {tmp_path / 'pkg' / 'b.py'}",
        "     9 total",
    ]
