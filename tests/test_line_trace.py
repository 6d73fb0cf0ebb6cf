import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "line_trace.py"

TINY_TEST = '''from graphsym import path


def test_path():
    assert path(3).edge_count == 2
'''


def test_lists_the_statements_a_test_file_never_runs(tmp_path):
    (tmp_path / "test_tiny.py").write_text(TINY_TEST)
    out = subprocess.run(
        # hypothesis's plugin alone costs more than the traced run
        [sys.executable, str(SCRIPT), "-q", "-p", "no:hypothesispytest",
         str(tmp_path / "test_tiny.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    listed = {line.split(": ", 1)[0] for line in out if line.startswith("src/graphsym/")}
    graph = (ROOT / "src" / "graphsym" / "graph.py").read_text().splitlines()
    refusal = graph.index('        raise ValueError("path needs at least one vertex")') + 1
    built = graph.index("    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))") + 1
    assert f"src/graphsym/graph.py:{refusal}" in listed
    assert f"src/graphsym/graph.py:{built}" not in listed
    # no def line, import or docstring is listed
    assert f"src/graphsym/graph.py:{graph.index('def path(n: int) -> Graph:') + 1}" not in listed
    assert out[-1].endswith("pytest exit status 0 (under tracing, which is not the tier-1 result)")
    # neither bytecode nor a pytest cache was written beside the traced file
    assert [p.name for p in tmp_path.iterdir()] == ["test_tiny.py"]
