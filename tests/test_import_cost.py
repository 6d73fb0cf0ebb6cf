import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "import_cost.py"


def _files():
    return {p: p.stat().st_mtime_ns for d in ("src", "scripts") for p in (ROOT / d).rglob("*")}


def test_one_run_per_mode_and_module(capsys):
    spec = importlib.util.spec_from_file_location("import_cost", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = _files()
    assert module.main(["-n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["mode", "module", "median_ms", "min_ms", "runs"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["source", "graphsym"], ["source", "graphsym.cli"],
        ["cached", "graphsym"], ["cached", "graphsym.cli"],
    ]
    for row in rows:
        assert re.fullmatch(r"\d+\.\d\d", row[2]) and row[2] == row[3] and row[4] == "1"
    # the runs import a copy and write no bytecode into the checkout
    assert _files() == before
