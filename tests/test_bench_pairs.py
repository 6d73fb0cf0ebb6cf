import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
BETTER = {"cpu_s": "lower", "ops_per_s": "higher", "decided_frac": "higher"}


def _bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, seed, side, first, cpu, ops, failed=0, passes=12):
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"cpu_s": {"value": cpu, "unit": "s"},
                    "ops_per_s": {"value": ops, "unit": "1/s"},
                    "decided_frac": {"value": 0.5, "unit": "ratio"}},
    }
    return {"workload": workload, "seed": seed, "side": side, "first": first,
            "result": json.dumps(result), "passes": passes}


# (seed, parent cpu_s, change cpu_s, parent ops_per_s, change ops_per_s)
CANNED = [(1, 0.20, 0.18, 100, 110), (2, 0.22, 0.19, 90, 95), (3, 0.21, 0.21, 95, 90),
          (4, 0.24, 0.20, 80, 85), (5, 0.23, 0.25, 85, 80)]


def _canned_runs():
    runs = []
    for pair, (seed, p_cpu, c_cpu, p_ops, c_ops) in enumerate(CANNED):
        first = "parent" if pair % 2 == 0 else "change"
        sides = {"parent": (p_cpu, p_ops), "change": (c_cpu, c_ops)}
        for side in (first, "change" if first == "parent" else "parent"):
            runs.append(_run("verify-default", seed, side, first, *sides[side],
                             failed=1 if (side, seed) == ("change", 5) else 0,
                             passes=10 + seed + (side == "change")))
    runs.append(_run("io-large", 9, "parent", "parent", 0.1, 10))
    runs.append(_run("io-large", 9, "change", "parent", 0.1, 12))
    return runs


def test_summary_of_canned_runs():
    summary = _bench().summarize(_canned_runs(), BETTER)
    assert list(summary) == ["verify-default", "io-large"]
    entry = summary["verify-default"]
    # inclusive quartiles of 0.20 0.21 0.22 0.23 0.24 and of 0.18 0.19 0.20 0.21 0.25
    assert entry["parent"]["cpu_s"] == pytest.approx(
        {"median": 0.22, "q1": 0.21, "q3": 0.23, "runs": 5})
    assert entry["change"]["cpu_s"] == pytest.approx(
        {"median": 0.20, "q1": 0.19, "q3": 0.21, "runs": 5})
    # a tie is no win; ops_per_s is better higher
    assert entry["change_wins_of_pairs"] == {"cpu_s": 3, "ops_per_s": 3, "decided_frac": 0}
    assert entry["pairs"] == 5
    assert (entry["parent"]["failed"], entry["parent"]["attempted"]) == (0, 500)
    assert (entry["change"]["failed"], entry["change"]["all_correct"]) == (1, False)
    assert entry["parent"]["all_correct"] is True
    # pass counts in pair order
    assert entry["parent"]["passes"] == [11, 12, 13, 14, 15]
    assert entry["change"]["passes"] == [12, 13, 14, 15, 16]
    one = summary["io-large"]
    assert one["parent"]["cpu_s"] == {"median": 0.1, "q1": 0.1, "q3": 0.1, "runs": 1}
    assert one["change_wins_of_pairs"] == {"cpu_s": 0, "ops_per_s": 1, "decided_frac": 0}


def test_description_of_canned_runs():
    bench = _bench()
    entry = bench.summarize(_canned_runs(), BETTER)["verify-default"]
    line = bench.describe("verify-default", entry)
    assert line.startswith(
        "verify-default: cpu_s 0.2200 [0.2100, 0.2300] -> 0.2000 [0.1900, 0.2100] "
        "(-9.1%, change won 3 of 5 pairs); ops_per_s ")
    assert line.endswith("; failed 0 -> 1; passes 11 12 13 14 15 -> 12 13 14 15 16")


def test_seeds_and_directions():
    bench = _bench()
    assert bench.parse_seeds("2601-2605") == [2601, 2602, 2603, 2604, 2605]
    assert bench.parse_seeds("7,9-10") == [7, 9, 10]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = bench.metric_directions(benchmark)
    assert directions["cpu_s"] == "lower" and directions["ops_per_s"] == "higher"
    assert len(directions) == len(benchmark["end_to_end"])


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


@pytest.mark.skipif(_git("rev-parse", "HEAD").returncode != 0, reason="not a git checkout")
def test_export_writes_the_commit_files(tmp_path):
    sha = _bench().export("HEAD", tmp_path)
    assert sha == _git("rev-parse", "HEAD").stdout.strip()
    assert (tmp_path / "pyproject.toml").read_text() == _git("show", "HEAD:pyproject.toml").stdout
    assert (tmp_path / "perfbench" / "run.py").is_file()


def test_run_once_keeps_the_pass_count(tmp_path):
    # a stand-in perfbench/run.py that prints a meta line, then its result
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'print("meta " + \'{"workload": "query-mix", "passes": 7}\')\n'
        'print("cpu_s 0.1 s")\n'
        'print(\'{"correct": true}\')\n')
    assert _bench().run_once(tmp_path, "query-mix", 1, 0.5) == ('{"correct": true}', 7)
