import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsym.cli
from graphsym import Graph, parse_graph6, path, serialize_edgelist, serialize_graph6, strong_product
from graphsym.cli import dispatch


@pytest.fixture
def g6(tmp_path):
    def write(name, graph):
        f = tmp_path / name
        f.write_text(serialize_graph6(graph) + "\n")
        return str(f)

    return write


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_product(capsys, g6):
    a = g6("p3.g6", path(3))
    b = g6("p4.g6", path(4))
    code, out, _ = run(capsys, ["product", "--op", "strong", a, b])
    assert code == 0
    assert parse_graph6(out.strip()) == strong_product(path(3), path(4))


def test_product_json(capsys, g6):
    a = g6("p3.g6", path(3))
    code, out, _ = run(capsys, ["product", "--op", "strong", a, a, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"op", "n", "edges", "graph6"}
    assert doc["n"] == 9 and doc["edges"] == 20


def test_product_accepts_edgelist(capsys, tmp_path):
    f = tmp_path / "p3.el"
    f.write_text(serialize_edgelist(path(3)))
    code, out, _ = run(capsys, ["product", "--op", "cartesian", str(f), str(f)])
    assert code == 0
    assert parse_graph6(out.strip()).n == 9


def test_autgroup(capsys, g6):
    a = g6("p4.g6", path(4))
    code, out, _ = run(capsys, ["autgroup", a])
    assert code == 0 and out.splitlines()[0] == "order 2"
    code, out, _ = run(capsys, ["autgroup", a, "--elements"])
    lines = out.splitlines()
    assert lines[1:] == ["0 1 2 3", "3 2 1 0"]
    code, out, _ = run(capsys, ["autgroup", a, "--json"])
    doc = json.loads(out)
    assert doc == {"n": 4, "order": 2}


def test_distnum_json(capsys, g6):
    a = g6("p4.g6", path(4))
    code, out, _ = run(capsys, ["distnum", a, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2 and doc["mode"] == "exact"
    assert doc["witness"]["kind"] == "vertex"
    assert set(doc) == {"value", "mode", "witness", "reason"}


def test_distidx_undefined_is_not_an_error(capsys, g6):
    a = g6("k2.g6", path(2))
    code, out, _ = run(capsys, ["distidx", a, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] is None and doc["mode"] == "undefined"
    code, out, _ = run(capsys, ["distidx", a])
    assert code == 0 and "undefined" in out


def test_sthin_and_traceable(capsys, g6):
    a = g6("p3.g6", path(3))
    code, out, _ = run(capsys, ["sthin", a, "--json"])
    assert code == 0 and json.loads(out)["s_thin"] is True
    code, out, _ = run(capsys, ["traceable", a])
    assert code == 0 and "yes" in out


def test_verify_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# tiny corpus\nP3\nP4\nP3xP4s\n")
    code, out, _ = run(capsys, ["verify", "--corpus", str(corpus)])
    assert code == 0
    assert "result: PASS" in out
    code, out2, _ = run(capsys, ["verify", "--corpus", str(corpus)])
    assert out == out2  # byte-identical on identical invocations


def test_verify_corpus_accepts_graph6_lines(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(serialize_graph6(path(4)) + "\nC5\n")
    code, out, _ = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["counts"]["fail"] == 0
    assert all(
        set(r) == {"check", "instance", "hypotheses", "quantities",
                   "status", "witness", "notes"}
        for r in doc["reports"]
    )


def test_verify_requires_corpus_choice(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2 and "corpus" in err.lower()


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2
    code, _, err = run(capsys, ["distnum", str(tmp_path / "missing.g6")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.g6"
    bad.write_text("D?")
    code, _, err = run(capsys, ["distnum", str(bad)])
    assert code == 2 and "error" in err


def test_budget_error_reports_the_bound(capsys, g6):
    a = g6("p21.g6", path(21))
    code, _, err = run(capsys, ["autgroup", a])
    assert code == 2 and "20" in err
    code, out, _ = run(capsys, ["autgroup", a, "--aut-bound", "21"])
    assert code == 0 and "order 2" in out


def test_seeded_determinism(capsys, g6):
    big = g6("prod.g6", strong_product(path(3), path(5)))
    code, out1, _ = run(capsys, ["distnum", big, "--seed", "5", "--json"])
    assert code == 0
    _, out2, _ = run(capsys, ["distnum", big, "--seed", "5", "--json"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["mode"] == "certified-upper" and doc["value"] == 2


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_deep_search_is_an_error_not_a_traceback(capsys, monkeypatch, g6):
    # a search that overflows the interpreter stack exits 2 with a message
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(graphsym.cli, "automorphism_group", overflow)
    code, _, err = run(capsys, ["autgroup", g6("p4.g6", path(4))])
    assert code == 2 and err.startswith("error: ")


@pytest.fixture
def p1200(tmp_path):
    f = tmp_path / "p1200.el"
    f.write_text("1200\n" + "".join(f"{i} {i + 1}\n" for i in range(1199)))
    return str(f)


def test_autgroup_on_a_long_path(capsys, p1200):
    # the automorphism search keeps its own stack, so its depth is not
    # bounded by the interpreter's recursion limit
    code, out, err = run(capsys, ["autgroup", p1200, "--aut-bound", "5000"])
    assert (code, out, err) == (0, "order 2\n", "")


def test_module_entry_point_runs_the_cli():
    # `python -m graphsym.cli` must reach main(), not import and exit silently
    src = str(Path(graphsym.cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, "-m", "graphsym.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage:")


def test_distidx_text_witness_matches_json(capsys, g6):
    a = g6("p4.g6", path(4))
    _, text, _ = run(capsys, ["distidx", a])
    _, doc, _ = run(capsys, ["distidx", a, "--json"])
    assert text.splitlines()[2] == f"witness {json.loads(doc)['witness']['labels']}"


def test_budgets_ignore_the_environment(capsys, monkeypatch, g6):
    # budgets come from the flags only: no environment variable changes a run
    a = g6("p4.g6", path(4))
    expected = run(capsys, ["distnum", a])
    monkeypatch.setenv("GRAPHSYM_SEED", "abc")
    monkeypatch.setenv("GRAPHSYM_AUT_BOUND", "3")
    assert run(capsys, ["distnum", a]) == expected
    assert expected[0] == 0


@pytest.mark.parametrize(
    "flag",
    ["--exact-bound", "--edge-exact-bound", "--aut-bound", "--max-order", "--ham-bound", "--trials"],
)
def test_negative_budget_is_a_usage_error(capsys, tmp_path, flag):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("P3\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), flag, "-1"])
    assert (code, out) == (2, "") and "non-negative" in err


def test_zero_order_cap_and_zero_trials_are_accepted(capsys, g6):
    code, out, _ = run(capsys, ["distnum", g6("p4.g6", path(4)), "--max-order", "0", "--trials", "0"])
    assert code == 0 and out.startswith("value 2 (exact)")


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["traceable", "--ham-bound", "5000"], "traceable: yes"),
        (["distnum", "--exact-bound", "5000", "--aut-bound", "5000"], "value 2 (exact)"),
        (["distidx", "--edge-exact-bound", "5000", "--aut-bound", "5000"], "value 2 (exact)"),
    ],
)
def test_searches_on_a_long_path(capsys, p1200, argv, first_line):
    # the Hamiltonian and exact labeling searches keep their own stacks too
    code, out, err = run(capsys, [*argv, p1200])
    assert (code, out.splitlines()[0], err) == (0, first_line, "")


def test_oversized_edge_list_count_is_a_parse_error(capsys, monkeypatch, tmp_path):
    # the count is refused before any per-vertex storage is allocated
    def refuse(n, edges):
        raise AssertionError(f"asked to allocate {n} vertices")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    f = tmp_path / "huge.el"
    f.write_text("1234567890123\n")
    code, _, err = run(capsys, ["distnum", str(f)])
    assert code == 2 and err.startswith("error: ")
