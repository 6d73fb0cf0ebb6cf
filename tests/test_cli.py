import enum
import io
import json
import os
from collections import OrderedDict, namedtuple
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graphsym.checks
import graphsym.cli
import graphsym.formats
from graphsym import (
    DEFAULT_BUDGETS, Budgets, Graph, cycle, parse_graph6, path, serialize_edgelist,
    serialize_graph6, strong_product,
)
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


def test_verify_corpus_of_k1(capsys, tmp_path):
    # K1 x K1 has no edge; its index is 1 and the run completes
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("K1\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["reports"]) == 9
    assert doc["counts"] == {"pass": 4, "fail": 0, "not-applicable": 5}


@pytest.mark.parametrize("text, counts", [
    pytest.param("?\n", {"pass": 0, "fail": 0, "not-applicable": 9}, id="null"),
    pytest.param("P3\n?\n", {"pass": 8, "fail": 0, "not-applicable": 19}, id="P3-and-null"),
])
def test_verify_corpus_with_the_null_graph(capsys, tmp_path, text, counts):
    # "?" is graph6 for the 0-vertex graph, which is not connected, so every
    # check on it ends "hypothesis failed"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counts"] == counts
    assert all(r["notes"] == ["hypothesis failed"]
               for r in doc["reports"] if "K0" in r["instance"])


def test_verify_corpus_of_p400_builds_no_product(capsys, monkeypatch, tmp_path):
    # P400 x P400 has 160,000 vertices: every size gate refuses it, and no
    # hypothesis stage builds it before the gate
    def refuse(g, h):
        raise AssertionError(f"asked to build a product of {g.n * h.n} vertices")

    for name in ("strong_product", "cartesian_product"):
        monkeypatch.setattr(graphsym.checks, name, refuse)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("P400\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counts"] == {"pass": 0, "fail": 0, "not-applicable": 9}


def test_verify_corpus_of_relabelled_trees_runs_no_isomorphism_search(
        capsys, monkeypatch, tmp_path):
    # a random 100-vertex tree and a vertex-shuffled copy: the isomorphism
    # search takes over 25 s on them, and every product of the pair is over
    # the size gates, so the sequence check must not start it
    rng = random.Random(5)
    tree = Graph.from_edges(100, [(rng.randrange(v), v) for v in range(1, 100)])
    perm = list(range(100))
    rng.shuffle(perm)
    copy = Graph.from_edges(100, [(perm[u], perm[v]) for u, v in tree.edges])

    def refuse(g, h):
        raise AssertionError("isomorphism test run before the size gate")

    monkeypatch.setattr(graphsym.checks, "is_isomorphic", refuse)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(serialize_graph6(tree) + "\n" + serialize_graph6(copy) + "\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert time.perf_counter() - t0 < 5
    assert (code, err) == (0, "")
    assert json.loads(out)["counts"] == {"pass": 0, "fail": 0, "not-applicable": 27}


@pytest.mark.parametrize("line", [
    "P258048", "C258048", "K258048", "P3xK258048s",
    pytest.param("P" + "9" * 5000, id="P-with-5000-digits"),
])
def test_oversized_family_shorthand_is_refused_before_it_is_built(
        capsys, monkeypatch, tmp_path, line):
    for name in ("path", "cycle", "complete"):
        def guarded(n, build=getattr(graphsym.cli, name)):
            assert n <= 258047, f"asked to build a graph of {n} vertices"
            return build(n)

        monkeypatch.setattr(graphsym.cli, name, guarded)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(line + "\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus)])
    assert (code, out) == (2, "")
    assert err == "error: corpus line 1: family shorthand vertex count outside 0..258047\n"


def test_a_bad_corpus_line_is_named_in_the_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# comment\nD? ?\nP3\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus)])
    assert (code, out) == (2, "")
    assert err == "error: corpus line 2: unexpected whitespace inside graph6 string\n"


@pytest.mark.parametrize("text, message", [
    pytest.param("P3\nP0\n", "path needs at least one vertex", id="base-line"),
    pytest.param("P3\nC2xP3s\n", "cycle needs at least three vertices", id="pair-line"),
])
def test_a_shorthand_the_builders_refuse_is_named_by_its_line(capsys, tmp_path, text, message):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(text)
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus)])
    assert (code, out) == (2, "")
    assert err == f"error: corpus line 2: {message}\n"


def test_a_complete_shorthand_over_the_edge_limit_is_refused_before_it_is_built(
        capsys, monkeypatch, tmp_path):
    # K718 has 257,403 edges and K719 258,121, one side of the 258,047 limit each
    def guarded(n):
        assert n * (n - 1) // 2 <= 258047, f"asked to build K{n}"
        return f"K{n}"

    monkeypatch.setattr(graphsym.cli, "complete", guarded)
    assert graphsym.cli._family_graph("K718") == "K718"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("P3\nK719\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus)])
    assert (code, out) == (2, "")
    assert err == "error: corpus line 2: family shorthand edge count outside 0..258047\n"


@pytest.mark.parametrize("text, line, position", [
    pytest.param(b"P3\nD\xc3\xa9?\n", 2, 1, id="in-a-graph6-line"),
    pytest.param(b"P3 # caf\xc3\xa9\nP4\n", 1, 8, id="in-a-comment"),
])
def test_a_non_ascii_corpus_byte_is_named_by_its_line(capsys, tmp_path, text, line, position):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(text)
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus)])
    assert (code, out) == (2, "")
    assert err == (f"error: corpus line {line}: 'ascii' codec can't decode byte 0xc3 "
                   f"in position {position}: ordinal not in range(128)\n")


def test_verify_corpus_names_graph6_lines_apart(capsys, tmp_path):
    # the star K1,4 and the tree 0-1, 1-2, 1-3, 3-4 both have 5 vertices and
    # 4 edges, so their size tag alone would give 27 reports 9 names
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"{serialize_graph6(star)}\n{serialize_graph6(tree)}\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), "--json"])
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    assert len({(r["check"], r["instance"]) for r in reports}) == len(reports) == 27
    assert "Ds_ x DiC" in {r["instance"] for r in reports}


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


def test_verify_refuses_both_corpus_choices(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("P3\n")
    code, out, err = run(capsys, ["verify", "--all", "--corpus", str(corpus)])
    assert (code, out) == (2, "") and "not allowed with argument" in err


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


def test_node_budget_error_reports_the_bound(capsys, g6):
    # the identity map alone takes 12 kernel pushes on P4 x C3
    a = g6("p4c3.g6", strong_product(path(4), cycle(3)))
    code, out, err = run(capsys, ["autgroup", a, "--aut-nodes", "12"])
    assert (code, out) == (2, "")
    assert err == "error: automorphism search larger than the node budget 12\n"
    for nodes in ("0", "100"):
        code, out, _ = run(capsys, ["autgroup", a, "--aut-nodes", nodes])
        assert (code, out) == (0, "order 2592\n")
    args = graphsym.cli.build_parser().parse_args(["autgroup", "g", "--aut-nodes", "0"])
    assert graphsym.cli._budgets(args).aut_nodes is None


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

    monkeypatch.setattr(graphsym.distinguishing, "automorphism_group", overflow)
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


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports graphsym from this checkout."""
    src = str(Path(graphsym.cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_module_entry_point_runs_the_cli():
    # `python -m graphsym.cli` must reach main(), not import and exit silently
    done = _python("-m", "graphsym.cli", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage:")


def test_the_cli_imports_only_the_standard_library():
    # graphsym is stdlib-only; modules that site hooks load at interpreter
    # start, before the import, are not the package's
    done = _python("-c", "import sys; before = set(sys.modules); import graphsym.cli; "
                   "print(*{m.partition('.')[0] for m in set(sys.modules) - before})")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "graphsym" in loaded
    assert [m for m in loaded if m != "graphsym" and m not in sys.stdlib_module_names] == []


_HARNESS_NAMES = (
    "BoundReport", "all_applicable_pass", "check_index_monotone", "check_index_sthin",
    "check_layered_labeling", "check_lift", "check_number_equality",
    "check_number_sandwich", "check_power_number", "check_traceable_index",
    "default_corpus", "graph_name", "layered_labeling", "lift_edge_labeling",
    "min_alphabet", "min_exponent", "run_all", "sequence_labeling",
)


def test_import_graphsym_loads_only_the_core_modules():
    # the pinned import path: a core module that imported checks or cli
    # eagerly would compile the harness on every import of the package
    done = _python("-c", "import sys, graphsym; "
                   "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'graphsym'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "graphsym", "graphsym.distinguishing", "graphsym.formats", "graphsym.graph",
        "graphsym.products", "graphsym.structure", "graphsym.symmetry",
    ]


@pytest.mark.parametrize("module", ["graphsym", "graphsym.cli"])
def test_the_import_loads_no_introspection_modules(module):
    # dataclasses pulls in inspect, ast and dis, and compiles generated
    # methods, on every fresh import; those a bare interpreter has already
    # loaded are not the package's
    done = _python("-c", f"import sys; before = set(sys.modules); import {module}; "
                   "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} "
                   "& (set(sys.modules) - before)))")
    assert (done.returncode, done.stdout) == (0, "\n"), done.stderr


def test_the_harness_loads_on_first_use():
    script = f"""
import sys, graphsym
from graphsym import (parse_graph6, automorphism_group, distinguishing_number,
                      strong_product, s_partition)
assert "graphsym.checks" not in sys.modules
assert "run_all" in dir(graphsym)
try:
    graphsym.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("graphsym.no_such_name resolved")
from graphsym import {", ".join(_HARNESS_NAMES)}
import graphsym.checks
for name in {_HARNESS_NAMES!r}:
    assert getattr(graphsym, name) is getattr(graphsym.checks, name), name
    assert globals()[name] is getattr(graphsym.checks, name), name
print("ok")
"""
    done = _python("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_the_cli_loads_the_harness():
    done = _python("-c", "import sys, graphsym.cli; print('graphsym.checks' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr


def test_distidx_text_witness_matches_json(capsys, g6):
    a = g6("p4.g6", path(4))
    _, text, _ = run(capsys, ["distidx", a])
    _, doc, _ = run(capsys, ["distidx", a, "--json"])
    assert text.splitlines()[2] == f"witness {json.loads(doc)['witness']['labels']}"


def test_distnum_text_output(capsys, g6):
    code, out, err = run(capsys, ["distnum", g6("c5.g6", cycle(5))])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "value 3 (exact)",
        "reason exhausted-smaller-r",
        "witness [1, 1, 1, 2, 3]",
    ]
    a = g6("p4.g6", path(4))
    _, text, _ = run(capsys, ["distnum", a])
    _, doc, _ = run(capsys, ["distnum", a, "--json"])
    assert text.splitlines()[:2] == ["value 2 (exact)", "reason nontrivial-aut"]
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
    ["--exact-bound", "--edge-exact-bound", "--aut-bound", "--max-order", "--aut-nodes",
     "--ham-bound", "--trials"],
)
def test_negative_budget_is_a_usage_error(capsys, tmp_path, flag):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("P3\n")
    code, out, err = run(capsys, ["verify", "--corpus", str(corpus), flag, "-1"])
    assert (code, out) == (2, "") and "non-negative" in err


def test_a_budget_that_is_not_an_integer_is_a_usage_error(capsys, g6):
    code, out, err = run(capsys, ["distnum", g6("p4.g6", path(4)), "--trials", "x"])
    assert (code, out) == (2, "") and "invalid int value: 'x'" in err


@pytest.mark.parametrize("text", [serialize_graph6(path(4)) + "\n", serialize_edgelist(path(4))],
                         ids=["graph6", "edgelist"])
def test_a_graph_is_read_from_stdin(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, ["autgroup", "-", "--json"])
    assert code == 0 and json.loads(out) == {"n": 4, "order": 2}


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
    def refuse(n, us, vs):
        raise AssertionError(f"asked to allocate {n} vertices")

    monkeypatch.setattr(graphsym.formats, "_edgelist_graph", refuse)
    f = tmp_path / "huge.el"
    # 5000 digits are more than int() parses: still an edge-list count
    for count in ("1234567890123", "9" * 5000):
        f.write_text(count + "\n")
        code, out, err = run(capsys, ["distnum", str(f)])
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert "outside 0..258047" in err and count not in err


@pytest.mark.parametrize("op", ["strong", "cartesian", "direct"])
def test_product_too_large_for_graph6_is_refused_before_it_is_built(
        capsys, monkeypatch, tmp_path, op):
    # P400 and P650 give 260,000 vertices, over the graph6 writer's 258,047
    def refuse(g, h):
        raise AssertionError(f"asked to build a product of {g.n * h.n} vertices")

    for name in ("strong_product", "cartesian_product", "direct_product"):
        monkeypatch.setattr(graphsym.cli, name, refuse)
    a, b = tmp_path / "p400.el", tmp_path / "p650.el"
    a.write_text(serialize_edgelist(path(400)))
    b.write_text(serialize_edgelist(path(650)))
    code, out, err = run(capsys, ["product", "--op", op, str(a), str(b)])
    assert (code, out) == (2, "")
    assert err == "error: vertex count 260000 too large for this graph6 writer\n"


def test_overlong_edge_list_vertex_index_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "long-index.el"
    f.write_text("3\n0 " + "9" * 5000 + "\n")
    code, out, err = run(capsys, ["distnum", str(f)])
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert "out of range for 3 vertices" in err and len(err) < 100


BUDGET_FLAGS_BY_VERB = {
    "product": set(),
    "sthin": set(),
    "autgroup": {"--aut-bound", "--max-order", "--aut-nodes"},
    "distnum": {"--exact-bound", "--aut-bound", "--max-order", "--aut-nodes", "--trials",
                "--seed"},
    "distidx": {"--edge-exact-bound", "--aut-bound", "--max-order", "--aut-nodes", "--trials",
                "--seed"},
    "traceable": {"--ham-bound"},
    "verify": {"--exact-bound", "--edge-exact-bound", "--aut-bound", "--max-order",
               "--aut-nodes", "--ham-bound", "--trials", "--seed"},
}
ALL_BUDGET_FLAGS = BUDGET_FLAGS_BY_VERB["verify"]
OPERANDS = {"product": ["--op", "strong", "a", "b"], "verify": ["--all"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--op", "strong", "{g}", "{g}", "--trials", "3"],
        ["sthin", "{g}", "--aut-bound", "3"],
        ["traceable", "{g}", "--exact-bound", "3"],
        ["autgroup", "{g}", "--seed", "1"],
        ["distnum", "{g}", "--edge-exact-bound", "3"],
        ["distidx", "{g}", "--ham-bound", "3"],
    ],
)
def test_a_budget_flag_the_verb_does_not_read_is_a_usage_error(capsys, g6, argv):
    g = g6("p3.g6", path(3))
    code, out, err = run(capsys, [arg.format(g=g) for arg in argv])
    assert (code, out) == (2, "") and "unrecognized arguments" in err


@pytest.mark.parametrize("verb", sorted(BUDGET_FLAGS_BY_VERB))
def test_each_verb_takes_exactly_the_budget_flags_it_reads(capsys, verb):
    parser = graphsym.cli.build_parser()
    operands = OPERANDS.get(verb, ["g"])
    accepted = set()
    for flag in ALL_BUDGET_FLAGS:
        try:
            parser.parse_args([verb, *operands, flag, "3"])
        except SystemExit:
            continue
        accepted.add(flag)
    capsys.readouterr()
    assert accepted == BUDGET_FLAGS_BY_VERB[verb]
    assert parser.parse_args([verb, *operands, "--json"]).json


def test_each_budget_field_has_exactly_one_flag():
    # a new Budgets field cannot go without a flag
    parser = graphsym.cli.build_parser()
    assert set().union(*BUDGET_FLAGS_BY_VERB.values()) == ALL_BUDGET_FLAGS
    set_by_flags = []
    for flag in sorted(ALL_BUDGET_FLAGS):
        b = graphsym.cli._budgets(parser.parse_args(["verify", "--all", flag, "3"]))
        set_by_flags += [name for name in Budgets._fields
                         if getattr(b, name) != getattr(DEFAULT_BUDGETS, name)]
    assert sorted(set_by_flags) == sorted(Budgets._fields)
    assert graphsym.cli._budgets(parser.parse_args(["verify", "--all"])) == DEFAULT_BUDGETS
    args = parser.parse_args(["distnum", "g", "--max-order", "0"])
    assert graphsym.cli._budgets(args).aut_max_order is None


@pytest.mark.parametrize("value", [
    {}, [], (), None, True, False, 0, -7, 2 ** 70, 1.5, "", "plain",
    {"a": {}, "b": [], "c": [{}, [[]], ()], "d": None, "e": [True, False, None]},
    {"t": (1, (2, 3), ()), "u": [(), {"k": ("x", None)}]},
    {"café": "été — \U0001f600", "esc": "tab\t quote\" back\\ nl\n \x00"},
    [[[[{"deep": [1, [2, [3]]]}]]]],
    # int lists are one join: bools, floats, None and nesting are not ints
    [1, -2, 0, 2 ** 70], (3, 4), [True, False], [1, True], [False, 0], [1, 2.5],
    [1, None], [1, "2"], [[1, 2], [], [3]], [1, [2, 3]], {"k": [[0, 1, 2]]},
    # subclasses are written as their base types
    OrderedDict(b=1, a=[OrderedDict()]), namedtuple("Pair", "u v")(1, "x"),
    {"e": enum.IntEnum("E", "A B").B, "s": type("S", (str,), {})("s\t")},
    [type("L", (list,), {})([1, 2]), type("D", (dict,), {})(k=None)],
])
def test_json_writer_matches_the_standard_encoder(value):
    assert graphsym.cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv", [
    ["product", "--op", "strong", "P3", "C4"],
    ["autgroup", "C4"],
    ["autgroup", "C4", "--elements"],
    ["distnum", "C4"],
    ["distidx", "C4"],
    ["distidx", "P2"],
    ["sthin", "C4"],
    ["traceable", "C4"],
    ["verify", "--all"],
])
def test_every_verb_writes_what_the_standard_encoder_writes(capsys, monkeypatch, g6, argv):
    # each payload the verb emits, tuples and all, as json.dumps(indent=2)
    # writes it
    payloads = []
    write = graphsym.cli._json

    def checked(value, *pad):
        out = write(value, *pad)
        if not pad:
            payloads.append(value)
            assert out == json.dumps(value, indent=2)
        return out

    monkeypatch.setattr(graphsym.cli, "_json", checked)
    files = {"P2": path(2), "P3": path(3), "C4": cycle(4)}
    argv = [g6(a + ".g6", files[a]) if a in files else a for a in argv]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
