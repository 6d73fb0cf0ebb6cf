"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin: ``{"workload", "seed", "pass", "trace", "spans"}``.
Imports graphsym from ``src/``, generates the pass's inputs, runs the timed
phase, and prints one JSON object on stdout.  A fresh process per pass
keeps the module-global memo caches in ``graphsym.checks`` from carrying
work over from one pass to the next.

Set-up (import plus input generation) and the timed phase are measured
separately; output checks and everything the parent needs for them run
after the timed phase.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import correctness as C
import inputs

ROOT = Path(__file__).resolve().parent.parent
PROBE_INTERVAL_S = 0.5


def _probe_search() -> None:
    """A fixed search in the style of the program, independent of graphsym:
    enumerate the 384 automorphisms of the 4-cube by backtracking, store
    them, and test 40 random labelings against every one."""
    n = 16
    nbr = [frozenset(v ^ (1 << b) for b in range(4)) for v in range(n)]
    image, used, rows, stack = [-1] * n, [False] * n, [], [(0, 0)]
    while stack:
        v, w = stack.pop()
        if v == n:
            rows.append(tuple(image))
            continue
        if w > 0:
            used[image[v]] = False
        while w < n and (used[w] or any(
                (u in nbr[v]) != (image[u] in nbr[w]) for u in range(v))):
            w += 1
        if w < n:
            image[v], used[w] = w, True
            stack += [(v, w + 1), (v + 1, 0)]
    if len(rows) != 384:
        raise RuntimeError(f"probe search found {len(rows)} automorphisms of the 4-cube")
    rng = random.Random(0)
    for _ in range(40):
        labels = [rng.randint(1, 3) for _ in range(n)]
        any(all(labels[row[i]] == labels[i] for i in range(n)) for row in rows[1:])


class SpeedProbe:
    """Samples the machine's speed while a pass runs, and keeps its own cost
    out of the pass's figures.

    Other tenants of the shared machine slow the passes by up to half, in
    bursts and for minutes at a time, and CPU time rises with it.  Every
    PROBE_INTERVAL_S of CPU time a SIGPROF handler times one run of
    ``_probe_search`` (about 50 ms), which suffers the same contention as
    the pass around it.  ``clock`` is the thread's CPU time minus the time
    spent in probes, and every figure of a pass is read from it.  The
    worker has one thread; the process CPU clock would not do, because it
    advances in whole scheduler ticks (4 ms) while an interval timer is armed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        # The search frees all it allocates; with the collector off meanwhile,
        # it leaves the program's garbage-collection schedule as it was.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            _probe_search()
            elapsed = time.thread_time() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.sample()

    def clock(self) -> float:
        while True:  # a probe may land between the two reads; then read again
            spent = self.spent
            now = time.thread_time()
            if spent == self.spent:
                return now - spent


class Timer:
    """CPU and wall seconds of the timed phase.

    The passes are single-threaded and CPU-bound, so CPU time is their cost;
    wall time adds whatever other tenants of the machine take from them, and
    also the speed probes.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.cpu = clock()
        self.wall = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        return self.clock() - self.cpu, time.perf_counter() - self.wall


def verify_default(spec, setup, clock):
    import graphsym.cli

    setup()
    out = io.StringIO()
    timer = Timer(clock)
    with contextlib.redirect_stdout(out):
        exit_code = graphsym.cli.dispatch(["verify", "--all", "--json"])
    cpu, wall = timer.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        reports = json.loads(out.getvalue())["reports"]
    except (ValueError, KeyError):
        reports = []
    reference = json.loads((Path(__file__).parent / "verify_reference.json").read_text())
    errors = C.verify_errors(exit_code, reports, reference)
    outcomes = [C.classify_report(r["status"]) for r in reports] or [C.ERROR]
    # The reports reach the user together, so the operation whose latency
    # counts is the whole verify run.
    return {
        "cpu_s": cpu, "wall_s": wall, "peak_rss_mb": rss, "latencies_ms": [cpu * 1e3],
        "ops": len(reports), "answers": outcomes, "attempts": outcomes, "errors": errors,
        "counts": {s: sum(r["status"] == s for r in reports) for s in ("pass", "fail", "not-applicable")},
    }


def query_mix(spec, setup, clock):
    queries = inputs.query_batch(spec["seed"], spec["pass"])
    setup()
    from graphsym import (BudgetExceeded, DEFAULT_BUDGETS as B, automorphism_group,
                          distinguishing_index, distinguishing_number,
                          hamiltonian_path_exists, parse_graph6, s_partition)

    latencies, answers, attempts, witnesses = [], [], [], []
    timer = Timer(clock)
    for kind, g6 in queries:
        t0 = clock()
        outcome = C.DECIDED
        try:
            g = parse_graph6(g6)
            steps = [
                (None, lambda: automorphism_group(
                    g, max_vertices=B.aut_vertices, max_order=B.aut_max_order)),
                ("vertex", lambda: distinguishing_number(g, B)),
                ("edge", lambda: distinguishing_index(g, B)),
                (None, lambda: s_partition(g)),
            ]
            if g.n <= B.hamiltonian_vertices:
                steps.append((None, lambda: hamiltonian_path_exists(
                    g, max_vertices=B.hamiltonian_vertices)))
            for label_kind, step in steps:
                try:
                    result = step()
                except BudgetExceeded as exc:
                    if label_kind:
                        answers.append(C.classify_exception(exc))
                    continue
                if label_kind:
                    answers.append(C.classify_result(result))
                    witnesses.append((g6, label_kind, result.to_json_dict()))
        except Exception as exc:  # an error is counted and reported, never fatal
            outcome = C.classify_exception(exc)
            print(f"query {g6}:", file=sys.stderr)
            traceback.print_exc()
        latencies.append((clock() - t0) * 1e3)
        attempts.append(outcome)
    cpu, wall = timer.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "cpu_s": cpu, "wall_s": wall, "peak_rss_mb": rss, "latencies_ms": latencies,
        "ops": len(queries), "answers": answers, "attempts": attempts, "errors": [],
        "witnesses": witnesses,
        "counts": {k: sum(q[0] == k for q in queries) for k in inputs.QUERY_KINDS},
    }


def io_large(spec, setup, clock):
    from graphsym import Graph

    factors = {k: inputs.relabeled_cycle(spec["seed"], k) for k in inputs.IO_SIZES}
    graphs = {k: Graph.from_edges(n, e) for k, (n, e) in factors.items()}
    setup()
    from graphsym import (cartesian_product, parse_auto, s_partition, serialize_edgelist,
                          serialize_graph6, strong_product)

    ops = {"cartesian": cartesian_product, "strong": strong_product}
    latencies, attempts, results = [], [], []
    timer = Timer(clock)
    for k in inputs.IO_SIZES:
        for op in inputs.IO_OPS:
            t0 = clock()
            try:
                built = ops[op](graphs[k], graphs[k])
                g6 = serialize_graph6(built)
                edgelist = serialize_edgelist(built)
                parsed = {"graph6": parse_auto(g6), "edgelist": parse_auto(edgelist)}
                classes = len(s_partition(parsed["graph6"]).classes)
                attempts.append(C.DECIDED)
                results.append((k, op, built, parsed, classes))
            except Exception as exc:  # an error is counted and reported, never fatal
                attempts.append(C.classify_exception(exc))
                print(f"C{k} {op} C{k}:", file=sys.stderr)
                traceback.print_exc()
            latencies.append((clock() - t0) * 1e3)
    cpu, wall = timer.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    for k, op, built, parsed, classes in results:
        n, edges = factors[k]
        expected = Graph.from_edges(n * n, inputs.product_edges(op, n, edges, n, edges))
        errors += C.roundtrip_errors(f"C{k} {op} C{k}", expected, built, parsed, classes)
    return {
        "cpu_s": cpu, "wall_s": wall, "peak_rss_mb": rss, "latencies_ms": latencies,
        "ops": len(attempts), "answers": attempts, "attempts": attempts, "errors": errors,
        "counts": {"instances": len(attempts)},
    }


WORKLOADS = {"verify-default": verify_default, "query-mix": query_mix, "io-large": io_large}


def main() -> None:
    spec = json.load(sys.stdin)
    probe = SpeedProbe()
    probe.start()
    clock = probe.clock
    start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import graphsym  # noqa: F401  (the import is part of set-up)

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(clock)
    marks = {}

    def setup():
        """End of set-up: inputs exist.  The tracer goes in here, so workloads
        look up graphsym functions only after calling this."""
        marks["setup_s"] = clock() - start
        if tracer is not None:
            tracer.install()

    result = WORKLOADS[spec["workload"]](spec, setup, clock)
    probe.stop()
    result["setup_s"] = marks["setup_s"]
    result["probe_s"] = probe.samples
    if tracer is not None:
        result["layers"] = tracer.summary()
        if spec.get("spans"):
            tracer.write(spec["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
