"""graphsym benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 35 --trace 0

The benchmark is a closed loop: one client, one process, no threads.  A run
is a sequence of passes, each a fresh interpreter (``worker.py``) doing a
fixed unit of work; passes start until the next one would end after
``--seconds``, with at least two untraced passes (or one untraced/traced
pair with ``--trace 1``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` each pass runs twice on the same inputs, untraced then
traced; the last line holds the per-layer metrics from the traced passes
and the tracing overhead (traced minus untraced CPU time).

Times are CPU seconds of the worker process, scaled to a reference machine
speed.  The passes are single-threaded and CPU-bound.  On a shared machine
wall time also counts what other tenants take, and even CPU time swings by
half as they load the shared cores and caches.  The worker samples a fixed
search every half second of CPU time (``SpeedProbe`` in worker.py), and
every time of a pass is multiplied by ``speed(pass)``.  Each pass's
unscaled wall and CPU time and its speed factor are printed too.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import correctness as C
from spans import CHECK_FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-default", "query-mix", "io-large")
RUN_LIMIT_S = 150  # a run must end within 180 s; no pass starts that could end after this
# Mean time of the worker's speed probe that defines the reference machine
# speed: about what it takes inside a pass on a quiet 2-core x86-64 virtual
# machine with Python 3.11.7.
REFERENCE_PROBE_S = 0.05

END_TO_END = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("p90_ms", "ms"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _layer_metrics() -> list[tuple[str, str]]:
    out = []
    for fn in ("distinguishing_number", "distinguishing_index"):
        out += [(f"distinguishing.{fn}.self_s", "s"), (f"distinguishing.{fn}.calls", "count"),
                (f"distinguishing.{fn}.exact_frac", "ratio")]
    for fn in ("is_distinguishing_vertex", "is_distinguishing_edge"):
        out += [(f"distinguishing.{fn}.self_s", "s"), (f"distinguishing.{fn}.calls", "count")]
    aut = "symmetry.automorphism_group"
    out += [(f"{aut}.self_s", "s"), (f"{aut}.calls", "count"), (f"{aut}.distinct_keys", "count"),
            (f"{aut}.repeat_frac", "ratio"), (f"{aut}.elements", "count"),
            (f"{aut}.budget_exceeded", "count"), ("symmetry.is_isomorphic.self_s", "s")]
    for fn in ("parse_graph6", "serialize_graph6", "parse_edgelist", "serialize_edgelist"):
        out += [(f"formats.{fn}.self_s", "s")]
    out += [("formats.graph6_bytes", "bytes")]
    for fn in ("strong_product", "cartesian_product", "direct_product", "strong_power"):
        out += [(f"products.{fn}.self_s", "s"), (f"products.{fn}.calls", "count")]
    out += [("structure.hamiltonian_path_exists.self_s", "s"),
            ("structure.hamiltonian_path_exists.calls", "count"),
            ("structure.s_partition.self_s", "s"), ("structure.is_s_thin.calls", "count")]
    for fn in CHECK_FUNCTIONS:
        out += [(f"checks.{fn}.self_s", "s"), (f"checks.{fn}.decided", "count")]
    out += [("cli.dispatch.self_s", "s"), ("trace.cpu_s", "s"), ("trace.untraced_cpu_s", "s"),
            ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
    return out


PER_LAYER = _layer_metrics()


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_pass(spec: dict, timeout: float) -> dict:
    """One worker process; a crash or timeout becomes one ERROR attempt."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(spec), cwd=ROOT,
            capture_output=True, text=True, timeout=max(timeout, 1),
        )
        sys.stderr.write(done.stderr)
        if done.returncode == 0:
            return json.loads(done.stdout)
        message = f"worker exited with status {done.returncode}: {done.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        message = f"worker timed out after {timeout:.0f} s"
    except ValueError as exc:
        message = f"worker printed no result: {exc}"
    return {"crashed": True, "attempts": [C.ERROR], "answers": [], "errors": [message],
            "ops": 0, "latencies_ms": []}


def run_passes(args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes until the next would end after ``--seconds``."""
    untraced, traced = [], []
    out_dir = ROOT / ".perfbench_out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        spec = {"workload": args.workload, "seed": args.seed, "pass": index, "trace": False}
        untraced.append(run_pass(spec, RUN_LIMIT_S - (pass_start - start)))
        if args.trace:
            spec.update(trace=True, spans=str(out_dir / f"{args.workload}.spans.jsonl"))
            traced.append(run_pass(spec, RUN_LIMIT_S - (time.perf_counter() - start)))
        index += 1
        now = time.perf_counter()
        step = now - pass_start
        enough = index >= (1 if args.trace else 2)
        if enough and (now - start + step > args.seconds or now - start + step > RUN_LIMIT_S):
            return untraced, traced


def speed(p: dict) -> float:
    """Factor that scales a pass's CPU times to the reference machine speed:
    REFERENCE_PROBE_S over the mean of the pass's probe timings."""
    return REFERENCE_PROBE_S / statistics.fmean(p["probe_s"])


def end_to_end(passes: list[dict]) -> dict:
    """Medians over passes of the speed-scaled figures; the p90 is taken over
    the operations of all passes together."""
    ok = [p for p in passes if not p.get("crashed")]
    answers = [a for p in ok for a in p["answers"]]
    decided = sum(a in (C.DECIDED, C.FAILED) for a in answers)
    latencies = [x * speed(p) for p in ok for x in p["latencies_ms"]]
    return {
        "setup_s": statistics.median(p["setup_s"] * speed(p) for p in ok),
        "cpu_s": statistics.median(p["cpu_s"] * speed(p) for p in ok),
        "ops_per_s": statistics.median(p["ops"] / (p["cpu_s"] * speed(p)) for p in ok),
        "p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "decided_frac": decided / len(answers),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-pass means of the traced passes' layer figures, and the overhead
    from (untraced, traced) pairs of passes on the same inputs."""
    totals: dict[str, float] = {}
    for _, t in pairs:
        for name, value in t["layers"].items():
            scale = speed(t) if name.endswith("self_s") else 1.0
            totals[name] = totals.get(name, 0.0) + value * scale
    layers = {name: value / len(pairs) for name, value in totals.items()}
    out = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
    def share(part: str, whole: str) -> float:
        return layers.get(part, 0.0) / max(layers.get(whole, 0.0), 1)

    for fn in ("distinguishing.distinguishing_number", "distinguishing.distinguishing_index"):
        out[f"{fn}.exact_frac"] = share(f"{fn}.exact", f"{fn}.calls")
    aut = "symmetry.automorphism_group"
    out[f"{aut}.repeat_frac"] = share(f"{aut}.repeats", f"{aut}.calls")
    traced_cpu = statistics.median(t["cpu_s"] * speed(t) for _, t in pairs)
    untraced_cpu = statistics.median(u["cpu_s"] * speed(u) for u, _ in pairs)
    out["trace.cpu_s"] = traced_cpu
    out["trace.untraced_cpu_s"] = untraced_cpu
    out["trace.overhead_s"] = traced_cpu - untraced_cpu
    out["trace.overhead_frac"] = traced_cpu / untraced_cpu - 1
    return out


def check_outputs(passes: list[dict]) -> list[str]:
    """Messages from the workers' checks plus the witness checks run here."""
    errors = [e for p in passes for e in p["errors"]]
    for p in passes:
        for graph6, kind, answer in p.get("witnesses", ()):
            errors += C.witness_errors(graph6, kind, answer)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphsym" / "__init__.py").is_file():
        print(f"error: no graphsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    untraced, traced = run_passes(args)
    passes = untraced + traced
    pairs = [(u, t) for u, t in zip(untraced, traced)
             if not u.get("crashed") and not t.get("crashed")]
    measured = [t for _, t in pairs] if args.trace else untraced
    if all(p.get("crashed") for p in measured):
        for p in passes:
            if p.get("crashed"):
                print(f"error: {p['errors'][0]}", file=sys.stderr)
        return 1
    errors = check_outputs(passes)
    attempts = [a for p in passes for a in p["attempts"]]
    failed = sum(a in (C.FAILED, C.ERROR) for a in attempts) + len(errors)
    counts: dict[str, int] = {}
    for p in passes:
        for key, value in p.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": _commit(),
        "passes": len(untraced), "traced_passes": len(traced),
        "ops_per_pass": [p["ops"] for p in passes], "counts": counts,
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        values, units = per_layer(pairs), dict(PER_LAYER)
    else:
        values, units = end_to_end(untraced), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    ok = [p for p in measured if not p.get("crashed")]
    for name in ("wall_s", "cpu_s"):
        print(f"passes {name} " + " ".join(f"{p[name]:.4g}" for p in ok) + " s (unscaled)")
    print("passes speed " + " ".join(f"{speed(p):.4g}" for p in ok))
    print(f"error_frac {failed / len(attempts):.6g} ratio ({failed} of {len(attempts)} attempts)")
    for message in errors[:20]:
        print("rejected: " + message)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
