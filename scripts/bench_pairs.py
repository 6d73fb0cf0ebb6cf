"""Benchmark a change against its parent commit in alternating pairs of runs
and write the record as a BENCH_*.json file.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --out BENCH_16.json --parent HEAD~1 \\
        --seconds 35 --workload verify-default 2601-2610 \\
        --workload query-mix 2701-2705 \\
        --change "what the change does" --claim "the gain it claims, or none"

The parent (``--parent``, a commit) is exported with ``git archive`` and
``tar`` into a temporary directory, which is deleted afterwards, so the run
leaves nothing in the repository.  The change is the working tree as it
stands, uncommitted edits included; the script refuses to run when its
tracked files do not differ from the parent's.  perfbench/run.py runs
unchanged, from each side's own checkout, with ``--trace 0``; the last
line of its stdout is the run's result, and its ``meta`` line gives the
run's pass count.

Each seed is one pair: both sides run on it, one after the other.  The
side that runs first alternates from pair to pair, the parent first on
the first pair of each workload.

The record holds every result line in the order the runs happened and,
per workload and side, the median and quartiles (inclusive method) of
each end-to-end metric, the attempted and failed operation counts and
whether every run was correct, and the pass count of each run, in pair
order.  Pass counts matter because some metrics, such as query-mix
peak_rss_mb, grow with them.  change_wins_of_pairs counts, per metric,
the pairs in which the change was strictly better, in the direction that
BENCHMARK.json gives.  The notes say the same in one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "a-b" (inclusive) and single numbers, separated by commas."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json and its better direction."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The summary of the runs per workload: per side, each metric's spread
    and the operation counts; and the pairs the change won per metric.

    A run is {"workload", "seed", "side", "first", "result", "passes"},
    with result the JSON line perfbench/run.py printed last and passes the
    pass count of its meta line.
    """
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        results = {(r["seed"], r["side"]): json.loads(r["result"])
                   for r in runs if r["workload"] == workload}
        entry: dict[str, dict] = {}
        for side in SIDES:
            mine = [res for (_, s), res in results.items() if s == side]
            entry[side] = {
                name: _spread([res["metrics"][name]["value"] for res in mine]) for name in better
            }
            entry[side]["failed"] = sum(res["failed"] for res in mine)
            entry[side]["attempted"] = sum(res["attempted"] for res in mine)
            entry[side]["all_correct"] = all(res["correct"] for res in mine)
            entry[side]["passes"] = [r["passes"] for r in runs
                                     if (r["workload"], r["side"]) == (workload, side)]
        seeds = [seed for seed, side in results if side == "parent" and (seed, "change") in results]
        wins = {}
        for name, direction in better.items():
            sign = -1 if direction == "lower" else 1
            wins[name] = sum(
                sign * (results[seed, "change"]["metrics"][name]["value"]
                        - results[seed, "parent"]["metrics"][name]["value"]) > 0
                for seed in seeds)
        entry["change_wins_of_pairs"] = wins
        entry["pairs"] = len(seeds)
        out[workload] = entry
    return out


def describe(workload: str, entry: dict) -> str:
    """One line per workload: each metric's median [q1, q3] on both sides,
    the relative change of the median, the pairs the change won, and the
    pass counts of both sides' runs."""
    parts = []
    for name, wins in entry["change_wins_of_pairs"].items():
        p, c = entry["parent"][name], entry["change"][name]
        rel = (c["median"] - p["median"]) / p["median"] * 100 if p["median"] else 0.0
        parts.append(
            f"{name} {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] -> {c['median']:.4f} "
            f"[{c['q1']:.4f}, {c['q3']:.4f}] ({rel:+.1f}%, change won {wins} of "
            f"{entry['pairs']} pairs)")
    failed = f"failed {entry['parent']['failed']} -> {entry['change']['failed']}"
    passes = " -> ".join(" ".join(map(str, entry[side]["passes"])) for side in SIDES)
    return f"{workload}: " + "; ".join(parts) + f"; {failed}; passes {passes}"


def export(rev: str, dest: Path) -> str:
    """Write the files of commit rev under dest; return its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[str, int]:
    """perfbench/run.py of the checkout at root, on one workload and seed;
    its last stdout line and the pass count of its meta line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {root} exited "
                         f"{done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return lines[-1], meta["passes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--workload", nargs=2, action="append", required=True,
                        metavar=("NAME", "SEEDS"), help='a workload and its seeds, "a-b" or "a,b"')
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--parent", required=True, help="the commit to compare with")
    parser.add_argument("--change", required=True, help="what the working tree changes")
    parser.add_argument("--claim", required=True, help="the gain claimed, or none")
    args = parser.parse_args(argv)

    better = metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_sha = export(args.parent, Path(tmp))
        if subprocess.run(["git", "diff", "--quiet", parent_sha], cwd=ROOT).returncode == 0:
            raise SystemExit(f"error: the working tree does not differ from {args.parent}")
        roots = {"parent": Path(tmp), "change": ROOT}
        for workload, seeds in args.workload:
            for pair, seed in enumerate(parse_seeds(seeds)):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, passes = run_once(roots[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], "result": result, "passes": passes})
                    print(f"{workload} seed {seed} {side} ({passes} passes): {result}",
                          file=sys.stderr)
    summary = summarize(runs, better)
    record = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": parent_sha,
        "change": args.change,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "pairing": "each seed is one pair, parent and change on the same seed, run one after "
                   "the other; 'first' names the side that ran first, alternating by pair",
        "seeds": ", ".join(f"{w} {s}" for w, s in args.workload),
        "claim": args.claim,
        "notes": [describe(w, entry) for w, entry in summary.items()],
        "runs": runs,
        "summary": summary,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
