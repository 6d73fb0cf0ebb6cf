"""Measure the CPU time that a fresh ``import graphsym`` and a fresh
``import graphsym.cli`` take.

Usage, from the root of a checkout:

    python3 scripts/import_cost.py [-n 20]

Each import runs in N fresh interpreters, and each reports the
``time.thread_time`` its import statement took.  The package is first
copied, without its ``__pycache__``, to a temporary directory that is
deleted afterwards, so nothing is written into the checkout.  Two modes:

- ``source``: bytecode off, as the benchmark runs, under
  PYTHONDONTWRITEBYTECODE=1: every module of the package is compiled from
  source on every import, while the standard library reads its own cached
  bytecode;
- ``cached``: bytecode cached under a temporary PYTHONPYCACHEPREFIX, which
  one untimed import per module fills first, as in an installed package.

Prints one line per mode and module: the median and the minimum in
milliseconds, and the number of runs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("graphsym", "graphsym.cli")
CHILD = "import time; t = time.thread_time(); import {}; print(time.thread_time() - t)"


def import_seconds(module: str, env: dict[str, str], runs: int) -> list[float]:
    """The CPU seconds of ``import module`` in each of runs fresh interpreters."""
    out = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", CHILD.format(module)], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(done.stdout))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=20, help="fresh interpreters per mode and module")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "graphsym", Path(tmp, "src", "graphsym"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(Path(tmp, "src"))
        modes = {"source": dict(env, PYTHONDONTWRITEBYTECODE="1"),
                 "cached": dict(env, PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")))}
        print(f"{'mode':8s}{'module':14s}{'median_ms':>10s}{'min_ms':>8s}{'runs':>6s}")
        for mode, mode_env in modes.items():
            for module in MODULES:
                if mode == "cached":
                    import_seconds(module, mode_env, 1)
                times = import_seconds(module, mode_env, args.n)
                print(f"{mode:8s}{module:14s}{statistics.median(times) * 1e3:10.2f}"
                      f"{min(times) * 1e3:8.2f}{len(times):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
