"""Per-call spans around the public functions of graphsym, installed from outside.

The tracer replaces every public function of the layer modules with a
timing wrapper, at every import site: a function imported into several
modules (``automorphism_group`` lives in ``symmetry`` and is imported by
``checks``, ``distinguishing``, ``structure`` and ``cli``) is patched in
each of them, so calls are caught whichever module makes them.  Private
``_`` helpers and generator functions are never wrapped: the first can
be deleted by a refactor without breaking the benchmark, and a wrapper
around the second would time only the creation of the generator.

Each call records one span (name, start, end, parent index) on a CPU clock
(the worker's, which leaves out its speed probes).  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("formats", "products", "symmetry", "structure", "distinguishing", "checks", "cli")
CHECK_FUNCTIONS = (
    "check_number_sandwich",
    "check_layered_labeling",
    "check_number_equality",
    "sequence_labeling",
    "check_index_monotone",
    "check_index_sthin",
    "check_lift",
    "check_traceable_index",
    "check_power_number",
)
COUNTED = frozenset(
    ["symmetry.automorphism_group", "formats.serialize_graph6",
     "distinguishing.distinguishing_number", "distinguishing.distinguishing_index"]
    + ["checks." + name for name in CHECK_FUNCTIONS]
)


class Tracer:
    """Spans plus per-function counters, kept in memory for one pass."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._aut_keys: set = set()

    def install(self) -> None:
        """Wrap the public functions of every layer module at every import site."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"graphsym.{short}")
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "graphsym" and not name.startswith("graphsym."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name: str, fn):
        counted = name in COUNTED
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if counted:
                    self._count(name, args, kwargs, result, error)

        return wrapper

    def _count(self, name, args, kwargs, result, error) -> None:
        """Counters measured at the boundary of the call that did the work."""
        counters = self.counters
        if name == "symmetry.automorphism_group":
            key = (args[0], kwargs.get("max_vertices", 20), kwargs.get("max_order"))
            if key in self._aut_keys:
                counters[name + ".repeats"] += 1
            self._aut_keys.add(key)
            if result is not None:
                counters[name + ".elements"] += result.order
            elif type(error).__name__ == "BudgetExceeded":
                counters[name + ".budget_exceeded"] += 1
        elif name.startswith("distinguishing."):
            if result is not None and result.mode == "exact":
                counters[name + ".exact"] += 1
        elif name == "formats.serialize_graph6":
            if result is not None:
                counters["formats.graph6_bytes"] += len(result)
        else:  # one of CHECK_FUNCTIONS; sequence_labeling returns (labeling, report)
            report = result[1] if isinstance(result, tuple) else result
            if report is not None and report.status in ("pass", "fail"):
                counters[name + ".decided"] += 1

    def summary(self) -> dict[str, float]:
        """Per-function calls and self time, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent), children in zip(self.spans, child_time):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - children
        out.update(self.counters)
        out["symmetry.automorphism_group.distinct_keys"] = len(self._aut_keys)
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
