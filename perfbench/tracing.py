"""Outside-in spans for the traced run.

For the length of one traced pass the benchmark rebinds, in every
``cipherorder`` module, each name that refers to a public function of a
layer module, so every call through a module-level name opens a span.  Spans
are kept in memory as ``[name, start, end, parent, job]`` rows; a span's
self time is its duration minus the durations of its direct children.
``perms`` gets no span: ``compose`` and ``index`` run 10^5-10^6 times per
job, so their cost shows up as self time of the caller.

Some spans also add counts computed from their inputs or result.  That work
runs in a ``trace.hooks`` span of its own, so it is not charged to a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from math import perm
from pathlib import Path
from typing import Any, Callable

# the modules whose public functions get spans; cli only through main
LAYERS = ("cli", "scenario", "experiments", "qsecurity", "dist", "groups", "majorize", "metrics")


def _convolve_counts(counts: Counter, args, kwargs, result) -> None:
    x, y = args
    supp_y = y.support_size()
    counts["dist.convolve.pairs_visited"] += x.group.order * supp_y
    counts["dist.convolve.pairs_useful"] += x.support_size() * supp_y


def _compare_q_counts(counts: Counter, args, kwargs, result) -> None:
    left, _, q_max = args
    m = left.group.degree
    counts["qsecurity.tuples"] += sum(perm(m, q) for q in range(q_max + 1))


def _compare_counts(counts: Counter, args, kwargs, result) -> None:
    counts["majorize.compare.entries"] += max(len(args[0]), len(args[1]))


def _birkhoff_counts(counts: Counter, args, kwargs, result) -> None:
    counts["majorize.birkhoff.terms"] += len(result)


HOOKS: dict[str, Callable[[Counter, tuple, dict, Any], None]] = {
    "dist.convolve": _convolve_counts,
    "qsecurity.compare_q": _compare_q_counts,
    "majorize.compare": _compare_counts,
    "majorize.birkhoff_decompose": _birkhoff_counts,
}


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                h = self.open("trace.hooks")
                try:
                    hook(self.counts, args, kwargs, result)
                finally:
                    self.close(h)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _targets() -> dict[Callable, str]:
    """Public functions of the layer modules, mapped to span names."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cipherorder.{layer}")
        for attr, value in vars(module).items():
            if layer == "cli" and attr != "main":
                continue
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                targets[value] = f"{layer}.{attr}"
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every module-level name of a traced function to its wrapper;
    return the function that restores the originals."""
    targets = _targets()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    saved = []
    modules = [
        mod for name, mod in sys.modules.items()
        if name == "cipherorder" or name.startswith("cipherorder.")
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def restore() -> None:
        for module, attr, value in saved:
            setattr(module, attr, value)

    return restore


# per-layer metrics named in BENCHMARK.json: module self times first, then
# the functions each later optimisation targets
MODULE_SELF = [f"{layer}.self_s" for layer in LAYERS] + ["trace.hooks.self_s"]
FUNCTION_SELF = [
    "dist.convolve", "dist.triple_decompose", "dist.translate",
    "qsecurity.compare_q", "qsecurity.project",
    "groups.left_cosets", "groups.stabilizer", "groups.symmetric_group",
    "groups.double_coset", "groups.conjugate_subgroup",
    "majorize.birkhoff_decompose", "majorize.hlp_witness", "majorize.compare",
    "scenario.parse_scenario",
]
FUNCTION_CALLS = [
    "dist.convolve", "qsecurity.project", "groups.left_cosets", "groups.stabilizer",
]
COUNTS = [
    "dist.convolve.pairs_visited", "dist.convolve.pairs_useful",
    "qsecurity.tuples", "majorize.birkhoff.terms", "majorize.compare.entries",
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self times, call counts and work counts of one traced pass."""
    self_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        self_by_name[name] += own
        calls[name] += 1
    out: dict[str, tuple[float, str]] = {}
    for key in MODULE_SELF:
        owner = key[: -len(".self_s")]
        mine = [v for n, v in self_by_name.items() if owner in (n, n.rpartition(".")[0])]
        out[key] = (sum(mine, 0.0), "s")
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = (self_by_name[name], "s")
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    out["metrics.calls"] = (
        sum(c for n, c in calls.items() if n.startswith("metrics.")), "count"
    )
    for key in COUNTS:
        out[key] = (tracer.counts[key], "count")
    visited = tracer.counts["dist.convolve.pairs_visited"]
    useful = tracer.counts["dist.convolve.pairs_useful"]
    out["dist.convolve.useful_ratio"] = (useful / visited if visited else 0.0, "fraction")
    return out
