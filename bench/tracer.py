"""Traced in-process run of one raysplit command.

    python3 bench/tracer.py OUT.json -- <raysplit subcommand and flags>

Run with ``src`` on PYTHONPATH.  Before raysplit is imported, an import hook
wraps the execution of every ``raysplit.*`` module in a span named
``<layer>.import``.  After the import, the public functions of each layer are
replaced, as module attributes, by wrappers that record a span
(name, start, end, parent) and the counts listed in ``COUNTERS``.  The CLI and
raysplit's own cross-module calls look these functions up through their
module attributes, so the wrappers see those calls.  Then
``raysplit.cli.main(args, standalone_mode=False)`` runs once inside a
``cli.main`` span.

Spans stay in memory; at exit, OUT.json receives the exit code, the self
time, total time and call count of each span name, and the counters.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import math
import sys
import time
import traceback
from collections import defaultdict

# Third-party imports happen before tracing starts, so that no layer is
# charged for loading numpy or click.
import click
import numpy as np


def _necklaces(n: int) -> int:
    """All binary necklaces of length n (Burnside sum over rotations)."""
    return sum(2 ** math.gcd(i, n) for i in range(n)) // n


def _longest_list(payload: dict) -> int:
    return max((len(v) for v in payload.values() if isinstance(v, list)), default=0)


# function -> counter(bound arguments, result) returning {counter: increment}
COUNTERS = {
    "spectrum.secular": lambda a, out: {"spectrum.secular_points": np.size(a["k"])},
    "spectrum.secular_slope": lambda a, out: {"spectrum.secular_slope_points": np.size(a["k"])},
    "spectrum.find_roots": lambda a, out: {"spectrum.roots": len(out.roots),
                                           "spectrum.rescans": out.completeness.rescans},
    "spectrum.nstep_find_roots": lambda a, out: {"spectrum.roots": len(out.roots),
                                                 "spectrum.rescans": out.completeness.rescans},
    "graph.det_one_minus_s": lambda a, out: {"graph.det_points": np.size(a["k"])},
    "graph.build_smatrix": lambda a, out: {"graph.build_smatrix_calls": 1},
    "graph.orbit_trace_sum": lambda a, out: {"graph.words": 2 ** a["n"]},
    "analysis.fourier_transform": lambda a, out: {
        "analysis.levels": out.j_roots, "analysis.actions": out.s_grid.size,
        "analysis.phase_terms": out.j_roots * out.s_grid.size},
    "analysis.detect_peaks": lambda a, out: {"analysis.peaks": len(out)},
    "orbits.enumerate_primitive": lambda a, out: {"orbits.codes": len(out)},
    "orbits.enumerate_necklaces": lambda a, out: {"orbits.codes": len(out)},
    "orbits.orbit_record": lambda a, out: {"orbits.records": 1},
    "trace.rho_trace": lambda a, out: {
        "trace.orbit_terms": len(a["orbits"]) * np.size(a["k_grid"]) * a["nu_max"]},
    "trace.rho_resummed": lambda a, out: {
        "trace.orbit_terms": len(a["orbits"]) * np.size(a["k_grid"])},
    "combinatorics.binomial_sums": lambda a, out: {
        "combinatorics.binomial_sums_calls": 1, "combinatorics.classes": _necklaces(2 * a["m"])},
    "cli._csv_text": lambda a, out: {"cli.rows": len(a["rows"])},
    "cli._json_text": lambda a, out: {"cli.rows": _longest_list(a["payload"])},
    "cli._write_text": lambda a, out: {"cli.artifact_bytes": len(a["text"])},
}

# cli helpers traced as spans of the cli layer, besides each module's __all__
CLI_HELPERS = ("_csv_text", "_json_text", "_write_text")


class Tracer:
    """Spans of one process, kept in memory: [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += end - start - child[i]
            entry["total_s"] += end - start
            entry["calls"] += 1
        return out


class _TimedImports(importlib.abc.MetaPathFinder):
    """Wrap the execution of each raysplit module in a '<layer>.import' span."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "raysplit" and not name.startswith("raysplit."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        label = f"{name.rpartition('.')[2]}.import"

        def exec_module(module):
            i = self.tracer.open(label)
            try:
                execute(module)
            finally:
                self.tracer.close(i)

        spec.loader.exec_module = exec_module
        return spec


def _wrap(tracer: Tracer, module, fname: str, layer: str) -> None:
    fn = getattr(module, fname)
    name = f"{layer}.{fname}"
    count = COUNTERS.get(name)
    signature = inspect.signature(fn) if count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, n in count(bound.arguments, out).items():
                tracer.counts[key] += n
        return out

    setattr(module, fname, wrapper)


def instrument(tracer: Tracer) -> None:
    import raysplit.cli as cli
    from raysplit import analysis, combinatorics, graph, orbits, spectrum, trace

    for layer, module in (("spectrum", spectrum), ("graph", graph), ("orbits", orbits),
                          ("trace", trace), ("analysis", analysis),
                          ("combinatorics", combinatorics)):
        for fname in module.__all__:
            if inspect.isfunction(getattr(module, fname)):
                _wrap(tracer, module, fname, layer)
    for fname in CLI_HELPERS:
        _wrap(tracer, cli, fname, "cli")


def run(args: list[str]) -> tuple[int, Tracer]:
    tracer = Tracer()
    sys.meta_path.insert(0, _TimedImports(tracer))
    import raysplit.cli as cli

    instrument(tracer)
    rc = 0
    i = tracer.open("cli.main")
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        rc = exc.exit_code
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        tracer.close(i)
    return rc, tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    rc, tracer = run(sys.argv[3:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.summary(), "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
