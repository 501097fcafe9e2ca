"""Benchmark of the raysplit CLI: end-to-end subprocess timings, per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
program is imported from its ``src`` tree (``PYTHONPATH=src``), so no install
is needed.  ``--workload all`` runs every workload in turn.

Every command of a workload is a fresh ``python -m raysplit.cli``
subprocess, run one after another (a closed loop with one client; nothing
runs concurrently).  A run repeats the workload's command sequence until
``--seconds`` have passed and reports medians over the repetitions.  Every
output is checked against the oracles in ``workloads.py``; a failed command
or check counts as failed.

Times are in reference seconds.  The host's CPU speed drifts, by up to 2x
over seconds to minutes on a shared VM, so a raw wall time measures the
neighbours as much as the program.  ``reference.py`` is fixed work that uses
no raysplit code; it runs in a fresh interpreter before the first timed
process and after each one, and a process's wall time is scaled by
REFERENCE_S over the mean of the two reference times around it.  On a machine
that runs the reference task in REFERENCE_S, a reference second is a second.

``--trace 0`` prints the end-to-end metrics:

- setup_s: median scaled time of a fresh interpreter running
  ``import raysplit.cli`` (every subcommand pays it);
- wall_s: median scaled time of the workload's whole command sequence (the
  sum of its commands' scaled times);
- peak_rss_mb: largest peak RSS of any subprocess of a sequence (median);
- success_rate: commands that exited 0 and passed their check, over
  commands attempted.

The report above the result line also gives, with quartiles and sample
counts, the scaled time of each subcommand (spectrum_s, fourier_s, orbits_s,
trace_s, graph_check_s, identity_s), the raw wall times (setup_raw_s,
wall_raw_s), the reference task's own time (reference_s), error_rate and
root_err_ulp.

``--trace 1`` alternates untraced repetitions with traced ones (``tracer.py``
runs each command in-process with wrapped layer functions) and prints the
per-layer metrics: self time of each layer (its function spans plus its
module import) and the layer counters.  The results file adds the self time
of every traced function, the accounting of the raw wall time by the raw
set-up time and layer self times (span times are raw), and the tracing
overhead.

Each run writes ``bench/results/<workload>-seed<N>-trace<T>.json`` with the
machine, the provenance, every raw sample and the summary.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from workloads import WORK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_PER_SEQUENCE = 2
COMMAND_TIMEOUT_S = 150.0
# Wall time of reference.py at the reference speed: about its median on a
# 2-vCPU Xeon (Sapphire Rapids) KVM guest with 2 OpenBLAS threads.
REFERENCE_S = 0.5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_rate": "fraction"}
SUBCOMMANDS = ("spectrum", "fourier", "orbits", "trace", "graph-check", "identity")
DETAIL = {**{f"{s.replace('-', '_')}_s": "s" for s in SUBCOMMANDS},
          "setup_raw_s": "s", "wall_raw_s": "s", "reference_s": "s",
          "error_rate": "fraction", "root_err_ulp": "ulp"}

LAYERS = ("spectrum", "graph", "orbits", "trace", "analysis", "combinatorics", "cli")
COUNTS = {
    "spectrum.roots": "count", "spectrum.secular_points": "count",
    "spectrum.secular_slope_points": "count", "spectrum.roots_per_point": "ratio",
    "spectrum.rescans": "count", "spectrum.root_err_ulp": "ulp",
    "graph.det_points": "count", "graph.build_smatrix_calls": "count", "graph.words": "count",
    "analysis.levels": "count", "analysis.actions": "count", "analysis.phase_terms": "count",
    "analysis.peaks": "count", "orbits.codes": "count", "orbits.records": "count",
    "trace.orbit_terms": "count", "combinatorics.binomial_sums_calls": "count",
    "combinatorics.classes": "count", "cli.rows": "count", "cli.artifact_bytes": "bytes",
}
PER_LAYER = {**{f"{layer}.self_s": "s" for layer in LAYERS}, **COUNTS}


# ---------------------------------------------------------------- processes

def _environment(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def run_process(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one subprocess to completion: exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=fh)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Clock:
    """Scales wall times to the reference speed (see the module docstring)."""

    def __init__(self, env: dict):
        self.env = env
        self.references: list[float] = []
        self.last = self.reference()

    def reference(self) -> float:
        log = WORK / "reference.log"
        rc, wall, _ = run_process([sys.executable, str(BENCH / "reference.py")], self.env, log)
        if rc != 0:
            raise SystemExit(f"reference.py failed:\n{log.read_text()}")
        self.references.append(wall)
        return wall

    def factor(self) -> float:
        """REFERENCE_S over the mean reference time around the process that just ended."""
        after = self.reference()
        factor = 2.0 * REFERENCE_S / (self.last + after)
        self.last = after
        return factor


def measure_setup(env: dict, samples: int, clock: Clock | None = None) -> list[tuple[float, float]]:
    """Raw and scaled wall times of a fresh interpreter running ``import raysplit.cli``."""
    argv = [sys.executable, "-c", "import raysplit.cli"]
    times = []
    for _ in range(samples):
        rc, wall, _ = run_process(argv, env, WORK / "setup.log")
        if rc != 0:
            raise SystemExit(f"import raysplit.cli failed:\n{(WORK / 'setup.log').read_text()}")
        times.append((wall, wall * clock.factor() if clock else wall))
    return times


def check_outputs(workload: tuple, indices: list[int], env: dict) -> dict[int, dict]:
    """Verdicts of workloads.py on the outputs of the given commands.

    The checks run in their own process, which may grow large, so that this
    process stays small (see workloads.py)."""
    name, seed, small = workload
    argv = [sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(int(small)),
            *map(str, indices)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        return {i: {"error": f"check crashed: {proc.stderr[-400:]}", "metrics": {}}
                for i in indices}
    return {int(i): verdict for i, verdict in json.loads(proc.stdout).items()}


def run_sequence(workload: tuple, commands, env: dict, clock: Clock, traced: bool) -> dict:
    """Run the workload's commands once, in order, then check every output."""
    runs = []
    for i, cmd in enumerate(commands):
        for path in cmd.files().values():
            path.unlink(missing_ok=True)
        spans = WORK / f"{i}-spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--"]
        else:
            argv = [sys.executable, "-m", "raysplit.cli"]
        log = WORK / f"{i}-{cmd.sub}.log"
        rc, wall, rss = run_process(argv + cmd.argv(), env, log)
        runs.append((cmd, rc, wall, wall * clock.factor(), rss, log, spans))

    verdicts = check_outputs(workload, [i for i, r in enumerate(runs) if r[1] == 0], env)
    out = {"wall_s": sum(r[3] for r in runs), "wall_raw_s": sum(r[2] for r in runs),
           "peak_rss_mb": max(r[4] for r in runs),
           "attempted": len(runs), "failed": 0, "errors": [], "commands": [],
           "spans": {}, "counts": {}}
    for i, (cmd, rc, raw, wall, rss, log, spans) in enumerate(runs):
        verdict = verdicts.get(i) or {"error": f"{cmd.sub} exited {rc}: {log.read_text()[-400:]}",
                                      "metrics": {}}
        if verdict["error"]:
            out["failed"] += 1
            out["errors"].append(verdict["error"])
        out.update(verdict["metrics"])
        out["commands"].append({"sub": cmd.sub, "rc": rc, "wall_s": wall, "wall_raw_s": raw,
                                "peak_rss_mb": rss})
        if traced and spans.exists():
            doc = json.loads(spans.read_text())
            for name, entry in doc["spans"].items():
                agg = out["spans"].setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
                for key in agg:
                    agg[key] += entry[key]
            for name, n in doc["counts"].items():
                out["counts"][name] = out["counts"].get(name, 0) + n
    return out


# ---------------------------------------------------------------- metrics

def _stats(values: list[float]) -> dict:
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(setup: list[tuple[float, float]], seqs: list[dict], references: list[float]) -> dict:
    attempted = sum(s["attempted"] for s in seqs)
    failed = sum(s["failed"] for s in seqs)
    out = {
        "setup_s": _stats([scaled for _, scaled in setup]),
        "wall_s": _stats([s["wall_s"] for s in seqs]),
        "setup_raw_s": _stats([raw for raw, _ in setup]),
        "wall_raw_s": _stats([s["wall_raw_s"] for s in seqs]),
        "reference_s": _stats(references),
        "peak_rss_mb": _stats([s["peak_rss_mb"] for s in seqs]),
        "success_rate": _stats([1.0 - failed / attempted]),
        "error_rate": _stats([failed / attempted]),
        "root_err_ulp": _stats([s["root_err_ulp"] for s in seqs if "root_err_ulp" in s]),
    }
    for sub in SUBCOMMANDS:
        per_seq = [sum(c["wall_s"] for c in s["commands"] if c["sub"] == sub) for s in seqs]
        used = any(c["sub"] == sub for c in seqs[0]["commands"])
        out[f"{sub.replace('-', '_')}_s"] = _stats(per_seq if used else [])
    return out


def layer_values(seq: dict) -> dict:
    """Per-layer metrics of one traced sequence."""
    spans, counts = seq["spans"], seq["counts"]
    out = {f"{layer}.self_s": sum(e["self_s"] for name, e in spans.items()
                                  if name.startswith(layer + "."))
           for layer in LAYERS}
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    points = counts.get("spectrum.secular_points", 0) + counts.get("graph.det_points", 0)
    out["spectrum.roots_per_point"] = counts.get("spectrum.roots", 0) / points if points else 0.0
    out["spectrum.root_err_ulp"] = seq.get("root_err_ulp", 0.0)
    return out


def per_layer(setup: list[tuple[float, float]], plain: list[dict], traced: list[dict]) -> dict:
    values = [layer_values(s) for s in traced]
    layers = {name: _stats([v[name] for v in values]) for name in PER_LAYER}
    names = sorted({name for s in traced for name in s["spans"]})
    functions = {name: _stats([s["spans"].get(name, {}).get("self_s", 0.0) for s in traced])
                 for name in names}
    # spans are raw times, so the accounting is in raw wall times
    wall = statistics.median(s["wall_raw_s"] for s in plain)
    traced_wall = statistics.median(s["wall_raw_s"] for s in traced)
    compute = statistics.median(
        sum(e["self_s"] for name, e in s["spans"].items() if not name.endswith(".import"))
        for s in traced)
    accounted = len(plain[0]["commands"]) * statistics.median(raw for raw, _ in setup) + compute
    accounting = {
        "untraced_wall_raw_s": wall,
        "setup_raw_s_times_commands": accounted - compute,
        "layer_self_s_excluding_imports": compute,
        "residual_s": wall - accounted,
        "traced_wall_raw_s": traced_wall,
        "tracing_overhead_s": traced_wall - wall,
    }
    return {"metrics": layers, "functions": functions, "accounting": accounting}


# ---------------------------------------------------------------- provenance

def machine(threads: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = subprocess.run(
        [sys.executable, "-c", "import numpy; b = numpy.show_config(mode='dicts')"
         "['Build Dependencies']['blas']; print(b['name'], b['version'])"],
        capture_output=True, text=True, timeout=60)
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), **versions,
        "openblas": blas.stdout.strip() or "unknown", "openblas_threads": threads,
    }


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest(), "seed": seed}


# ---------------------------------------------------------------- runs

def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    commands = workloads.build(name, seed, small)
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc))
    env = _environment(threads)
    measure_setup(env, 1)  # writes the bytecode cache
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    clock = Clock(env)
    longest = 0.0
    while True:
        begun = time.perf_counter()
        # set-up samples are spread over the run, like the sequences they precede
        setup += measure_setup(env, SETUP_PER_SEQUENCE, clock)
        plain.append(run_sequence((name, seed, small), commands, env, clock, traced=False))
        if trace:
            traced.append(run_sequence((name, seed, small), commands, env, clock, traced=True))
        now = time.perf_counter()
        longest = max(longest, now - begun)
        # stop unless another repetition, as long as the longest so far, ends within the budget
        if now - start + longest > seconds:
            break
    seqs = plain + traced
    attempted = sum(s["attempted"] for s in seqs)
    failed = sum(s["failed"] for s in seqs)
    summary = end_to_end(setup, plain, clock.references)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "small": small,
        "machine": machine(threads), "provenance": provenance(seed),
        "commands": [["raysplit", *c.argv(WORK.relative_to(ROOT))] for c in commands],
        "setup_samples": [{"raw_s": raw, "s": scaled} for raw, scaled in setup],
        "reference_samples": clock.references, "reference_s_at_reference_speed": REFERENCE_S,
        "summary": summary,
        "sequences": [{k: v for k, v in s.items() if k not in ("spans", "counts")} for s in plain],
        "attempted": attempted, "failed": failed,
        "errors": [e for s in seqs for e in s["errors"]],
    }
    if trace:
        result["per_layer"] = per_layer(setup, plain, traced)
        result["traced_sequences"] = traced
        metrics, units = result["per_layer"]["metrics"], PER_LAYER
    else:
        metrics, units = summary, END_TO_END
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result, path)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": units[k]} for k in units},
    }


def _line(name: str, unit: str, st: dict) -> str:
    if st["n"] == 0:
        return f"  {name:34s} {'-':>14s} {unit:8s} (not in this workload)"
    return (f"  {name:34s} {st['value']:14.6g} {unit:8s} "
            f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")


def report(result: dict, path: Path) -> None:
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"sequences {len(result['sequences'])}  commands attempted {result['attempted']}  "
          f"failed {result['failed']}")
    print(f"  machine: {m['nproc']} cpus ({m['cpu']}), Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['openblas']} x{m['openblas_threads']} threads")
    for name, unit in {**END_TO_END, **DETAIL}.items():
        print(_line(name, unit, result["summary"][name]))
    if "per_layer" in result:
        pl = result["per_layer"]
        print("  per layer (traced; times are self times):")
        for name, unit in PER_LAYER.items():
            print(_line(name, unit, pl["metrics"][name]))
        print("  per function self time (traced):")
        for name, st in pl["functions"].items():
            print(_line(name, "s", st))
        print("  accounting of untraced wall_raw_s:")
        for name, value in pl["accounting"].items():
            print(f"  {name:34s} {value:14.6g} s")
    for error in result["errors"][:5]:
        print(f"  FAILED {error}")
    print(f"  results file: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem sizes, for the self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "raysplit" / "cli.py").is_file():
        print(f"no raysplit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
