"""Self-check of the benchmark at reduced size.

    python3 bench/selfcheck.py

Checks the benchmark's own oracles against the counts recorded at seed 0,
then runs every workload of BENCHMARK.json once at reduced size with
``--trace 0`` and ``--trace 1``.  Each result line must name every metric of
BENCHMARK.json with its unit, report no failed command, and give
success_rate 1 (error_rate 0).  Last, the benchmark must exit non-zero,
without a result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def oracle_problems() -> list[str]:
    problems = []
    step = workloads.level_count([0.7, 0.3], [1.0, math.sqrt(0.5)], 1e6)
    bps, lams = workloads.README_CHAIN
    chain = workloads.level_count(*workloads.chain_geometry(bps, lams), 5e4)
    for name, got in (("step", step), ("chain", chain),
                      ("orbits", workloads.primitive_necklaces(16))):
        if got != workloads.SEED0_COUNTS[name]:
            problems.append(f"oracle {name}: {got} != {workloads.SEED0_COUNTS[name]}")
    return problems


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_problems(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--small")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}\n"
                        + proc.stdout[-1500:])
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics/units differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {[n for n in wanted if got.get(n, wanted[n]) != wanted[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} value {m.get('value')!r}")
    if not trace and result["metrics"].get("success_rate", {}).get("value") != 1.0:
        problems.append(f"{where}: error_rate is not 0")
    return problems


def bare_problems(spec: dict) -> list[str]:
    """The benchmark alone, without the program, must fail without a result."""
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    try:
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = oracle_problems()
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            problems += result_problems(spec, name, trace)
            print(f"{name} --trace {trace}: done", flush=True)
    problems += bare_problems(spec)
    for problem in problems:
        print("PROBLEM", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
