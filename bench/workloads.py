"""Workloads of the raysplit benchmark: commands from a seed, and output oracles.

A workload is a fixed sequence of ``raysplit`` subcommands, made of parts.  ``--seed 0`` uses
the README geometries; any other seed draws a generic geometry from the boxes
below.  Sizes are rescaled with the geometry so that every seed computes about
the same number of levels, actions and orbit terms: seeds vary the geometry,
not the amount of work.

Geometry boxes (seed != 0):

- single step: b in [0.6, 0.8], lambda in [0.4, 0.6];
- comb (equal weights): lambda in [0.4, 0.6], b = beta / (1 + beta);
- chain: breakpoints 0 < b1 < b2 < 1 with b1 in [0.25, 0.35],
  b2 in [0.55, 0.65], and lambdas in [0, 0.1] x [0.4, 0.6] x [0.65, 0.85];
- trace: b in [0.6, 0.8], lambda in [0.95, 0.99];
- identity --poisson lambda in [0.4, 0.6]; graph-check --seed is the seed.

Every check below is written against the benchmark's own arithmetic, never
against raysplit code:

- level counts come from a Sturm oscillation (Pruefer angle) count of
  -psi'' = k^2 beta(x)^2 psi with Dirichlet walls;
- orbit counts from the Moebius sum over primitive binary necklaces;
- Fourier peaks from the action lattice 2 (a l1 + c l2);
- comb roots from n pi / (l1 + l2) in extended precision.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# numpy is imported inside the checks only.  The process that starts the
# timed commands must stay small: a child's peak RSS (ru_maxrss) includes the
# peak RSS of its parent at the moment it execs.

WORK = Path(__file__).resolve().parent / "_work"

# Level counts recorded at seed 0; the Sturm count must reproduce them.
SEED0_COUNTS = {"step": 290_340, "chain": 11_334, "orbits": 8_800}


class CheckFailed(Exception):
    """An output of the program failed its oracle."""


@dataclass
class Command:
    """One subcommand: its flags, its output files and the check on them."""

    sub: str
    args: list[str]
    outputs: dict[str, str]          # flag -> file name inside the work dir
    check: Callable[[dict[str, Path], dict], None]

    def files(self, work: Path = WORK) -> dict[str, Path]:
        return {flag: work / name for flag, name in self.outputs.items()}

    def argv(self, work: Path = WORK) -> list[str]:
        out = [self.sub, *self.args]
        for flag, path in self.files(work).items():
            out += [flag, str(path)]
        return out


# ---------------------------------------------------------------- oracles

def level_count(widths, betas, k: float) -> int:
    """Number of levels below k of a chain of weighted regions.

    The Pruefer angle theta = atan2(q psi, psi') of the solution with
    psi(0) = 0 grows by q * width across a region of local wavenumber
    q = beta * k and is rescaled at an interface, where psi and psi' are
    continuous.  By Sturm oscillation the levels below k number
    floor(theta(1) / pi).
    """
    theta = 0.0
    for i, (w, bt) in enumerate(zip(widths, betas)):
        theta += bt * w * k
        if i + 1 < len(widths):
            turns, phi = divmod(theta, math.pi)
            theta = turns * math.pi + math.atan2(betas[i + 1] * math.sin(phi),
                                                 bt * math.cos(phi))
    return int(theta // math.pi)


def _moebius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def primitive_necklaces(max_length: int) -> int:
    """Primitive binary necklaces of length 1..max_length (Moebius sum)."""
    return sum(
        sum(_moebius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, max_length + 1)
    )


def _step_lengths(b: float, lam: float) -> tuple[float, float]:
    return b, math.sqrt(1.0 - lam) * (1.0 - b)


def _read_csv(path: Path) -> tuple[list[str], list[str], dict[str, str]]:
    """Header, data lines and '# key=value' trailer of a CLI CSV artifact."""
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    notes = dict(ln[2:].split("=", 1) for ln in lines[1:] if ln.startswith("# ") and "=" in ln)
    if not body:
        raise CheckFailed(f"{path.name}: no header")
    return body[0].split(","), body[1:], notes


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- checks

def _check_spectrum_csv(widths, betas, k_max: float, recorded: int | None):
    def check(files, metrics):
        header, rows, notes = _read_csv(files["--out"])
        _require(header == ["n", "k", "E", "residual"], f"spectrum header {header}")
        expected = level_count(widths, betas, k_max)
        _require(recorded is None or expected == recorded,
                 f"Sturm count {expected} != recorded {recorded}")
        _require(len(rows) == expected, f"spectrum has {len(rows)} roots, Sturm count {expected}")
        dev = float(notes["max_staircase_deviation"])
        _require(dev <= float(notes["staircase_tolerance"]), f"staircase deviation {dev}")
        _require(float(rows[-1].split(",")[1]) <= k_max, "last root beyond kmax")
    return check


def _check_comb(b: float, lam: float, k_max: float):
    def check(files, metrics):
        import numpy as np

        doc = json.loads(files["--out"].read_text())
        k = np.array([r["k"] for r in doc["roots"]], dtype=float)
        l1, l2 = _step_lengths(b, lam)
        expected = level_count([b, 1.0 - b], [1.0, math.sqrt(1.0 - lam)], k_max)
        _require(k.size == expected, f"comb has {k.size} roots, Sturm count {expected}")
        rep = doc["completeness"]
        _require(rep["max_staircase_deviation"] <= rep["tolerance"], "comb staircase deviation")
        n = np.arange(1, k.size + 1, dtype=np.longdouble)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        ref = n * pi / (np.longdouble(l1) + np.longdouble(l2))
        err = np.abs(k.astype(np.longdouble) - ref) / np.spacing(k).astype(np.longdouble)
        metrics["root_err_ulp"] = float(err.max())
    return check


def _check_orbits(max_length: int):
    def check(files, metrics):
        _, rows, _ = _read_csv(files["--out"])
        expected = primitive_necklaces(max_length)
        _require(max_length != 16 or expected == SEED0_COUNTS["orbits"], f"Moebius sum {expected}")
        _require(len(rows) == expected, f"orbits has {len(rows)} rows, Moebius sum {expected}")
    return check


def _check_trace(points: int):
    def check(files, metrics):
        _, rows, _ = _read_csv(files["--out"])
        _require(len(rows) == points, f"trace has {len(rows)} rows, expected {points}")
        _require(all(math.isfinite(float(x)) for r in rows for x in r.split(",")),
                 "trace holds non-finite values")
    return check


def _check_ok_flags(files, metrics):
    doc = json.loads(files["--out"].read_text())
    if doc.get("kind") == "graph-check":
        flags = [entry["ok"] for entry in doc["checks"].values()]
    else:
        flags = [row["ok"] for row in doc["results"]]
        if "poisson" in doc:
            flags.append(doc["poisson"]["ok"])
    _require(bool(flags) and all(flags), f"{doc.get('kind')} reports a failed check")


def _check_fourier(b: float, lam: float, k_max: float, s_max: float):
    def check(files, metrics):
        import numpy as np

        main = json.loads(files["--out"].read_text())
        expected = level_count([b, 1.0 - b], [1.0, math.sqrt(1.0 - lam)], k_max)
        _require(main["j_roots"] == expected, f"fourier used {main['j_roots']} levels, Sturm count {expected}")
        _require(len(main["s"]) == len(main["absF"]) > 0, "fourier profile is empty")
        report = json.loads(files["--report"].read_text())
        tol = report["tolerance"]
        peaks = np.array([p["s"] for p in report["peaks"]])
        _require(peaks.size > 0, "fourier found no peaks")
        l1, l2 = _step_lengths(b, lam)
        a = np.arange(int((s_max + tol) / (2 * l1)) + 1)[:, None]
        c = np.arange(int((s_max + tol) / (2 * l2)) + 1)[None, :]
        lattice = (2.0 * (a * l1 + c * l2)).ravel()[1:]
        dist = np.abs(peaks[:, None] - lattice[None, :]).min(axis=1)
        _require(bool(np.all(dist <= tol)),
                 f"{int(np.sum(dist > tol))} of {peaks.size} peaks lie off the action lattice")
    return check


# ---------------------------------------------------------------- workloads

def _num(x: float) -> str:
    return repr(float(x))


def _step(rng: random.Random | None, lam_box=(0.4, 0.6)) -> tuple[float, float]:
    if rng is None:
        return 0.7, 0.5
    return rng.uniform(0.6, 0.8), rng.uniform(*lam_box)


def _omega(b: float, lam: float) -> float:
    return sum(_step_lengths(b, lam))


def spectrum_step(rng, small: bool) -> list[Command]:
    b, lam = _step(rng)
    lam_c = 0.5 if rng is None else rng.uniform(0.4, 0.6)
    beta_c = math.sqrt(1.0 - lam_c)
    b_c = beta_c / (1.0 + beta_c)
    scale = 0.1 if small else 1.0
    k_step = 1e6 * scale * (_omega(0.7, 0.5) / _omega(b, lam))
    k_comb = 1e5 * scale * (_omega(*_comb0()) / _omega(b_c, lam_c))
    recorded = SEED0_COUNTS["step"] if rng is None and not small else None
    return [
        Command("spectrum", ["--b", _num(b), "--lambda", _num(lam), "--kmax", _num(k_step)],
                {"--out": "spectrum.csv"},
                _check_spectrum_csv([b, 1.0 - b], [1.0, math.sqrt(1.0 - lam)], k_step, recorded)),
        Command("spectrum", ["--b", _num(b_c), "--lambda", _num(lam_c), "--kmax", _num(k_comb),
                             "--format", "json"],
                {"--out": "comb.json"},
                _check_comb(b_c, lam_c, k_comb)),
    ]


def _comb0() -> tuple[float, float]:
    beta = math.sqrt(0.5)
    return beta / (1.0 + beta), 0.5


README_CHAIN = ([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])


def chain_geometry(bps, lams) -> tuple[list[float], list[float]]:
    return [c - a for a, c in zip(bps, bps[1:])], [math.sqrt(1.0 - x) for x in lams]


def _chain_omega(bps, lams) -> float:
    return sum(w * bt for w, bt in zip(*chain_geometry(bps, lams)))


def spectrum_chain(rng, small: bool) -> list[Command]:
    if rng is None:
        bps, lams = README_CHAIN
    else:
        bps = [0.0, rng.uniform(0.25, 0.35), rng.uniform(0.55, 0.65), 1.0]
        lams = [rng.uniform(0.0, 0.1), rng.uniform(0.4, 0.6), rng.uniform(0.65, 0.85)]
    widths, betas = chain_geometry(bps, lams)
    k_max = 5e4 * (0.1 if small else 1.0) * (_chain_omega(*README_CHAIN) / _chain_omega(bps, lams))
    chain = ["--breakpoints", ",".join(_num(x) for x in bps),
             "--lambdas", ",".join(_num(x) for x in lams)]
    recorded = SEED0_COUNTS["chain"] if rng is None and not small else None
    seed = 7 if rng is None else rng.randrange(1 << 30)
    return [
        Command("spectrum", [*chain, "--kmax", _num(k_max)], {"--out": "chain.csv"},
                _check_spectrum_csv(widths, betas, k_max, recorded)),
        Command("graph-check", [*chain, "--seed", str(seed)], {"--out": "chain-check.json"},
                _check_ok_flags),
    ]


def spectroscopy(rng, small: bool) -> list[Command]:
    b, lam = _step(rng)
    k0 = 3e3 if small else 3e4
    k_max = k0 * (_omega(0.7, 0.5) / _omega(b, lam))
    s_min = 0.2
    # hold the action grid size (s_max - s_min) * 4 k_max / pi fixed as well
    s_max = s_min + (10.0 - s_min) * k0 / k_max
    return [
        Command("fourier", ["--b", _num(b), "--lambda", _num(lam), "--kmax", _num(k_max),
                            "--smin", _num(s_min), "--smax", _num(s_max), "--format", "json"],
                {"--out": "fourier.json", "--report": "peaks.json"},
                _check_fourier(b, lam, k_max, s_max)),
    ]


def orbit_sums(rng, small: bool) -> list[Command]:
    b, lam = _step(rng)
    b_t, lam_t = (0.7, 0.98) if rng is None else _step(rng, (0.95, 0.99))
    seed = 7 if rng is None else rng.randrange(1 << 30)
    lam_p = 0.5 if rng is None else rng.uniform(0.4, 0.6)
    longest, short, long_, max_m = (10, 8, 10, 8) if small else (16, 12, 14, 12)
    geo = ["--b", _num(b), "--lambda", _num(lam)]
    trace = ["--b", _num(b_t), "--lambda", _num(lam_t), "--kmin", "2", "--kmax", "90"]
    return [
        Command("orbits", [*geo, "--max-length", str(longest)], {"--out": "orbits.csv"},
                _check_orbits(longest)),
        Command("trace", [*trace, "--max-length", str(short)], {"--out": "trace.csv"},
                _check_trace(2000)),
        Command("trace", [*trace, "--max-length", str(long_), "--eta", "0.05", "--resummed"],
                {"--out": "trace-resummed.csv"}, _check_trace(2000)),
        Command("graph-check", [*geo, "--seed", str(seed)], {"--out": "step-check.json"},
                _check_ok_flags),
        Command("identity", ["--max-m", str(max_m), "--poisson", _num(lam_p), "--format", "json"],
                {"--out": "identity.json"}, _check_ok_flags),
    ]


# Each part draws its geometry from its own stream of the seed.
PARTS = {
    "spectrum-step": spectrum_step,
    "spectrum-chain": spectrum_chain,
    "spectroscopy": spectroscopy,
    "orbit-sums": orbit_sums,
}

# A workload runs its parts' commands in this order.  "spectra" loads the root
# engine, the S(k) builder, analysis and the CSV and JSON writers;
# "orbit-sums" does little root finding and loads the cyclic-word layers instead.
# Each is the control for the other's layers.
WORKLOADS = {
    "spectra": ("spectrum-step", "spectrum-chain", "spectroscopy"),
    "orbit-sums": ("orbit-sums",),
}


def build(name: str, seed: int, small: bool = False) -> list[Command]:
    """The command sequence of a workload; seed 0 is the README geometry."""
    return [cmd for part in WORKLOADS[name]
            for cmd in PARTS[part](None if seed == 0 else random.Random(f"{part}:{seed}"), small)]


def check_outputs(name: str, seed: int, small: bool, indices: list[int]) -> dict[int, dict]:
    """Run the checks of the given commands on their outputs in WORK."""
    commands = build(name, seed, small)
    out = {}
    for i in indices:
        cmd, metrics, error = commands[i], {}, None
        try:
            cmd.check(cmd.files(), metrics)
        except Exception as exc:  # any malformed output is a failed check
            error = f"{cmd.sub}: {type(exc).__name__}: {exc}"
        out[i] = {"error": error, "metrics": metrics}
    return out


if __name__ == "__main__":
    # python3 bench/workloads.py WORKLOAD SEED SMALL INDEX...  -> JSON verdicts
    name, seed, small, *indices = sys.argv[1:]
    print(json.dumps(check_outputs(name, int(seed), small == "1", [int(i) for i in indices])))
