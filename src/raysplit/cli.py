"""Command-line front end emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 a verification contract failed (details as JSON on
stderr), 2 usage errors such as unknown flags, 3 invalid parameter ranges,
4 file I/O failures.  All artifacts are deterministic: rows are emitted in a
fixed order, CSV uses LF endings, a leading "# schema_version=..." comment
and floats in 15 significant digits; JSON carries schema_version, and its
floats are the shortest repr that reads back to the same float.
"""

from __future__ import annotations

import json
import math
import sys
from functools import wraps
from operator import itemgetter

import click
import numpy as np

from . import __version__, analysis, combinatorics, graph, orbits, spectrum, trace
from .model import ScaledStepPotential, build_nstep, build_potential

SCHEMA_VERSION = 1

EXIT_CONTRACT = 1
EXIT_RANGE = 3
EXIT_IO = 4

_CSV_BLOCK = 4096    # rows formatted per block, bounding the cell strings
_JSON_BLOCK = 4096   # list items encoded per json.dumps call, likewise
_WRITE_BLOCK = 1 << 20   # characters encoded per write, bounding the bytes copy
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


class ContractFailure(RuntimeError):
    """A requested verification did not hold."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)


def _guard(fn):
    """Map exception classes onto the documented exit codes."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ValueError as exc:
            click.echo(_error_json("invalid-parameter", str(exc)), err=True)
            sys.exit(EXIT_RANGE)
        except OSError as exc:
            click.echo(_error_json("io-failure", str(exc)), err=True)
            sys.exit(EXIT_IO)
        except (ContractFailure, spectrum.CompletenessError) as exc:
            click.echo(_error_json("contract-violation", str(exc)), err=True)
            sys.exit(EXIT_CONTRACT)

    return wrapper


def _apply_config(ctx: click.Context, opts: dict) -> dict:
    """Fill defaulted options from the --config JSON file, flags winning.

    Config keys mirror the flag spellings ("lambda", "max-length", ...).
    """
    path = opts.get("config")
    if not path:
        return opts
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    dests = {}
    for param in ctx.command.params:
        for flag in param.opts:
            dests[flag.lstrip("-").replace("-", "_")] = param.name
    for key, value in loaded.items():
        name = dests.get(key.replace("-", "_"))
        if name is None or name not in opts:
            raise ValueError(f"config key {key!r} is not an option of this command")
        if ctx.get_parameter_source(name) == click.core.ParameterSource.DEFAULT:
            opts[name] = value
    return opts


def _write_text(path: str, text: str) -> None:
    if path == "-":
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i in range(0, len(text), _WRITE_BLOCK):
                fh.write(text[i:i + _WRITE_BLOCK])


def _csv_format(column) -> str:
    """The %-format of one CSV column: a column of floats in 15 digits, any other by str."""
    if isinstance(column, np.ndarray):
        return "%.15g" if column.dtype.kind == "f" else "%s"
    return "%.15g" if all(isinstance(v, float) for v in column) else "%s"


def _csv_rows(columns: list) -> list[str]:
    """CSV row lines, formatted _CSV_BLOCK rows at a time by one %-template."""
    width = len(columns)
    row = ",".join(map(_csv_format, columns))
    rows = []
    for i in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
        block = [col[i:i + _CSV_BLOCK] for col in columns]
        cells = [None] * (len(block[0]) * width)
        for j, col in enumerate(block):
            cells[j::width] = col.tolist() if isinstance(col, np.ndarray) else col
        rows.extend(("\n".join([row] * len(block[0])) % tuple(cells)).split("\n"))
    return rows


def _csv_text(kind: str, header: list[str], rows: list[str], trailer: list[str] = ()) -> str:
    """The CSV artifact from its header, row lines and trailer notes."""
    lines = [f"# schema_version={SCHEMA_VERSION} kind={kind}"]
    lines.append(",".join(header))
    lines.extend(rows)
    lines.extend(f"# {note}" for note in trailer)
    lines.append("")
    return "\n".join(lines)


def _all_scalars(values) -> bool:
    return set(map(type, values)) <= _JSON_SCALARS


def _json_list(values: list) -> list[str] | None:
    """A top-level list as json.dumps(indent=2) writes it, in pieces, or None.

    A list of scalars, or of dicts that share their string keys and hold
    scalars, is encoded by the C encoder (json.dumps without indent),
    _JSON_BLOCK items per call, and laid out by separators and a per-record
    template.  Encoded scalars hold no raw newline, so the cells split on one.
    The pieces are joined once, by _json_text.  None leaves the list to
    json.dumps.
    """
    if not values:
        return None
    if _all_scalars(values):
        def block(i: int) -> str:
            return json.dumps(values[i:i + _JSON_BLOCK], separators=(",\n    ", ":"))[1:-1]
    else:
        if set(map(type, values)) != {dict}:
            return None
        keys = sorted(values[0])
        if not keys or set(map(len, values)) != {len(keys)} or set(map(type, keys)) != {str}:
            return None
        try:
            columns = [list(map(itemgetter(key), values)) for key in keys]
        except KeyError:
            return None
        if not all(map(_all_scalars, columns)):
            return None
        record = "{\n      " + ",\n      ".join(
            json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + "\n    }"

        def block(i: int) -> str:
            n = min(_JSON_BLOCK, len(values) - i)
            cells = [None] * (n * len(keys))
            for j, col in enumerate(columns):
                cells[j::len(keys)] = json.dumps(
                    col[i:i + n], separators=("\n", ":"))[1:-1].split("\n")
            return ",\n    ".join([record] * n) % tuple(cells)
    pieces = ["[\n    "]
    for i in range(0, len(values), _JSON_BLOCK):
        pieces += (block(i), ",\n    ")
    pieces[-1] = "\n  ]"
    return pieces


def _json_text(payload: dict) -> str:
    """payload and schema_version as json.dumps(indent=2, sort_keys=True) writes them.

    Long top-level lists go through _json_list; every other value is encoded
    by json.dumps and indented one level.  The text is joined once from its
    pieces, so no intermediate copy of a long list is made.
    """
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    pieces = ["{\n  "]
    for key in sorted(payload):
        value = payload[key]
        text = _json_list(value) if type(value) is list else None
        if text is None:
            text = [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")]
        pieces += (json.dumps(key), ": ", *text, ",\n  ")
    pieces[-1] = "\n}\n"
    return "".join(pieces)


def _write_table(opts: dict, kind: str, columns: dict, records: str | None = None,
                 meta: dict | None = None, trailer: list[str] = ()) -> None:
    """Write equal-length columns, keyed by header name, as --format asks.

    CSV has one line per row, a column of floats in 15 significant digits,
    any other column by str, and the trailer as "# " notes after the rows.
    JSON holds the rows as objects under the key records, or one array per
    column when records is None, plus the meta fields; its floats are the
    shortest repr that reads back to the same float.
    """
    if opts["fmt"] == "csv":
        rows = _csv_rows(list(columns.values()))
        _write_text(opts["out"], _csv_text(kind, list(columns), rows, trailer))
        return
    columns = {name: col.tolist() if isinstance(col, np.ndarray) else list(col)
               for name, col in columns.items()}
    if records is not None:
        columns = {records: [dict(zip(columns, row)) for row in zip(*columns.values())]}
    _write_text(opts["out"], _json_text({"kind": kind, **columns, **(meta or {})}))


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers, got {text!r}")


def _potential_from(opts: dict):
    """Either a single step from --b/--lambda or a chain from the list flags."""
    if opts.get("breakpoints") is not None or opts.get("lambdas") is not None:
        if opts.get("breakpoints") is None or opts.get("lambdas") is None:
            raise ValueError("--breakpoints and --lambdas must be given together")
        return build_nstep(
            _parse_floats(opts["breakpoints"], "--breakpoints"),
            _parse_floats(opts["lambdas"], "--lambdas"),
        )
    if opts.get("b") is None or opts.get("lam") is None:
        raise ValueError("either --b and --lambda or --breakpoints and --lambdas are required")
    return build_potential(opts["b"], opts["lam"])


def _out_and_config(fn):
    fn = click.option("--out", default="-", show_default=True,
                      help="Output path for the main artifact ('-' = stdout).")(fn)
    fn = click.option("--config", type=click.Path(), default=None,
                      help="JSON file supplying defaults for any option of this command.")(fn)
    return fn


def _common(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                      default="csv", show_default=True)(fn)
    return _out_and_config(fn)


def _step_options(fn):
    fn = click.option("--b", type=float, default=None, help="Step position in (0, 1).")(fn)
    fn = click.option("--lambda", "lam", type=float, default=None,
                      help="Scaling constant in [0, 1).")(fn)
    return fn


def _chain_options(fn):
    fn = click.option("--breakpoints", default=None,
                      help="Comma-separated region boundaries 0,...,1 for a chain.")(fn)
    fn = click.option("--lambdas", default=None,
                      help="Comma-separated per-region scaling constants.")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="raysplit")
def main() -> None:
    """Spectra of scaled step potentials and their periodic-orbit analysis."""


@main.command("spectrum")
@_step_options
@_chain_options
@click.option("--kmax", type=float, default=100.0, show_default=True)
@_common
@click.pass_context
@_guard
def spectrum_cmd(ctx, **opts):
    """Compute all roots up to --kmax with a completeness report."""
    opts = _apply_config(ctx, opts)
    pot = _potential_from(opts)
    result = spectrum.find_roots(pot, opts["kmax"])
    roots = result.roots
    residuals = np.abs(spectrum.secular_function(pot)(roots))
    rep = result.completeness
    columns = {"n": range(1, len(roots) + 1), "k": roots, "E": roots * roots, "residual": residuals}
    completeness = {
        "max_staircase_deviation": rep.max_staircase_deviation,
        "tolerance": rep.tolerance,
        "near_degenerate": list(rep.near_degenerate),
        "rescans": rep.rescans,
    }
    trailer = [
        f"max_staircase_deviation={_fmt(rep.max_staircase_deviation)}",
        f"staircase_tolerance={_fmt(rep.tolerance)}",
        f"rescans={rep.rescans}",
        f"near_degenerate_count={len(rep.near_degenerate)}",
    ]
    _write_table(opts, "spectrum", columns, records="roots",
                 meta={"k_max": result.k_max, "completeness": completeness}, trailer=trailer)


def _sized_records(pot: ScaledStepPotential, max_length: int | None, count: int | None):
    """Primitive orbit records in (length, action, word) order, truncated."""
    if count is not None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        # the shortest length whose primitive necklaces number at least count
        max_length = 1
        while sum(map(orbits.primitive_count, range(1, max_length + 1))) < count:
            if max_length == 32:
                raise ValueError(f"count {count} needs orbits longer than 32 symbols")
            max_length += 1
    recs = [orbits.orbit_record(c, pot) for c in orbits.enumerate_primitive(max_length)]
    recs.sort(key=lambda rec: (rec.code.length, rec.s0, rec.code.word))
    return recs if count is None else recs[:count]


@main.command("orbits")
@_step_options
@click.option("--max-length", type=int, default=7, show_default=True,
              help="Truncate by binary code length.")
@click.option("--count", type=int, default=None,
              help="Truncate to exactly this many shortest orbits instead.")
@_common
@click.pass_context
@_guard
def orbits_cmd(ctx, **opts):
    """Tabulate primitive periodic orbits with counts, signs and actions."""
    opts = _apply_config(ctx, opts)
    if opts["b"] is None or opts["lam"] is None:
        raise ValueError("--b and --lambda are required")
    pot = build_potential(opts["b"], opts["lam"])
    recs = _sized_records(pot, opts["max_length"], opts["count"])
    columns = {
        "code": [r.code.word for r in recs], "length": [r.code.length for r in recs],
        "nu": [r.code.nu for r in recs], "nL": [r.n_l for r in recs],
        "nR": [r.n_r for r in recs], "sigma": [r.sigma for r in recs],
        "tau2": [r.tau2 for r in recs], "sign": [r.sign for r in recs],
        "S0": [r.s0 for r in recs],
    }
    _write_table(opts, "orbits", columns, records="orbits")


@main.command("trace")
@_step_options
@click.option("--kmin", type=float, default=1.0, show_default=True)
@click.option("--kmax", type=float, default=30.0, show_default=True)
@click.option("--points", type=int, default=2000, show_default=True)
@click.option("--max-length", type=int, default=7, show_default=True)
@click.option("--nu-max", type=int, default=10, show_default=True)
@click.option("--eta", type=float, default=0.0, show_default=True)
@click.option("--domain", type=click.Choice(["energy", "k"]), default="energy",
              show_default=True)
@click.option("--resummed", is_flag=True, default=False,
              help="Close the repetition sum into its geometric form.")
@click.option("--report", type=click.Path(), default=None,
              help="Also write a JSON report with density peaks and the ballistic comb.")
@_common
@click.pass_context
@_guard
def trace_cmd(ctx, **opts):
    """Reconstruct the level density from periodic orbits on a k grid."""
    opts = _apply_config(ctx, opts)
    if opts["b"] is None or opts["lam"] is None:
        raise ValueError("--b and --lambda are required")
    pot = build_potential(opts["b"], opts["lam"])
    if not 0 < opts["kmin"] < opts["kmax"] < math.inf:
        raise ValueError("need 0 < kmin < kmax < inf")
    if opts["points"] < 2:
        raise ValueError(f"points must be >= 2, got {opts['points']!r}")
    classes = orbits.orbit_classes(pot, opts["max_length"])
    k_grid = np.linspace(opts["kmin"], opts["kmax"], opts["points"])
    if opts["resummed"]:
        profile = trace.rho_resummed(pot, classes, k_grid, eta=opts["eta"], domain=opts["domain"])
    else:
        profile = trace.rho_trace(pot, classes, opts["nu_max"], k_grid,
                                  eta=opts["eta"], domain=opts["domain"])
    vals = profile.values
    inner = (vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
    peaks = k_grid[1:-1][inner]
    comb = trace.newtonian_prediction(pot, max(1, int(opts["kmax"] * pot.omega1 / np.pi) + 1))
    comb = comb[(comb >= opts["kmin"]) & (comb <= opts["kmax"])]
    _write_table(opts, "trace", {"k": k_grid, "rho": vals}, meta={"truncation": profile.truncation})
    if opts["report"]:
        nearest = [float(np.min(np.abs(comb - p))) if len(comb) else math.inf for p in peaks]
        _write_text(opts["report"], _json_text({
            "kind": "trace-peaks",
            "density_maxima": peaks.tolist(),
            "newtonian_comb": comb.tolist(),
            "maxima_to_comb_distance": nearest,
        }))


def _read_roots_csv(path: str) -> np.ndarray:
    ks = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                if "k" not in header:
                    raise ValueError(f"roots file {path!r} has no 'k' column")
                idx = header.index("k")
                continue
            ks.append(float(parts[idx]))
    if not ks:
        raise ValueError(f"roots file {path!r} holds no roots")
    return np.asarray(ks)


@main.command("fourier")
@_step_options
@click.option("--roots", "roots_path", type=click.Path(), default=None,
              help="CSV of precomputed roots (any file with a 'k' column).")
@click.option("--kmax", type=float, default=None,
              help="Compute roots up to here when --roots is not given.")
@click.option("--smin", type=float, default=0.2, show_default=True)
@click.option("--smax", type=float, default=10.0, show_default=True)
@click.option("--ds", type=float, default=None,
              help="Action grid step (default pi / (4 k_max)).")
@click.option("--threshold", type=float, default=0.05, show_default=True,
              help="Peak threshold as a fraction of the root count.")
@click.option("--max-length", type=int, default=7, show_default=True,
              help="Orbit code length for the candidate action set.")
@click.option("--report", type=click.Path(), default=None,
              help="Also write the JSON peak-match report here.")
@_common
@click.pass_context
@_guard
def fourier_cmd(ctx, **opts):
    """Transform the level sequence and match |F(s)| peaks to orbit actions."""
    opts = _apply_config(ctx, opts)
    if opts["smin"] <= 0 or opts["smax"] <= opts["smin"]:
        raise ValueError("need 0 < smin < smax")
    if opts["ds"] is not None and not 0 < opts["ds"] < math.inf:
        raise ValueError(f"ds must be finite and positive, got {opts['ds']!r}")
    pot = build_potential(opts["b"], opts["lam"]) \
        if opts["b"] is not None and opts["lam"] is not None else None
    if opts["roots_path"]:
        roots = _read_roots_csv(opts["roots_path"])
    else:
        if pot is None or opts["kmax"] is None:
            raise ValueError("--roots or (--b, --lambda, --kmax) is required")
        roots = spectrum.find_roots(pot, opts["kmax"]).roots
        if not len(roots):
            raise ValueError(f"no level lies below k_max = {opts['kmax']!r}")
    k_top = float(roots.max())
    ds = opts["ds"] if opts["ds"] is not None else analysis.default_s_spacing(k_top)
    s_grid = np.arange(opts["smin"], opts["smax"] + ds, ds)
    profile = analysis.fourier_transform(roots, s_grid)
    peaks = analysis.detect_peaks(profile, opts["threshold"])
    tol = analysis.default_tolerance(k_top)
    report = None
    if pot is not None:
        codes = orbits.enumerate_primitive(opts["max_length"])
        recs = [orbits.orbit_record(c, pot) for c in codes]
        min_s0 = min(r.s0 for r in recs)
        spect = orbits.action_spectrum(recs, int(opts["smax"] / min_s0) + 1, opts["smax"] + tol)
        report = analysis.match_peaks(peaks, [s for s, _ in spect], tol)
    _write_table(opts, "fourier", {"s": profile.s_grid, "absF": profile.magnitude},
                 meta={"j_roots": profile.j_roots, "k_max": profile.k_max})
    if opts["report"]:
        if report is None:
            raise ValueError("--report needs --b and --lambda for the candidate actions")
        _write_text(opts["report"], _json_text({
            "kind": "fourier-peaks",
            "tolerance": report.tolerance,
            "matched_fraction": report.matched_fraction,
            "worst_residual": report.worst_residual,
            "peaks": [
                {"s": p, "action": (None if math.isnan(a) else a),
                 "residual": (None if math.isinf(rsd) else rsd)}
                for p, a, rsd in report.pairs
            ],
        }))


@main.command("graph-check")
@_step_options
@_chain_options
@click.option("--kmax", type=float, default=100.0, show_default=True)
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--nmax", type=int, default=12, show_default=True)
@click.option("--roots", "n_roots", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@_out_and_config
@click.pass_context
@_guard
def graph_check_cmd(ctx, **opts):
    """Verify unitarity, odd traces, trace sums and quantization; report in JSON."""
    opts = _apply_config(ctx, opts)
    pot = _potential_from(opts)
    if not 0 < opts["kmax"] < math.inf:
        raise ValueError(f"kmax must be finite and positive, got {opts['kmax']!r}")
    for flag, value in (("samples", opts["samples"]), ("nmax", opts["nmax"]),
                        ("roots", opts["n_roots"])):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value!r}")
    rng = np.random.default_rng(opts["seed"])
    ks = rng.uniform(0.0, opts["kmax"], opts["samples"])
    unit_dev = 0.0
    odd_dev = 0.0
    word_dev = 0.0
    is_step = isinstance(pot, ScaledStepPotential)
    for k in ks:
        S = graph.build_smatrix(pot, k)
        unit_dev = max(unit_dev, float(np.max(np.abs(S.conj().T @ S - np.eye(S.shape[0])))))
        power = np.eye(S.shape[0], dtype=complex)
        traces = []
        for _ in range(2 * opts["nmax"] + 1):
            power = power @ S
            traces.append(complex(np.trace(power)))
        odd_dev = max(odd_dev, max(abs(traces[m]) for m in range(0, len(traces), 2)))
        if is_step:
            for n in range(1, opts["nmax"] + 1):
                word_dev = max(word_dev, abs(traces[2 * n - 1] - graph.orbit_trace_sum(pot, k, n)))
    k_top = (opts["n_roots"] + 1.5) * np.pi / pot.total_length
    roots = spectrum.find_roots(pot, k_top).roots[:opts["n_roots"]]
    det_dev = float(np.max(np.abs(graph.det_one_minus_s(pot, roots)))) if len(roots) else 0.0
    checks = {
        "unitarity": {"max_deviation": unit_dev, "tolerance": 1e-12},
        "odd_traces": {"max_deviation": odd_dev, "tolerance": 1e-12},
        "det_at_roots": {"max_deviation": det_dev, "tolerance": 1e-8, "roots": len(roots)},
    }
    if is_step:
        checks["trace_word_sums"] = {"max_deviation": word_dev, "tolerance": 1e-10}
    for entry in checks.values():
        entry["ok"] = bool(entry["max_deviation"] < entry["tolerance"])
    _write_text(opts["out"], _json_text({"kind": "graph-check", "checks": checks}))
    if not all(entry["ok"] for entry in checks.values()):
        raise ContractFailure(
            "graph oracle deviations exceed tolerances: "
            + ", ".join(name for name, entry in checks.items() if not entry["ok"])
        )


@main.command("identity")
@click.option("--m", "m_single", type=int, default=None, help="Verify one half-length M.")
@click.option("--max-m", type=int, default=None, help="Verify every M up to here.")
@click.option("--poisson", "poisson_lam", type=float, default=None,
              help="Also check the equal-weight geometry at this lambda.")
@_common
@click.pass_context
@_guard
def identity_cmd(ctx, **opts):
    """Verify the exact cyclic-word sum rules in rational arithmetic."""
    opts = _apply_config(ctx, opts)
    if opts["m_single"] is None and opts["max_m"] is None:
        raise ValueError("one of --m or --max-m is required")
    ms = [opts["m_single"]] if opts["m_single"] is not None else list(range(1, opts["max_m"] + 1))
    failures = []
    records = []
    for m in ms:
        sums = combinatorics.binomial_sums(m)
        coeffs, poly_ok = combinatorics.sum_rule_polynomial(sums)
        row_ok = all(s == math.comb(m, i) for i, s in enumerate(sums))
        ok = poly_ok and row_ok
        if not ok:
            failures.append(m)
        records.append((m, sums, coeffs, ok))
    poisson_report = None
    if opts["poisson_lam"] is not None:
        poisson_report = combinatorics.poisson_special_case_check(opts["poisson_lam"])
        if not poisson_report.ok:
            failures.append("poisson")
    if opts["fmt"] == "json":
        payload = {
            "kind": "identity",
            "results": [
                {"M": m, "beta_sums": [str(s) for s in sums],
                 "polynomial": [str(c) for c in coeffs], "ok": ok}
                for m, sums, coeffs, ok in records
            ],
        }
        if poisson_report is not None:
            payload["poisson"] = {
                "lambda": poisson_report.lam, "b": poisson_report.b,
                "max_root_deviation": poisson_report.max_root_deviation,
                "max_action_deviation": poisson_report.max_action_deviation,
                "ok": poisson_report.ok,
            }
        _write_text(opts["out"], _json_text(payload))
    else:
        lines = []
        for m, sums, coeffs, ok in records:
            lines.append(f"M={m}")
            lines.append("  beta sums: " + ", ".join(str(s) for s in sums))
            lines.append("  binomial : " + ", ".join(str(math.comb(m, i)) for i in range(m + 1)))
            lines.append("  P(x) coefficients: " + ", ".join(str(c) for c in coeffs))
            lines.append(f"  {'PASS' if ok else 'FAIL'}")
        if poisson_report is not None:
            lines.append(
                f"poisson lambda={_fmt(poisson_report.lam)} b={_fmt(poisson_report.b)} "
                f"root_dev={_fmt(poisson_report.max_root_deviation)} "
                f"action_dev={_fmt(poisson_report.max_action_deviation)} "
                f"{'PASS' if poisson_report.ok else 'FAIL'}"
            )
        _write_text(opts["out"], "\n".join(lines) + "\n")
    if failures:
        raise ContractFailure(f"identity verification failed for {failures!r}")


if __name__ == "__main__":
    main()
