"""Command-line front end emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 a verification contract failed (details as JSON on
stderr), 2 usage errors such as unknown flags, 3 invalid parameter ranges,
4 file I/O failures.  All artifacts are deterministic: rows are emitted in a
fixed order, CSV uses LF endings, a leading "# schema_version=..." comment
and floats in 15 significant digits; JSON carries schema_version, and its
floats are the shortest repr that reads back to the same float.  Artifacts
are written to their files block by block as they are formatted, so no
whole text or per-row object list is held: a table's memory is its columns.
A table of one block (4,096 rows) or more that holds a numpy column is
formatted by numpy (raysplit._text) into the same bytes; tables of plain
lists, shorter tables and any other value go through Python's % and json.
Each subcommand imports the layers it runs in its own body, so importing this
module loads neither numpy nor any layer; `orbits` and `identity` run without
numpy.

Flags are parsed by argparse when main runs, from the table of options of the
subcommand that runs, which also reads --config files.  A flag that takes a
value takes the next argument, whatever it starts with (--kmax -1e5); no flag
is abbreviated.

A command process (main() without args) ends by freezing the collector, so the
interpreter's last collections skip numpy's objects; no output is lost, as
artifact files are closed by then and atexit and the std-stream flush still run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys

from . import __version__
from .model import ContractFailure, build_nstep, build_potential

SCHEMA_VERSION = 4

EXIT_CONTRACT = 1
EXIT_RANGE = 3
EXIT_IO = 4

_BLOCK = 4096   # rows or list items formatted per block, each block one write
_MAX_POINTS = 2 ** 22   # points of a trace grid or comb, actions of a fourier grid, or levels
_MAX_SAMPLES = 2 ** 16   # graph-check wavenumbers: 65 traces of each take about 68 MB
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _fmt(x: float) -> str:
    return f"{x:.15g}"


# the words of a switch's config value
_TRUE, _FALSE = ("1", "yes", "true", "on", "t", "y"), ("0", "no", "false", "off", "f", "n", "")


def _fail(kind, exc, code):
    print(json.dumps({"error": {"type": kind, "message": str(exc)}}, sort_keys=True),
          file=sys.stderr)
    sys.exit(code)


def _convert(kind, value):
    """A --config value as its flag reads it; JSON null stays None."""
    if value is None or kind is bool and isinstance(value, bool):
        return value
    if kind is bool:
        word = str(value).strip().lower()
        if word not in _TRUE + _FALSE:
            raise ValueError(f"{value!r} is not a valid boolean. Recognized values: "
                             + ", ".join(sorted(_TRUE + _FALSE)))
        return word in _TRUE
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, kind))}.")
        return value
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{value!r} is not a valid {'float' if kind is float else 'integer'}.")


def _apply_config(options: dict, given: dict) -> dict:
    """A command's options by name: the defaults, overridden by the --config file's
    values, which the flags given override."""
    opts = {name: default for name, (_, default, _) in options.items()}
    path = given.get("config")
    if path:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path!r} must hold a JSON object")
        for key, value in loaded.items():
            name = key.replace("-", "_")
            if name not in options:
                raise ValueError(f"config key {key!r} is not an option of this command")
            if name not in given:
                try:
                    opts[name] = _convert(options[name][0], value)
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
    return {**opts, **given}


def _write(path: str, pieces) -> None:
    """Write an iterable of text pieces to path ('-' = stdout), each as it is made."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def _write_text(path: str, text: str) -> None:
    _write(path, (text,))


def _is_array(value) -> bool:
    """Whether value is a numpy array; while numpy is not loaded, nothing is one."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _tolist(column) -> list:
    return column.tolist() if _is_array(column) else list(column)


class _Rows:
    """Rows of equal-length columns (numpy arrays or sequences), formatted as they are iterated.

    Every _BLOCK rows become one piece of text, block(cells), cells a slice per column.
    """

    def __init__(self, columns: list, block, sep: str = "") -> None:
        self.columns, self.block, self.sep = columns, block, sep

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def _piece(self, i: int) -> str:
        return (self.sep if i else "") + self.block([col[i:i + _BLOCK] for col in self.columns])

    def __iter__(self):
        return map(self._piece, range(0, len(self), _BLOCK))


def _template(row: str, sep: str = "", as_json: bool = False):
    """The block that fills the %-template row, once per row, with each column's cells,
    a %s cell by str, or as JSON as_json."""
    def block(columns: list) -> str:
        cells = [None] * (len(columns[0]) * len(columns))
        for j, col in enumerate(columns):
            cells[j::len(columns)] = (_json_items(_tolist(col), "\n").split("\n") if as_json
                                      else _tolist(col))
        return sep.join([row] * len(columns[0])) % tuple(cells)
    return block


def _block(columns: list, row: str, sep: str = "", as_json: bool = False):
    """_template's block, or numpy's for a table of _BLOCK rows or more whose columns are
    ranges and int64 or float64 arrays, one array at least: the same text, without a
    Python object per cell."""
    arrays = [col for col in columns if not isinstance(col, range)]
    if not arrays or len(columns[0]) < _BLOCK or not all(
            _is_array(col) and col.dtype.kind in "if" and col.dtype.itemsize == 8 for col in arrays):
        return _template(row, sep, as_json)
    from . import _text

    return _text.block(row, sep)


def _csv_rows(columns: list) -> _Rows:
    """The CSV row lines of the columns: a column of floats in 15 digits, any other by str."""
    floats = [col.dtype.kind == "f" if _is_array(col)
              else all(isinstance(v, float) for v in col) for col in columns]
    return _Rows(columns, _block(columns, ",".join("%.15g" if f else "%s" for f in floats) + "\n"))


def _csv_text(kind: str, header: list[str], rows: _Rows, trailer: list[str] = ()):
    """The CSV artifact in pieces: comment and header lines, row blocks, trailer notes."""
    yield f"# schema_version={SCHEMA_VERSION} kind={kind}\n" + ",".join(header) + "\n"
    yield from rows
    yield "".join(f"# {note}\n" for note in trailer)


class _Records(dict):
    """Equal-length columns, keyed by field name, that JSON lays out as a list of records."""


def _json_items(items: list, sep: str) -> str:
    """The C encoder's text of a list of scalars, unbracketed; no item holds a raw newline."""
    return json.dumps(items, separators=(sep, ":"))[1:-1]


def _json_text(payload: dict):
    """payload and schema_version as json.dumps(indent=2, sort_keys=True) writes them, in pieces.

    Top-level 1-D arrays, lists of scalars and _Records go through
    _json_items a block at a time; any other value through json.dumps.
    """
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sep = ",\n    "
    for n, (key, value) in enumerate(sorted(payload.items())):
        yield (",\n  " if n else "{\n  ") + json.dumps(key) + ": "
        if isinstance(value, _Records):
            keys = sorted(value)
            record = "{\n      " + ",\n      ".join(
                json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "\n    }"
            columns = [value[k] for k in keys]
            rows = _Rows(columns, _block(columns, record, sep, as_json=True), sep)
        elif _is_array(value) or (
                type(value) is list and set(map(type, value)) <= _JSON_SCALARS):
            rows = _Rows([value], _block([value], "%s", sep, as_json=True), sep)
        else:
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
            continue
        yield "[\n    " if rows else "[]"
        yield from rows
        yield "\n  ]" if rows else ""
    yield "\n}\n"


def _write_table(opts: dict, kind: str, columns: dict, records: str | None = None,
                 meta: dict | None = None, trailer: list[str] = ()) -> None:
    """Write equal-length columns, keyed by header name, as --format asks.

    CSV has one line per row, a column of floats in 15 significant digits,
    any other column by str, and the trailer as "# " notes after the rows.
    JSON holds the rows as objects under the key records, or one array per
    column when records is None, plus the meta fields; its floats are the
    shortest repr that reads back to the same float.
    """
    if opts["format"] == "csv":
        _write(opts["out"], _csv_text(kind, list(columns), _csv_rows([*columns.values()]), trailer))
        return
    if records is not None:
        columns = {records: _Records(columns)}
    _write(opts["out"], _json_text({"kind": kind, **columns, **(meta or {})}))


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers, got {text!r}")


def _potential_from(opts: dict):
    """Either a single step from --b/--lambda or a chain from the list flags."""
    if opts["breakpoints"] is not None or opts["lambdas"] is not None:
        if opts["breakpoints"] is None or opts["lambdas"] is None:
            raise ValueError("--breakpoints and --lambdas must be given together")
        return build_nstep(_parse_floats(opts["breakpoints"], "--breakpoints"),
                           _parse_floats(opts["lambdas"], "--lambdas"))
    if opts["b"] is None or opts["lambda"] is None:
        raise ValueError("either --b and --lambda or --breakpoints and --lambdas are required")
    return build_potential(opts["b"], opts["lambda"])


def _check_levels(pot, k_max: float) -> None:
    """ValueError when the levels below a finite k_max may number more than _MAX_POINTS."""
    levels = pot.total_length * k_max / math.pi + (len(pot.lengths) + 1) / 2   # Weyl bound
    if math.isfinite(k_max) and levels > _MAX_POINTS:
        raise ValueError(f"--kmax {k_max!r} admits up to {int(levels)} levels, "
                         f"more than {_MAX_POINTS}")


def _exclusive(opts: dict, name: str, other: str):
    """The value of whichever of two options excluding each other was given, else None."""
    if opts[name] is not None and opts[other] is not None:
        raise ValueError(f"{_flag(name)} and {_flag(other)} exclude each other; give one")
    return opts[name] if opts[name] is not None else opts[other]


# A command's options map each name (max_length for the flag --max-length, and the
# config key max-length) to (type, default, help); the type is float, int, str, bool
# for a switch, or a tuple of choices.
_POTENTIAL = {
    "b": (float, None, "Step position in (0, 1)."),
    "lambda": (float, None, "Scaling constant in [0, 1)."),
    "breakpoints": (str, None, "Region boundaries 0,...,1 of a chain."),
    "lambdas": (str, None, "Comma-separated per-region scaling constants.")}
_OUT_CONFIG = {
    "out": (str, "-", "Output path for the main artifact ('-' = stdout)."),
    "config": (str, None, "JSON file of defaults for any option of this command.")}
_COMMON = {"format": (("csv", "json"), "csv", ""), **_OUT_CONFIG}

_COMMANDS = {}   # name -> (function of the options, its options)


def _command(name: str, **options):
    def register(fn):
        _COMMANDS[name] = (fn, options)
        return fn
    return register


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@_command("spectrum", **_POTENTIAL, kmax=(float, 100.0, ""), **_COMMON)
def spectrum_cmd(opts):
    """Compute all roots up to --kmax with a completeness report."""
    from . import spectrum

    pot = _potential_from(opts)
    _check_levels(pot, opts["kmax"])
    result = spectrum.find_roots(pot, opts["kmax"])
    roots = result.roots
    residuals = abs(spectrum.secular_function(pot)(roots))
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


@_command("orbits", **_POTENTIAL,
          max_length=(int, None, "Truncate by code length.  [default: 7]"),
          count=(int, None, "Truncate to this many shortest orbits instead."), **_COMMON)
def orbits_cmd(opts):
    """Tabulate primitive periodic orbits with counts, signs and actions."""
    if _exclusive(opts, "max_length", "count") is None:
        opts["max_length"] = 7
    pot = _potential_from(opts)
    from . import orbits

    _write_table(opts, "orbits", orbits.orbit_table(pot, opts["max_length"], opts["count"]),
                 records="orbits")


@_command("trace", **_POTENTIAL, kmin=(float, 1.0, ""), kmax=(float, 30.0, ""),
          points=(int, 2000, ""), max_length=(int, 7, ""), nu_max=(int, 10, ""),
          eta=(float, 0.0, ""), domain=(("energy", "k"), "energy", ""),
          resummed=(bool, False, "Close the repetition sum into its geometric form."),
          report=(str, None, "Also write a JSON report of density peaks and the ballistic comb."),
          **_COMMON)
def trace_cmd(opts):
    """Reconstruct the level density from periodic orbits on a k grid."""
    import numpy as np

    from . import orbits, trace

    pot = _potential_from(opts)
    if not 0 < opts["kmin"] < opts["kmax"] < math.inf:
        raise ValueError("need 0 < kmin < kmax < inf")
    if not 2 <= opts["points"] <= _MAX_POINTS:
        raise ValueError(f"points must lie in [2, {_MAX_POINTS}], got {opts['points']!r}")
    teeth = int(opts["kmax"] * pot.total_length / np.pi) + 1   # the report's comb, from k = 0 up
    if opts["report"] and teeth > _MAX_POINTS:
        raise ValueError(f"the --report comb to --kmax has {teeth} teeth, over {_MAX_POINTS}")
    classes = orbits.orbit_classes(pot, opts["max_length"])
    k_grid = np.linspace(opts["kmin"], opts["kmax"], opts["points"])
    if opts["resummed"]:
        profile = trace.rho_resummed(pot, classes, k_grid, eta=opts["eta"], domain=opts["domain"])
    else:
        profile = trace.rho_trace(pot, classes, opts["nu_max"], k_grid,
                                  eta=opts["eta"], domain=opts["domain"])
    vals = profile.values
    _write_table(opts, "trace", {"k": k_grid, "rho": vals}, meta={"truncation": profile.truncation})
    if opts["report"]:
        peaks = k_grid[1:-1][(vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])]
        comb = trace.newtonian_prediction(pot, teeth)
        comb = comb[(comb >= opts["kmin"]) & (comb <= opts["kmax"])]
        nearest = [float(np.min(np.abs(comb - p))) if len(comb) else None for p in peaks]
        _write(opts["report"], _json_text({
            "kind": "trace-peaks",
            "density_maxima": peaks,
            "newtonian_comb": comb,
            "maxima_to_comb_distance": nearest,
        }))


def _read_roots_csv(path: str):
    """The 'k' column of a roots CSV as a float array."""
    from array import array

    import numpy as np

    ks = array("d")
    with open(path, "r", encoding="utf-8") as fh:
        idx = None
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if idx is None:
                if "k" not in parts:
                    raise ValueError(f"roots file {path!r} has no 'k' column")
                idx = parts.index("k")
                continue
            try:
                ks.append(float(parts[idx]))
            except (IndexError, ValueError):
                raise ValueError(f"roots file {path!r} line {n}: no number in column 'k' "
                                 f"(field {idx + 1}) of {line!r}") from None
    if not ks:
        raise ValueError(f"roots file {path!r} holds no roots")
    roots = np.asarray(ks)
    bad = roots[~np.isfinite(roots)]
    if bad.size or not roots.max() > 0.0:
        raise ValueError(f"roots file {path!r} needs finite roots, the largest positive; "
                         f"got {float(bad[0] if bad.size else roots.max())!r}")
    return roots


def _action_step(opts: dict, k_top: float) -> float:
    """--ds, or pi / (4 k_top); ValueError when --smin to --smax then takes over _MAX_POINTS."""
    from . import analysis

    ds = opts["ds"] if opts["ds"] is not None else analysis.default_s_spacing(k_top)
    # np.arange(smin, smax + ds, ds) makes ceil of this many points
    if (opts["smax"] + ds - opts["smin"]) / ds > _MAX_POINTS:
        raise ValueError(f"--smin {opts['smin']!r} to --smax {opts['smax']!r} in steps of {ds!r} "
                         f"(--ds, default pi / (4 k_max)) makes more than {_MAX_POINTS} actions")
    return ds


@_command("fourier", **_POTENTIAL,
          roots=(str, None, "CSV of roots (any file with a 'k' column)."),
          kmax=(float, None, "Compute roots up to here when --roots is not given."),
          smin=(float, 0.2, ""), smax=(float, 10.0, ""),
          ds=(float, None, "Action grid step (default pi / (4 k_max))."),
          threshold=(float, 0.05, "Peak threshold, a fraction of the roots."),
          max_length=(int, 7, "Orbit code length of the candidate actions."),
          report=(str, None, "Also write the JSON peak-match report here."),
          **_COMMON)
def fourier_cmd(opts):
    """Transform the level sequence and match |F(s)| peaks to orbit actions."""
    import numpy as np

    from . import analysis, orbits, spectrum

    stepped = any(opts[name] is not None for name in _POTENTIAL)
    if not 0 < opts["smin"] < opts["smax"] < math.inf:
        raise ValueError(f"need 0 < --smin < --smax < inf, got --smin {opts['smin']!r} "
                         f"and --smax {opts['smax']!r}")
    if not 0 < opts["threshold"] < 1:
        raise ValueError(f"--threshold must lie in (0, 1), got {opts['threshold']!r}")
    if opts["ds"] is not None and not 0 < opts["ds"] < math.inf:
        raise ValueError(f"ds must be finite and positive, got {opts['ds']!r}")
    if opts["report"] and not stepped:
        raise ValueError("--report needs --b and --lambda, or --breakpoints and --lambdas, "
                         "for the candidate actions")
    if opts["ds"] is not None or not opts["roots"] and 0 < (opts["kmax"] or 0) < math.inf:
        _action_step(opts, opts["kmax"])   # before any root: k_top <= --kmax
    orbits._check_length(opts["max_length"], "max_length")
    pot = _potential_from(opts) if stepped else None
    # only the report reads orbit classes, which need a two-region potential
    classes = orbits.orbit_classes(pot, opts["max_length"]) if opts["report"] else None
    if opts["roots"]:
        roots = _read_roots_csv(opts["roots"])
    else:
        if pot is None or opts["kmax"] is None:
            raise ValueError("--roots, or --kmax with --b and --lambda or --breakpoints and "
                             "--lambdas, is required")
        _check_levels(pot, opts["kmax"])
        roots = spectrum.find_roots(pot, opts["kmax"]).roots
        if not len(roots):
            raise ValueError(f"no level lies below k_max = {opts['kmax']!r}")
    k_top = float(roots.max())
    ds = _action_step(opts, k_top)
    s_grid = np.arange(opts["smin"], opts["smax"] + ds, ds)
    profile = analysis.fourier_transform(roots, s_grid)
    _write_table(opts, "fourier", {"s": profile.s_grid, "absF": profile.magnitude},
                 meta={"j_roots": profile.j_roots, "k_max": profile.k_max})
    if opts["report"]:
        peaks = analysis.detect_peaks(profile, opts["threshold"])
        tol = analysis.default_tolerance(k_top)
        report = analysis.match_peaks(peaks, orbits.action_spectrum(classes, opts["smax"] + tol), tol)
        _write(opts["report"], _json_text({
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


@_command("graph-check", **_POTENTIAL, kmax=(float, 100.0, ""), samples=(int, 100, ""),
          nmax=(int, 12, ""), roots=(int, 100, ""), seed=(int, 7, ""), **_OUT_CONFIG)
def graph_check_cmd(opts):
    """Verify unitarity, odd traces, the trace formula and quantization; report in JSON."""
    import numpy as np

    from . import graph, orbits, spectrum

    pot = _potential_from(opts)
    stepped = len(pot.lengths) == 2   # the orbit picture of a single step
    if stepped:   # before any array: imported later, it raises the peak RSS
        from . import trace
    if not 0 < opts["kmax"] < math.inf:
        raise ValueError(f"kmax must be finite and positive, got {opts['kmax']!r}")
    for flag, top in (("samples", _MAX_SAMPLES), ("nmax", math.inf), ("roots", _MAX_POINTS)):
        value = opts[flag]
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value!r}")
        if value > top:
            raise ValueError(f"{flag} must lie in [1, {top}], got {value!r}")
    orbits._check_length(opts["nmax"], "n_max")   # the step's orbit classes; for every potential
    rng = random.Random(opts["seed"])
    ks = np.array([rng.uniform(0.0, opts["kmax"]) for _ in range(opts["samples"])])
    unit_dev = 0.0
    for block in graph._blocks(pot, ks.size):
        S = graph.build_smatrix(pot, ks[block])
        gram = S.conj().swapaxes(-2, -1) @ S - np.eye(S.shape[-1])
        unit_dev = max(unit_dev, float(np.max(np.abs(gram))))
    traces = graph.trace_powers(pot, ks, 2 * opts["nmax"] + 1)
    odd_dev = float(np.max(np.abs(traces[0::2])))
    k_top = (opts["roots"] + 1.5) * np.pi / pot.total_length
    roots = spectrum.find_roots(pot, k_top).roots[:opts["roots"]]
    det_dev = float(np.max(np.abs(graph.det_one_minus_s(pot, roots)))) if len(roots) else 0.0
    checks = {
        "unitarity": {"max_deviation": unit_dev, "tolerance": 1e-12},
        "odd_traces": {"max_deviation": odd_dev, "tolerance": 1e-12},
        "det_at_roots": {"max_deviation": det_dev, "tolerance": 1e-8, "roots": len(roots)},
    }
    if stepped:
        formula = trace.trace_formula(pot, orbits.orbit_classes(pot, opts["nmax"]), ks)
        word_dev = float(np.max(np.abs(traces[1::2] - formula)))
        checks["trace_word_sums"] = {"max_deviation": word_dev, "tolerance": 1e-10}
    for entry in checks.values():
        entry["ok"] = bool(entry["max_deviation"] < entry["tolerance"])
    _write(opts["out"], _json_text({"kind": "graph-check", "checks": checks}))
    if not all(entry["ok"] for entry in checks.values()):
        raise ContractFailure(
            "graph oracle deviations exceed tolerances: "
            + ", ".join(name for name, entry in checks.items() if not entry["ok"])
        )


@_command("identity", m=(int, None, "Verify one half-length M."),
          max_m=(int, None, "Verify every M up to here."),
          poisson=(float, None, "Also check the equal-weight geometry at this lambda."), **_COMMON)
def identity_cmd(opts):
    """Verify the exact cyclic-word sum rules in integer arithmetic."""
    from . import combinatorics

    if _exclusive(opts, "m", "max_m") is None:
        raise ValueError("one of --m or --max-m is required")
    if opts["max_m"] is not None:
        combinatorics._check_m(opts["max_m"], combinatorics._MAX_M)
    ms = [opts["m"]] if opts["m"] is not None else list(range(1, opts["max_m"] + 1))
    results = []
    for m in ms:
        sums = combinatorics.binomial_sums(m)
        coeffs, poly_ok = combinatorics.sum_rule_polynomial(sums)
        results.append({"M": m, "beta_sums": [str(s) for s in sums],
                        "polynomial": [str(c) for c in coeffs],
                        "ok": poly_ok and all(s == math.comb(m, i) for i, s in enumerate(sums))})
    failures = [r["M"] for r in results if not r["ok"]]
    payload = {"kind": "identity", "results": results}
    if opts["poisson"] is not None:
        rep = combinatorics.poisson_special_case_check(opts["poisson"])
        payload["poisson"] = {
            "lambda": rep.lam, "b": rep.b, "max_action_deviation": rep.max_action_deviation,
            "ok": rep.ok,
        }
        if not rep.ok:
            failures.append("poisson")
    if opts["format"] == "json":
        _write(opts["out"], _json_text(payload))
    else:
        lines = []
        for r in results:
            m = r["M"]
            lines += [f"M={m}", "  beta sums: " + ", ".join(r["beta_sums"]),
                      "  binomial : " + ", ".join(str(math.comb(m, i)) for i in range(m + 1)),
                      "  P(x) coefficients: " + ", ".join(r["polynomial"]),
                      f"  {'PASS' if r['ok'] else 'FAIL'}"]
        if "poisson" in payload:
            poisson = payload["poisson"]
            lines.append(
                f"poisson lambda={_fmt(poisson['lambda'])} b={_fmt(poisson['b'])} "
                f"action_dev={_fmt(poisson['max_action_deviation'])} "
                f"{'PASS' if poisson['ok'] else 'FAIL'}"
            )
        _write_text(opts["out"], "\n".join(lines) + "\n")
    if failures:
        raise ContractFailure(f"identity verification failed for {failures!r}")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its flags only when it runs."""

    def __init__(self, options: dict, **kwargs) -> None:
        super().__init__(**kwargs)
        self.options = options

    def parse_known_args(self, args=None, namespace=None):
        for option, (kind, default, text) in self.options.items():
            if default is not None:
                text = f"{text} [default: {default}]".lstrip()
            typed = ({"action": "store_true"} if kind is bool else
                     {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            self.add_argument(_flag(option), help=text, **typed)
        self.add_argument("--help", action="help")
        return super().parse_known_args(args, namespace)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raysplit", add_help=False, allow_abbrev=False,
        description="Spectra of scaled step potentials and their periodic-orbit analysis.")
    parser.add_argument("--version", action="version", version=f"raysplit, version {__version__}")
    parser.add_argument("--help", action="help")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True,
                                     parser_class=_Subcommand)
    for name, (fn, options) in _COMMANDS.items():
        commands.add_parser(name, options=options, help=fn.__doc__, description=fn.__doc__,
                            add_help=False, allow_abbrev=False, argument_default=argparse.SUPPRESS)
    return parser


def _run(args: list[str]) -> None:
    if args and args[0] in _COMMANDS:   # join each '--flag value' as '--flag=value'
        options = _COMMANDS[args[0]][1]
        takes_value = {_flag(name) for name in options if options[name][0] is not bool}
        rest, args = iter(args[1:]), args[:1]
        for arg in rest:
            value = next(rest, None) if arg in takes_value else None
            args.append(arg if value is None else f"{arg}={value}")
    given = vars(_parser().parse_args(args))
    fn, options = _COMMANDS[given.pop("command")]
    try:
        fn(_apply_config(options, given))
    except ValueError as exc:
        _fail("invalid-parameter", exc, EXIT_RANGE)
    except OSError as exc:
        _fail("io-failure", exc, EXIT_IO)
    except ContractFailure as exc:
        _fail("contract-violation", exc, EXIT_CONTRACT)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the subcommand that args names, or as a process sys.argv[1:], freezing
    the collector after it; standalone_mode is ignored, kept for bench/tracer.py."""
    if args is not None:
        _run(list(args))
        return
    try:
        _run(sys.argv[1:])
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
