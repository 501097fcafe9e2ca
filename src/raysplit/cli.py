"""Command-line front end emitting CSV/JSON artifacts.

Exit codes: 0 success, 1 a verification contract failed (details as JSON on
stderr), 2 usage errors such as unknown flags, 3 invalid parameter ranges,
4 file I/O failures.  All artifacts are deterministic: rows are emitted in a
fixed order, CSV uses LF endings, a leading "# schema_version=..." comment
and floats in 15 significant digits; JSON carries schema_version, and its
floats are the shortest repr that reads back to the same float.  Artifacts
are written to their files block by block as they are formatted, so no
whole text or per-row object list is held: a table's memory is its columns.
On Linux with 2 or more CPUs, a table of 4 blocks or more is formatted by two
processes, a forked helper taking every other block, into the same bytes.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from functools import wraps

import click
import numpy as np

from . import __version__, analysis, combinatorics, graph, orbits, spectrum, trace
from .model import ScaledStepPotential, build_nstep, build_potential

SCHEMA_VERSION = 1

EXIT_CONTRACT = 1
EXIT_RANGE = 3
EXIT_IO = 4

_BLOCK = 4096   # rows or list items formatted per block, each block one write
_HELPER_BLOCKS = 4   # blocks from which a table is formatted by two processes
_MAX_POINTS = 2 ** 22   # points of a trace grid or comb, actions of a fourier grid, or levels
_MAX_SAMPLES = 2 ** 16   # graph-check wavenumbers: 65 traces of each take about 68 MB
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
    params = {}
    for param in ctx.command.params:
        for flag in param.opts:
            params[flag.lstrip("-").replace("-", "_")] = param
    for key, value in loaded.items():
        param = params.get(key.replace("-", "_"))
        if param is None or param.name not in opts:
            raise ValueError(f"config key {key!r} is not an option of this command")
        if ctx.get_parameter_source(param.name) == click.core.ParameterSource.DEFAULT:
            try:
                opts[param.name] = param.type_cast_value(ctx, value)
            except (click.BadParameter, TypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    return opts


def _write(path: str, pieces) -> None:
    """Write an iterable of text pieces to path ('-' = stdout), each as it is made."""
    if path == "-":
        for piece in pieces:
            click.echo(piece, nl=False)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)


def _write_text(path: str, text: str) -> None:
    _write(path, (text,))


def _tolist(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or cannot tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _receive(pipe) -> str | None:
    """The next length-prefixed piece on the helper's pipe, None once the pipe has ended."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data.decode()
    return None


class _Rows:
    """Rows of equal-length columns (numpy arrays or sequences), formatted as they are iterated.

    Every _BLOCK rows become one piece of text, block(cells), cells a list per column.
    A table of _HELPER_BLOCKS blocks or more, on two or more CPUs, is split
    with one forked helper that formats the odd-numbered blocks into a pipe
    while this process formats the even ones; the pieces come out in order
    and are the same text.  A block the helper did not deliver (it crashed or
    was killed) is formatted here.
    """

    def __init__(self, columns: list, block, sep: str = "") -> None:
        self.columns, self.block, self.sep = columns, block, sep

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def _piece(self, i: int) -> str:
        cells = [_tolist(col[i:i + _BLOCK]) for col in self.columns]
        return (self.sep if i else "") + self.block(cells)

    def __iter__(self):
        starts = range(0, len(self), _BLOCK)
        pid = None
        if len(starts) >= _HELPER_BLOCKS and _cpus() >= 2:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: every block is formatted here
                os.close(read_fd)
                os.close(write_fd)
        if pid is None:
            yield from map(self._piece, starts)
            return
        if pid == 0:
            self._help(starts[1::2], read_fd, write_fd)
        os.close(write_fd)
        try:
            # the read end closes first, so a helper still writing exits on EPIPE
            with os.fdopen(read_fd, "rb") as pipe:
                for n, i in enumerate(starts):
                    piece = _receive(pipe) if n % 2 else None
                    yield self._piece(i) if piece is None else piece
        finally:
            os.waitpid(pid, 0)

    def _help(self, starts, read_fd: int, write_fd: int) -> None:
        """The helper: the pieces at starts into the pipe, length-prefixed, then os._exit.

        It never returns into its caller and never flushes inherited stdio.
        """
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                for i in starts:
                    data = self._piece(i).encode()
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)


def _template(row: str, sep: str = "", encode=list):
    """The block that fills the %-template row, once per row, with each column's encoded cells."""
    def block(columns: list) -> str:
        cells = [None] * (len(columns[0]) * len(columns))
        for j, col in enumerate(columns):
            cells[j::len(columns)] = encode(col)
        return sep.join([row] * len(columns[0])) % tuple(cells)
    return block


def _csv_rows(columns: list) -> _Rows:
    """The CSV row lines of the columns: a column of floats in 15 digits, any other by str."""
    floats = [col.dtype.kind == "f" if isinstance(col, np.ndarray)
              else all(isinstance(v, float) for v in col) for col in columns]
    return _Rows(columns, _template(",".join("%.15g" if f else "%s" for f in floats) + "\n"))


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
            block = _template(record, sep, lambda col: _json_items(col, "\n").split("\n"))
            rows = _Rows([value[k] for k in keys], block, sep)
        elif isinstance(value, np.ndarray) or (
                type(value) is list and set(map(type, value)) <= _JSON_SCALARS):
            rows = _Rows([value], lambda cells: _json_items(cells[0], sep), sep)
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
    if opts["fmt"] == "csv":
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


def _check_levels(pot, k_max: float) -> None:
    """ValueError when the levels below a finite k_max may number more than _MAX_POINTS."""
    levels = pot.total_length * k_max / math.pi + (len(pot.lengths) + 1) / 2   # Weyl bound
    if math.isfinite(k_max) and levels > _MAX_POINTS:
        raise ValueError(f"--kmax {k_max!r} admits up to {int(levels)} levels, "
                         f"more than {_MAX_POINTS}")


def _exclusive(opts: dict, name: str, flag: str, other: str, other_flag: str):
    """The value of whichever of two options excluding each other was given, else None."""
    if opts[name] is not None and opts[other] is not None:
        raise ValueError(f"{flag} and {other_flag} exclude each other; give one")
    return opts[name] if opts[name] is not None else opts[other]


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
    _check_levels(pot, opts["kmax"])
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
@click.option("--max-length", type=int, default=None,
              help="Truncate by binary code length.  [default: 7]")
@click.option("--count", type=int, default=None,
              help="Truncate to exactly this many shortest orbits instead.")
@_common
@click.pass_context
@_guard
def orbits_cmd(ctx, **opts):
    """Tabulate primitive periodic orbits with counts, signs and actions."""
    opts = _apply_config(ctx, opts)
    if _exclusive(opts, "max_length", "--max-length", "count", "--count") is None:
        opts["max_length"] = 7
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
    if not 2 <= opts["points"] <= _MAX_POINTS:
        raise ValueError(f"points must lie in [2, {_MAX_POINTS}], got {opts['points']!r}")
    teeth = int(opts["kmax"] * pot.omega1 / np.pi) + 1   # the report's comb, from k = 0 up
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
        nearest = [float(np.min(np.abs(comb - p))) if len(comb) else math.inf for p in peaks]
        _write(opts["report"], _json_text({
            "kind": "trace-peaks",
            "density_maxima": peaks,
            "newtonian_comb": comb,
            "maxima_to_comb_distance": nearest,
        }))


def _read_roots_csv(path: str) -> np.ndarray:
    ks = []
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
    ds = opts["ds"] if opts["ds"] is not None else analysis.default_s_spacing(k_top)
    if (opts["smax"] - opts["smin"]) / ds >= _MAX_POINTS:
        raise ValueError(f"--smin {opts['smin']!r} to --smax {opts['smax']!r} in steps of {ds!r} "
                         f"(--ds, default pi / (4 k_max)) makes more than {_MAX_POINTS} actions")
    return ds


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
    if not 0 < opts["smin"] < opts["smax"] < math.inf:
        raise ValueError(f"need 0 < --smin < --smax < inf, got --smin {opts['smin']!r} "
                         f"and --smax {opts['smax']!r}")
    if opts["ds"] is not None and not 0 < opts["ds"] < math.inf:
        raise ValueError(f"ds must be finite and positive, got {opts['ds']!r}")
    if opts["ds"] is not None or not opts["roots_path"] and 0 < (opts["kmax"] or 0) < math.inf:
        _action_step(opts, opts["kmax"])   # before any root: k_top <= --kmax
    pot = classes = None
    if opts["b"] is not None and opts["lam"] is not None:
        pot = build_potential(opts["b"], opts["lam"])
        classes = orbits.orbit_classes(pot, opts["max_length"])
    if opts["roots_path"]:
        roots = _read_roots_csv(opts["roots_path"])
    else:
        if pot is None or opts["kmax"] is None:
            raise ValueError("--roots or (--b, --lambda, --kmax) is required")
        _check_levels(pot, opts["kmax"])
        roots = spectrum.find_roots(pot, opts["kmax"]).roots
        if not len(roots):
            raise ValueError(f"no level lies below k_max = {opts['kmax']!r}")
    k_top = float(roots.max())
    ds = _action_step(opts, k_top)
    s_grid = np.arange(opts["smin"], opts["smax"] + ds, ds)
    profile = analysis.fourier_transform(roots, s_grid)
    peaks = analysis.detect_peaks(profile, opts["threshold"])
    tol = analysis.default_tolerance(k_top)
    report = None
    if classes is not None:
        report = analysis.match_peaks(peaks, orbits.action_spectrum(classes, opts["smax"] + tol), tol)
    _write_table(opts, "fourier", {"s": profile.s_grid, "absF": profile.magnitude},
                 meta={"j_roots": profile.j_roots, "k_max": profile.k_max})
    if opts["report"]:
        if report is None:
            raise ValueError("--report needs --b and --lambda for the candidate actions")
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
    """Verify unitarity, odd traces, the trace formula and quantization; report in JSON."""
    opts = _apply_config(ctx, opts)
    pot = _potential_from(opts)
    if not 0 < opts["kmax"] < math.inf:
        raise ValueError(f"kmax must be finite and positive, got {opts['kmax']!r}")
    for flag, value, top in (("samples", opts["samples"], _MAX_SAMPLES),
                             ("nmax", opts["nmax"], math.inf),
                             ("roots", opts["n_roots"], _MAX_POINTS)):
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
    k_top = (opts["n_roots"] + 1.5) * np.pi / pot.total_length
    roots = spectrum.find_roots(pot, k_top).roots[:opts["n_roots"]]
    det_dev = float(np.max(np.abs(graph.det_one_minus_s(pot, roots)))) if len(roots) else 0.0
    checks = {
        "unitarity": {"max_deviation": unit_dev, "tolerance": 1e-12},
        "odd_traces": {"max_deviation": odd_dev, "tolerance": 1e-12},
        "det_at_roots": {"max_deviation": det_dev, "tolerance": 1e-8, "roots": len(roots)},
    }
    if isinstance(pot, ScaledStepPotential):
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
    if _exclusive(opts, "m_single", "--m", "max_m", "--max-m") is None:
        raise ValueError("one of --m or --max-m is required")
    if opts["max_m"] is not None:
        combinatorics._check_m(opts["max_m"], combinatorics._MAX_M)
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
        _write(opts["out"], _json_text(payload))
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
