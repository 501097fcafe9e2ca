"""End-to-end checks of the command-line interface and its artifacts."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from oracles import orbit_rows
from raysplit import analysis, cli, graph, orbits, spectrum
from raysplit.cli import main
from raysplit.model import build_nstep

STEP = ["--b", "0.7", "--lambda", "0.5"]
CHAIN3 = ["--breakpoints", "0,0.3,0.6,1", "--lambdas", "0,0.5,0.75"]


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class Runner:
    """Runs main(args) in this process with stdout and stderr captured."""

    def invoke(self, command, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                command(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return Runner()


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")][1:]


def test_spectrum_csv_shape(runner):
    res = runner.invoke(main, ["spectrum", *STEP, "--kmax", "20"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# schema_version=3 kind=spectrum"
    assert lines[1] == "n,k,E,residual"
    rows = data_rows(res.stdout)
    assert len(rows) == 5
    first = rows[0].split(",")
    assert first[0] == "1"
    assert first[1] == "3.25522256931717"      # 15 significant digits
    assert float(first[3]) < 1e-10
    assert any(l.startswith("# max_staircase_deviation=") for l in lines)


def test_spectrum_json_schema(runner):
    res = runner.invoke(main, ["spectrum", *STEP, "--kmax", "20", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["schema_version"] == 3
    assert payload["kind"] == "spectrum"
    assert len(payload["roots"]) == 5
    assert payload["roots"][0]["k"] == pytest.approx(3.25522256931717, abs=1e-12)
    assert payload["completeness"]["max_staircase_deviation"] <= 1.5


def test_spectrum_output_is_reproducible(runner):
    args = ["spectrum", *STEP, "--kmax", "60"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.stdout == b.stdout
    assert "\r" not in a.stdout


def test_spectrum_chain_flags(runner):
    res = runner.invoke(
        main,
        ["spectrum", "--breakpoints", "0,0.3,0.6,1", "--lambdas", "0,0.5,0.75",
         "--kmax", "20"],
    )
    assert res.exit_code == 0
    rows = data_rows(res.stdout)
    assert len(rows) == 4
    assert float(rows[0].split(",")[1]) == pytest.approx(4.32791598392805, abs=1e-9)


def test_spectrum_five_region_chain_is_complete(runner):
    # a valid chain whose staircase deviation (1.534) exceeds the step's 1.5
    # but not its own bound 1 + (5 - 1) / 2
    res = runner.invoke(main, ["spectrum", "--breakpoints", "0,0.3805,0.3905,0.7133,0.7979,1",
                               "--lambdas", "0.6119,0.9401,0.9907,0.723,0.808", "--kmax", "300"])
    assert res.exit_code == 0, res.output
    assert len(data_rows(res.stdout)) == 38
    assert "# staircase_tolerance=3" in res.stdout.splitlines()


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "0.1.0" in res.stdout


def plain(value):
    """A payload value as json.dumps takes it: arrays as lists, record columns as dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, cli._Records):
        return [dict(zip(value, row)) for row in zip(*map(plain, value.values()))]
    return list(value) if isinstance(value, range) else value


def dumps_oracle(payload):
    """The JSON artifact as the plain (pure-Python) json.dumps path writes it."""
    payload = {key: plain(value) for key, value in payload.items()}
    return json.dumps({"schema_version": 3, **payload}, indent=2, sort_keys=True) + "\n"


def json_text(payload):
    return "".join(cli._json_text(payload))


@pytest.fixture()
def json_payloads(monkeypatch):
    """Check every payload the CLI encodes against dumps_oracle; list them."""
    seen = []
    encode = cli._json_text

    def checked(payload):
        text = "".join(encode(payload))
        assert text == dumps_oracle(payload)
        seen.append(payload)
        return [text]

    monkeypatch.setattr(cli, "_json_text", checked)
    return seen


@pytest.mark.parametrize("args, records", [
    (["spectrum", *STEP, "--kmax", "30"], "roots"),
    (["orbits", *STEP, "--max-length", "6"], "orbits"),
    (["trace", "--b", "0.7", "--lambda", "0.98", "--kmin", "2", "--kmax", "20",
      "--points", "50"], None),
    (["fourier", *STEP, "--kmax", "200"], None),
    (["spectrum", "--breakpoints", "0,0.3,0.6,1", "--lambdas", "0,0.5,0.75", "--kmax", "30"],
     "roots"),
    (["identity", "--max-m", "4", "--poisson", "0.5"], "results"),
])
def test_json_and_csv_hold_the_same_table(runner, json_payloads, tmp_path, args, records):
    # every subcommand in both formats; reports must not depend on --format
    outs, reports = {}, []
    for fmt in ("csv", "json"):
        extra = []
        if args[0] in ("trace", "fourier"):
            reports.append(tmp_path / f"report-{fmt}.json")
            extra = ["--report", str(reports[-1])]
        res = runner.invoke(main, args + ["--format", fmt] + extra)
        assert res.exit_code == 0, res.output
        outs[fmt] = res.stdout
    csv, doc = outs["csv"], json.loads(outs["json"])
    assert doc["kind"] in [payload["kind"] for payload in json_payloads]
    assert len({path.read_text() for path in reports}) <= 1
    if records == "results":
        sums = [l.split(": ", 1)[1] for l in csv.splitlines() if l.startswith("  beta sums")]
        assert sums == [", ".join(r["beta_sums"]) for r in doc["results"]]
        return
    header = [l for l in csv.splitlines() if not l.startswith("#")][0].split(",")
    if records is None:
        values = list(zip(*(doc[name] for name in header)))
    else:
        values = [[rec[name] for name in header] for rec in doc[records]]
    fields = [[v if isinstance(v, str) else f"{v:.15g}" for v in row] for row in values]
    assert len(fields) > 0
    assert fields == [row.split(",") for row in data_rows(csv)]


def test_unknown_flag_is_usage_error(runner):
    res = runner.invoke(main, ["spectrum", "--no-such-flag", "1"])
    assert res.exit_code == 2
    # the graph-check report is JSON only
    res = runner.invoke(main, ["graph-check", *STEP, "--format", "json"])
    assert res.exit_code == 2


def test_invalid_range_exit_code_and_json(runner):
    res = runner.invoke(main, ["spectrum", "--b", "1.7", "--lambda", "0.5"])
    assert res.exit_code == 3
    err = json.loads(res.stderr)
    assert err["error"]["type"] == "invalid-parameter"
    assert "b must lie in (0, 1)" in err["error"]["message"]


def test_io_failure_exit_code(runner, tmp_path):
    res = runner.invoke(
        main,
        ["spectrum", *STEP, "--kmax", "10", "--out", str(tmp_path / "no" / "x.csv")],
    )
    assert res.exit_code == 4
    assert json.loads(res.stderr)["error"]["type"] == "io-failure"


def test_missing_potential_flags(runner):
    res = runner.invoke(main, ["spectrum", "--kmax", "10"])
    assert res.exit_code == 3


def test_config_file_supplies_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.7, "lambda": 0.5, "kmax": 20}))
    via_cfg = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    direct = runner.invoke(main, ["spectrum", *STEP, "--kmax", "20"])
    assert via_cfg.exit_code == 0
    assert via_cfg.stdout == direct.stdout
    # explicit flags win over config values
    override = runner.invoke(main, ["spectrum", "--config", str(cfg), "--kmax", "8"])
    assert len(data_rows(override.stdout)) == 2
    # a config value that a flag overrides is not read, so it need not convert
    cfg.write_text(json.dumps({"b": 0.7, "lambda": 0.5, "kmax": "x"}))
    unread = runner.invoke(main, ["spectrum", "--config", str(cfg), "--kmax", "8"])
    assert (unread.exit_code, unread.stdout) == (0, override.stdout)


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 0.7, "lambda": 0.5, "bogus": 1}))
    res = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert res.exit_code == 3
    assert "bogus" in json.loads(res.stderr)["error"]["message"]


@pytest.mark.parametrize("args, config, flags", [
    (["spectrum"], {"b": 0.7, "lambda": 0.5, "kmax": "20"}, [*STEP, "--kmax", "20"]),
    (["orbits", *STEP], {"max-length": "4"}, ["--max-length", "4"]),
    (["trace", *STEP, "--kmax", "5", "--points", "50"], {"resummed": "no"}, []),
])
def test_config_values_convert_like_flags(runner, tmp_path, args, config, flags):
    # strings go through the option's type: "20" is a float, "no" is False
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    via_cfg = runner.invoke(main, [*args, "--config", str(cfg)])
    direct = runner.invoke(main, [*args, *flags])
    assert via_cfg.exit_code == 0, via_cfg.stderr
    assert direct.exit_code == 0
    assert via_cfg.stdout == direct.stdout


@pytest.mark.parametrize("command, key, value", [
    ("spectrum", "kmax", "fifty"), ("trace", "resummed", "maybe"), ("spectrum", "b", [0.7]),
])
def test_config_value_of_the_wrong_type_exits_three(runner, tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    res = runner.invoke(main, [command, "--config", str(cfg)])
    assert res.exit_code == 3
    error = json.loads(res.stderr)["error"]
    assert error["type"] == "invalid-parameter"
    assert error["message"].startswith(f"config key {key!r}: ")


def test_orbits_table_by_length(runner):
    res = runner.invoke(main, ["orbits", *STEP, "--max-length", "7"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# schema_version=3 kind=orbits"
    assert lines[1] == "code,length,nu,nL,nR,sigma,tau2,sign,S0"
    rows = data_rows(res.stdout)
    assert len(rows) == 41
    assert rows[0].split(",")[0] == "R"        # shortest action first


def test_orbits_table_by_count(runner):
    res = runner.invoke(main, ["orbits", *STEP, "--count", "43"])
    rows = data_rows(res.stdout)
    assert len(rows) == 43
    assert {r.split(",")[0] for r in rows[:41]} == {
        r.split(",")[0]
        for r in data_rows(runner.invoke(main, ["orbits", *STEP, "--max-length", "7"]).stdout)
    }
    assert all(int(r.split(",")[1]) == 8 for r in rows[41:])


@pytest.mark.parametrize("args", [
    ["orbits", *STEP, "--count", "100000000"],
    ["orbits", *STEP, "--max-length", "30"],
    # trace and fourier count orbit classes instead of listing orbits: only the
    # kernel's length cap applies to them
    ["fourier", *STEP, "--kmax", "10", "--max-length", "33"],
])
def test_oversized_orbit_table_fails_at_once(runner, args):
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert time.perf_counter() - start < 5.0   # unbounded, this ran for minutes
    assert res.exit_code == 3
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "invalid-parameter"
    if args[0] == "fourier":
        assert err["message"] == "max_length must lie in [1, 32], got 33"
    else:
        assert "more than the 131072" in err["message"]


def test_trace_artifacts(runner, tmp_path):
    out = tmp_path / "trace.csv"
    rep = tmp_path / "peaks.json"
    res = runner.invoke(
        main,
        ["trace", *STEP, "--kmin", "2", "--kmax", "10", "--points", "300",
         "--max-length", "5", "--nu-max", "8", "--eta", "0.05",
         "--out", str(out), "--report", str(rep)],
    )
    assert res.exit_code == 0
    rows = data_rows(out.read_text())
    assert len(rows) == 300
    payload = json.loads(rep.read_text())
    assert payload["schema_version"] == 3
    assert payload["density_maxima"]
    assert payload["newtonian_comb"]
    assert len(payload["maxima_to_comb_distance"]) == len(payload["density_maxima"])


def test_trace_report_without_comb_teeth_is_valid_json(runner, tmp_path):
    # no tooth of the comb lies in [kmin, kmax]: each distance is null, as RFC 8259 allows
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    rep = tmp_path / "r.json"
    res = runner.invoke(main, ["trace", *STEP, "--kmin", "1", "--kmax", "1.4", "--points", "50",
                               "--report", str(rep)])
    assert res.exit_code == 0, res.output
    payload = json.loads(rep.read_text(), parse_constant=no_constants)
    assert payload["newtonian_comb"] == []
    assert payload["density_maxima"]
    assert payload["maxima_to_comb_distance"] == [None] * len(payload["density_maxima"])


def test_trace_sums_orbits_past_the_table_cap(runner):
    res = runner.invoke(main, ["trace", *STEP, "--max-length", "24", "--resummed",
                               "--points", "50", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["truncation"] == "1465020 primitive orbits, resummed"
    res = runner.invoke(main, ["trace", *STEP, "--max-length", "33"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"]["message"] == "max_length must lie in [1, 32], got 33"
    res = runner.invoke(main, ["orbits", *STEP, "--max-length", "21"])
    assert res.exit_code == 3
    assert "more than the 131072" in json.loads(res.stderr)["error"]["message"]


@pytest.mark.parametrize("args, message", [
    (["fourier", *STEP, "--kmax", "100", "--ds", "0"], "ds must be finite and positive, got 0.0"),
    (["fourier", *STEP, "--kmax", "100", "--ds", "-1"], "ds must be finite and positive, got -1.0"),
    (["fourier", *STEP, "--kmax", "100", "--ds", "nan"], "ds must be finite and positive, got nan"),
    (["fourier", *STEP, "--kmax", "100", "--ds", "inf"], "ds must be finite and positive, got inf"),
    (["orbits", *STEP, "--count", "0"], "count must be >= 1, got 0"),
    (["orbits", *STEP, "--count", "-1"], "count must be >= 1, got -1"),
    (["trace", *STEP, "--eta", "-1"], "eta must be finite and >= 0, got -1.0"),
    (["trace", *STEP, "--eta", "inf"], "eta must be finite and >= 0, got inf"),
    (["trace", *STEP, "--eta", "nan", "--resummed"], "eta must be finite and >= 0, got nan"),
    (["graph-check", *STEP, "--samples", "0"], "samples must be >= 1, got 0"),
    (["graph-check", *STEP, "--nmax", "0"], "nmax must be >= 1, got 0"),
    (["graph-check", *STEP, "--roots", "0"], "roots must be >= 1, got 0"),
    # an empty range of M would verify nothing
    (["identity", "--max-m", "0"], "M must lie in [1, 64], got 0"),
    # every count that sizes an array is bounded before the array is made
    (["spectrum", *STEP, "--kmax", "1e14"],
     "--kmax 100000000000000.0 admits up to 29034064404045 levels, more than 4194304"),
    (["spectrum", *CHAIN3, "--kmax", "2e7"],
     "--kmax 20000000.0 admits up to 4533575 levels, more than 4194304"),
    (["fourier", *STEP, "--kmax", "1e14", "--ds", "1"],
     "--kmax 100000000000000.0 admits up to 29034064404045 levels, more than 4194304"),
    (["graph-check", *STEP, "--roots", "100000000"], "roots must lie in [1, 4194304], got 100000000"),
    (["graph-check", *STEP, "--samples", "65537"], "samples must lie in [1, 65536], got 65537"),
    (["graph-check", *CHAIN3, "--nmax", "200"], "n_max must lie in [1, 32], got 200"),
    # a peak threshold is checked before any root is found
    (["fourier", *STEP, "--kmax", "100", "--threshold", "2"],
     "--threshold must lie in (0, 1), got 2.0"),
    (["fourier", *STEP, "--kmax", "100", "--threshold", "nan"],
     "--threshold must lie in (0, 1), got nan"),
])
def test_empty_or_meaningless_sizes_exit_three(runner, monkeypatch, args, message):
    def no_array(*args):
        raise AssertionError("a count sized an array before it was checked")

    monkeypatch.setattr(spectrum, "find_roots", no_array)
    monkeypatch.setattr(graph, "build_smatrix", no_array)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    err = json.loads(res.stderr)["error"]
    assert err == {"type": "invalid-parameter", "message": message}


def test_trace_rejects_bad_grid(runner):
    res = runner.invoke(main, ["trace", *STEP, "--kmin", "5", "--kmax", "2"])
    assert res.exit_code == 3


def test_fourier_match_report(runner, tmp_path):
    out = tmp_path / "f.csv"
    rep = tmp_path / "match.json"
    res = runner.invoke(
        main,
        ["fourier", *STEP, "--kmax", "600", "--smin", "0.2", "--smax", "6",
         "--threshold", "0.05", "--out", str(out), "--report", str(rep)],
    )
    assert res.exit_code == 0
    payload = json.loads(rep.read_text())
    assert payload["matched_fraction"] == 1.0
    assert payload["peaks"]
    assert payload["worst_residual"] < payload["tolerance"]
    header = out.read_text().splitlines()
    assert header[0] == "# schema_version=3 kind=fourier"
    assert header[1] == "s,absF"


def test_fourier_reads_roots_file(runner, tmp_path):
    spec_csv = tmp_path / "roots.csv"
    res = runner.invoke(
        main, ["spectrum", *STEP, "--kmax", "300", "--out", str(spec_csv)]
    )
    assert res.exit_code == 0
    res = runner.invoke(
        main,
        ["fourier", "--roots", str(spec_csv), "--smin", "1.0", "--smax", "3.0"],
    )
    assert res.exit_code == 0
    rows = data_rows(res.stdout)
    assert rows
    s_vals = [float(r.split(",")[0]) for r in rows]
    assert s_vals[0] >= 1.0 and s_vals[-1] <= 3.0 + 0.1


def test_graph_check_passes(runner):
    res = runner.invoke(
        main,
        ["graph-check", *STEP, "--kmax", "40", "--samples", "10", "--nmax", "5",
         "--roots", "10"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    checks = payload["checks"]
    assert set(checks) >= {"unitarity", "odd_traces", "det_at_roots", "trace_word_sums"}
    assert all(entry["ok"] for entry in checks.values())


def test_graph_check_caps_word_powers_before_any_matrix(runner, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("S(k) was built")

    monkeypatch.setattr(graph, "build_smatrix", no_matrix)
    res = runner.invoke(main, ["graph-check", *STEP, "--nmax", "33"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"]["message"] == "n_max must lie in [1, 32], got 33"


def test_graph_check_chain_skips_word_sums(runner):
    # the orbit picture is that of a single step; a two-region chain is one
    res = runner.invoke(
        main,
        ["graph-check", "--breakpoints", "0,0.3,0.6,1", "--lambdas", "0,0.5,0.75",
         "--kmax", "30", "--samples", "5", "--nmax", "4", "--roots", "5"],
    )
    assert res.exit_code == 0
    assert "trace_word_sums" not in json.loads(res.stdout)["checks"]


@pytest.mark.parametrize("args", [
    ["spectrum", "--kmax", "1e3"],
    ["spectrum", "--kmax", "1e3", "--format", "json"],
    ["graph-check"],
], ids=["spectrum-csv", "spectrum-json", "graph-check"])
def test_step_is_the_two_region_chain(runner, args):
    # --b/--lambda and the chain spelling of the same step write the same bytes
    step = runner.invoke(main, [*args, *STEP])
    chain = runner.invoke(main, [*args, "--breakpoints", "0,0.7,1", "--lambdas", "0,0.5"])
    assert step.exit_code == chain.exit_code == 0, step.output + chain.output
    assert step.stdout == chain.stdout
    if args[0] == "graph-check":
        assert json.loads(step.stdout)["checks"]["trace_word_sums"]["ok"]


@pytest.mark.parametrize("lambdas", ["0.3,0.8", "0.8,0.3"], ids=["r-positive", "r-negative"])
def test_graph_check_trace_formula_on_two_region_chains(runner, lambdas):
    # a damped first region (lambda_1 != 0), and an interface reflection
    # coefficient r = +-0.303 of either sign: the orbit picture needs only l1, l2, r, t
    res = runner.invoke(main, ["graph-check", "--breakpoints", "0,0.6,1", "--lambdas", lambdas])
    assert res.exit_code == 0, res.output
    word_sums = json.loads(res.stdout)["checks"]["trace_word_sums"]
    assert word_sums["ok"] and word_sums["max_deviation"] < 1e-11


def test_graph_check_never_loads_numpy_random(tmp_path):
    # the sample wavenumbers come from the standard library's random.Random(seed)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nfrom raysplit.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "print('numpy.random' in sys.modules)")
    for geometry in (STEP, CHAIN3):
        res = subprocess.run([sys.executable, "-c", code, "graph-check", *geometry,
                              "--out", str(tmp_path / "check.json")],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout == "False\n"
        checks = json.loads((tmp_path / "check.json").read_text())["checks"]
        assert all(entry["ok"] for entry in checks.values())


def modules_after(tmp_path, args):
    """The layers of raysplit, and numpy, loaded by a fresh interpreter
    importing raysplit.cli and, for nonempty args, running that command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys\nfrom raysplit.cli import main\n"
            "if sys.argv[1:]:\n    main(sys.argv[1:], standalone_mode=False)\n"
            "print(' '.join(sorted(sys.modules)))")
    argv = [*args, "--out", str(tmp_path / "out")] if args else []
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    return {name.removeprefix("raysplit.") for name in res.stdout.split()
            if name == "numpy" or name.startswith("raysplit.")}


@pytest.mark.parametrize("args, loaded", [
    ([], {"cli", "model"}),
    (["orbits", *STEP, "--max-length", "8"], {"cli", "model", "orbits"}),
    (["identity", "--max-m", "4"], {"cli", "model", "orbits", "combinatorics"}),
    (["spectrum", *STEP], {"cli", "model", "spectrum", "numpy"}),
    # a table of one block or more is formatted by numpy
    (["spectrum", *STEP, "--kmax", "15000"], {"cli", "model", "spectrum", "numpy", "_text"}),
    (["trace", *STEP], {"cli", "model", "orbits", "trace", "numpy"}),
], ids=["import", "orbits", "identity", "spectrum", "spectrum-blocks", "trace"])
def test_each_command_loads_only_its_layers(tmp_path, args, loaded):
    assert modules_after(tmp_path, args) == loaded


def test_level_bound_is_the_weyl_estimate():
    pot = cli.build_potential(0.7, 0.5)
    k_edge = (cli._MAX_POINTS - 1.5) * math.pi / pot.total_length
    cli._check_levels(pot, k_edge * (1 - 1e-12))
    with pytest.raises(ValueError, match="more than 4194304"):
        cli._check_levels(pot, k_edge * (1 + 1e-12))


def test_identity_text_report(runner):
    res = runner.invoke(main, ["identity", "--m", "4"])
    assert res.exit_code == 0
    assert "1, 4, 6, 4, 1" in res.stdout
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_identity_at_the_default_cap(runner):
    res = runner.invoke(main, ["identity", "--m", "13"])
    assert res.exit_code == 0
    assert "  beta sums: " + ", ".join(str(math.comb(13, i)) for i in range(14)) in res.stdout
    assert "  P(x) coefficients: 1, " + ", ".join(["0"] * 13) in res.stdout
    assert "PASS" in res.stdout


def test_identity_json_and_poisson(runner):
    res = runner.invoke(
        main, ["identity", "--max-m", "3", "--poisson", "0.5", "--format", "json"]
    )
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert [r["M"] for r in payload["results"]] == [1, 2, 3]
    assert all(r["ok"] for r in payload["results"])
    assert payload["poisson"]["ok"]
    assert payload["poisson"]["b"] == pytest.approx(
        math.sqrt(0.5) / (1 + math.sqrt(0.5)), abs=1e-12
    )


def test_identity_requires_a_mode(runner):
    res = runner.invoke(main, ["identity"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args, config, message", [
    (["identity", "--m", "5", "--max-m", "7"], None, "--m and --max-m exclude each other; give one"),
    (["identity", "--m", "5"], {"max-m": 7}, "--m and --max-m exclude each other; give one"),
    (["orbits", *STEP, "--count", "5", "--max-length", "2"], None,
     "--max-length and --count exclude each other; give one"),
    (["orbits", *STEP], {"count": 5, "max-length": 2},
     "--max-length and --count exclude each other; give one"),
])
def test_flags_that_exclude_each_other_exit_three(runner, tmp_path, args, config, message):
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg)]
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == {"type": "invalid-parameter", "message": message}


def test_orbits_defaults_to_length_seven(runner):
    res = runner.invoke(main, ["orbits", *STEP])
    assert res.exit_code == 0
    assert len(data_rows(res.stdout)) == 41


@pytest.mark.parametrize("smin, smax", [
    ("nan", "10"), ("0.2", "nan"), ("0.2", "inf"), ("0", "10"), ("5", "5"), ("5", "1"),
])
def test_fourier_rejects_a_bad_action_window_before_any_root(runner, monkeypatch, smin, smax):
    def no_roots(*args):
        raise AssertionError("roots were found")

    monkeypatch.setattr(spectrum, "find_roots", no_roots)
    res = runner.invoke(main, ["fourier", *STEP, "--kmax", "100", "--smin", smin, "--smax", smax])
    assert res.exit_code == 3
    message = json.loads(res.stderr)["error"]["message"]
    assert message == (f"need 0 < --smin < --smax < inf, got --smin {float(smin)!r} "
                       f"and --smax {float(smax)!r}")


def test_fourier_rejects_a_report_without_the_step_before_any_root(runner, monkeypatch, tmp_path):
    def no_work(*args):
        raise AssertionError("roots were found or transformed")

    monkeypatch.setattr(spectrum, "find_roots", no_work)
    monkeypatch.setattr(analysis, "fourier_transform", no_work)
    roots = tmp_path / "r.csv"
    roots.write_text("n,k\n1,3.25\n2,6.5\n")
    out = tmp_path / "f.csv"
    res = runner.invoke(main, ["fourier", "--roots", str(roots), "--report",
                               str(tmp_path / "rep.json"), "--out", str(out)])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"]["message"] == (
        "--report needs --b and --lambda, or --breakpoints and --lambdas, "
        "for the candidate actions")
    assert not out.exists()


def test_fourier_without_roots_or_levels_names_both_potential_spellings(runner):
    for args in ([], [*STEP], ["--breakpoints", "0,0.7,1", "--lambdas", "0,0.5"]):
        res = runner.invoke(main, ["fourier", *args])
        assert res.exit_code == 3
        assert json.loads(res.stderr)["error"]["message"] == (
            "--roots, or --kmax with --b and --lambda or --breakpoints and --lambdas, is required")


def test_no_subcommand_forks(runner, monkeypatch, tmp_path):
    # tables of many blocks are formatted in this process, into the standard library's text
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)

    def artifact(name, *args):
        res = runner.invoke(main, [*args, "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        return (tmp_path / name).read_text(encoding="utf-8")

    step = ["spectrum", *STEP, "--kmax", "1e5"]
    csv_text = artifact("spectrum.csv", *step)
    spectrum_json = artifact("spectrum.json", *step, "--format", "json")
    fourier_json = artifact("fourier.json", "fourier", *STEP, "--kmax", "3e4", "--format", "json")
    payload = json.loads(spectrum_json)
    records, rep = payload["roots"], payload["completeness"]
    assert len(records) == 29034   # 8 blocks
    assert csv_text == (
        "# schema_version=3 kind=spectrum\nn,k,E,residual\n"
        + "".join("%d,%.15g,%.15g,%.15g\n" % (r["n"], r["k"], r["E"], r["residual"])
                  for r in records)
        + "# max_staircase_deviation=%.15g\n# staircase_tolerance=%.15g\n"
          "# rescans=%d\n# near_degenerate_count=%d\n"
        % (rep["max_staircase_deviation"], rep["tolerance"], rep["rescans"],
           len(rep["near_degenerate"])))
    for text in (spectrum_json, fourier_json):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows, cpus, error", [
    (9, 2, AssertionError("a process was forked")),   # 3 blocks
    (10, 1, AssertionError("a process was forked")),
    (10, 2, BlockingIOError(11, "Resource temporarily unavailable")),   # fork fails
])
def test_tables_without_a_helper_are_formatted_here(monkeypatch, rows, cpus, error):
    # whatever the CPU count and whether or not fork works, the rows come out of this process
    def no_fork():
        raise error

    monkeypatch.setattr(cli, "_BLOCK", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert "".join(cli._csv_rows([np.arange(rows)])) == "".join(f"{i}\n" for i in range(rows))


# 10 rows in 10, 5, 4 or 1 blocks
@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_csv_rows_do_not_depend_on_the_block_size(monkeypatch, tmp_path, block):
    rng = np.random.default_rng(5)
    columns = {
        "n": range(1, 11), "k": rng.uniform(0.0, 1e6, 10), "code": [f"w{i}" for i in range(10)],
        "m": np.arange(10), "x": [float(v) for v in rng.normal(size=10)], "ok": rng.normal(size=10) > 0,
        # residual-sized, energies up to 1e12, negatives and non-finite values
        "r": rng.uniform(0.0, 1e-17, 10), "E": rng.uniform(0.0, 1e12, 10),
        "y": np.array([-1.5, -0.0, 0.0, 1e-5, -1e15, 1e16, np.nan, np.inf, -np.inf, 0.1]),
    }
    monkeypatch.setattr(cli, "_BLOCK", block)
    # the whole table goes through Python's %, its ranges and arrays alone through numpy
    numeric = {name: columns[name] for name in ("n", "k", "m", "r", "E", "y")}
    for table in (columns, numeric):
        expected = "".join(
            ",".join(f"{v:.15g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in zip(*table.values()))
        out = tmp_path / "t.csv"
        cli._write_table({"format": "csv", "out": str(out)}, "t", table, trailer=["note=1"])
        assert out.read_text() == (f"# schema_version=3 kind=t\n{','.join(table)}\n"
                                   + expected + "# note=1\n")


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_json_and_writes_do_not_depend_on_the_block_size(monkeypatch, tmp_path, block):
    payload = {"kind": "blocks", "x": [i / 7 for i in range(10)], "names": ["é", "λ"] * 5,
               "rows": [{"i": i, "x": i / 3, "s": f"%s{i}", "ok": i % 2 == 0} for i in range(10)],
               "records": cli._Records({"k": np.arange(10) / 3, "n": range(10),
                                        "s": [f"%s{i}é" for i in range(10)],
                                        "r": np.linspace(-1e-17, 1e-17, 10),
                                        "E": np.geomspace(1.0, 1e12, 10)}),
               "numbers": cli._Records({"k": np.arange(10) / 3, "n": range(10),
                                        "m": np.arange(-5, 5)}),
               "y": np.array([-1.5, -0.0, 0.0, 1e-5, -1e15, 1e16, np.nan, np.inf, -np.inf, 0.1])}
    monkeypatch.setattr(cli, "_BLOCK", block)
    text = json_text(payload)
    assert text == dumps_oracle(payload)
    cli._write_text(str(tmp_path / "t.json"), text)
    assert (tmp_path / "t.json").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("fmt, records", [("csv", None), ("json", None), ("json", "rows")])
def test_writes_do_not_grow_with_the_table(monkeypatch, tmp_path, fmt, records):
    # the artifact goes to its file one block of rows per write, never as a whole text
    sizes = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: sizes.append(len(text)) or write(text)
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(cli, "_BLOCK", 16)
    largest = []
    for blocks in (3, 30):
        n = 16 * blocks
        columns = {"n": np.ones(n, dtype=int), "k": np.full(n, 1 / 3), "code": ["w1"] * n}
        out = tmp_path / f"{blocks}.{fmt}"
        sizes.clear()
        cli._write_table({"format": fmt, "out": str(out)}, "t", columns, records=records,
                         trailer=["note=1"])
        assert sum(sizes) == len(out.read_text()) and len(sizes) > blocks
        largest.append(max(sizes))
    assert largest[1] == largest[0]


@pytest.mark.parametrize("args, message", [
    (["fourier", *STEP, "--kmax", "100", "--ds", "1e-9"],
     "--smin 0.2 to --smax 10.0 in steps of 1e-09 (--ds, default pi / (4 k_max)) makes more "
     "than 4194304 actions"),
    # the default step pi / (4 k_top) is bounded by --kmax before any root is found
    (["fourier", *STEP, "--kmax", "1e9"],
     "--smin 0.2 to --smax 10.0 in steps of 7.853981633974483e-10 (--ds, default "
     "pi / (4 k_max)) makes more than 4194304 actions"),
    (["trace", *STEP, "--kmin", "1", "--kmax", "1e12", "--report", "r.json"],
     "the --report comb to --kmax has 290340644041 teeth, over 4194304"),
    (["trace", *STEP, "--points", str(2 ** 22 + 1)], "points must lie in [2, 4194304], got 4194305"),
    (["trace", *STEP, "--points", "1"], "points must lie in [2, 4194304], got 1"),
])
def test_oversized_grids_exit_three_before_any_work(runner, monkeypatch, args, message):
    def no_work(*args):
        raise AssertionError("work began")

    monkeypatch.setattr(spectrum, "find_roots", no_work)
    monkeypatch.setattr(orbits, "orbit_classes", no_work)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == {"type": "invalid-parameter", "message": message}


def test_fourier_action_cap_counts_the_points_of_the_grid(runner, monkeypatch):
    # np.arange(smin, smax + ds, ds) holds ceil((smax + ds - smin) / ds) points, one
    # more than (smax - smin) / ds when that is not a whole number
    cap, ds = 100, 1e-3
    monkeypatch.setattr(cli, "_MAX_POINTS", cap)
    args = ["fourier", *STEP, "--kmax", "100", "--smin", "0.2", "--ds", str(ds), "--smax"]
    smax = 0.2 + (cap - 1.5) * ds
    assert len(np.arange(0.2, smax + ds, ds)) == cap
    res = runner.invoke(main, [*args, str(smax)])
    assert res.exit_code == 0, res.output
    assert len(data_rows(res.stdout)) == cap

    def no_roots(*args):
        raise AssertionError("roots were found")

    monkeypatch.setattr(spectrum, "find_roots", no_roots)
    smax = 0.2 + (cap - 0.5) * ds
    assert len(np.arange(0.2, smax + ds, ds)) == cap + 1
    res = runner.invoke(main, [*args, str(smax)])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"]["message"].endswith(f"makes more than {cap} actions")


@pytest.mark.parametrize("text, message", [
    ("n,k\n1\n", "line 2: no number in column 'k' (field 2) of '1'"),
    ("# c\nk\n2.5\n\nabc\n", "line 5: no number in column 'k' (field 1) of 'abc'"),
])
def test_fourier_names_the_malformed_line_of_a_roots_file(runner, tmp_path, text, message):
    roots = tmp_path / "roots.csv"
    roots.write_text(text)
    res = runner.invoke(main, ["fourier", "--roots", str(roots)])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == {
        "type": "invalid-parameter", "message": f"roots file {str(roots)!r} {message}"}


@pytest.mark.parametrize("root", ["0", "-1", "nan", "inf"])
def test_fourier_rejects_a_roots_file_without_a_positive_finite_top(runner, tmp_path, root):
    roots = tmp_path / "roots.csv"
    # a positive root beside nan or inf does not make the file usable
    roots.write_text(f"k\n{root}\n" if root in ("0", "-1") else f"k\n{root}\n1.0\n")
    res = runner.invoke(main, ["fourier", "--roots", str(roots)])
    assert res.exit_code == 3
    assert res.stdout == ""
    error = json.loads(res.stderr)["error"]
    assert error["type"] == "invalid-parameter"
    assert error["message"].startswith(f"roots file {str(roots)!r}")


def test_oversized_grids_from_a_roots_file_or_without_a_report(runner, tmp_path):
    # a roots file sets k_top only once it is read; the comb is built only for --report
    roots = tmp_path / "roots.csv"
    roots.write_text("k\n1.5\n1e9\n")
    res = runner.invoke(main, ["fourier", "--roots", str(roots)])
    assert res.exit_code == 3
    assert "makes more than 4194304 actions" in json.loads(res.stderr)["error"]["message"]
    res = runner.invoke(main, ["trace", *STEP, "--kmin", "1", "--kmax", "1e12"])
    assert res.exit_code == 0
    assert len(data_rows(res.stdout)) == 2000


def test_float_formatting_is_fifteen_digits(runner):
    res = runner.invoke(main, ["spectrum", *STEP, "--kmax", "20"])
    for row in data_rows(res.stdout):
        for field in row.split(",")[1:]:
            mantissa = field.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa.lstrip("0")) <= 15


def test_csv_float_list_column_has_fifteen_digits(runner):
    # a float column that arrives as a Python list, like orbits' S0, is not printed by repr
    assert "".join(cli._csv_rows([["a", "b"], [0.1 + 0.2, 1 / 3], [1, 2]])) == (
        "a,0.3,1\nb,0.333333333333333,2\n")
    res = runner.invoke(main, ["orbits", *STEP, "--max-length", "5"])
    rows = orbit_rows(cli.build_potential(0.7, 0.5), 5)
    assert [row.split(",")[-1] for row in data_rows(res.stdout)] == [f"{r[-1]:.15g}" for r in rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.3, 0.9)])
def test_orbits_table_matches_oracle_records(runner, tmp_path, b, lam, fmt):
    # the table from Duval's integers, byte for byte the table of the recursive
    # string generator's necklaces with counts, signs and actions from their cyclic pairs
    rows = orbit_rows(cli.build_potential(b, lam), 16)
    sizes = [("--max-length", str(n), [r for r in rows if r[1] <= n]) for n in range(1, 17)]
    sizes += [("--count", str(n), rows[:n]) for n in (1, 43, 500)]
    for flag, size, table in sizes:
        columns = dict(zip(["code", "length", "nu", "nL", "nR", "sigma", "tau2", "sign", "S0"],
                           map(list, zip(*table))))
        expected = tmp_path / "expected"
        cli._write_table({"format": fmt, "out": str(expected)}, "orbits", columns, records="orbits")
        res = runner.invoke(main, ["orbits", "--b", str(b), "--lambda", str(lam), flag, size,
                                   "--format", fmt])
        assert res.exit_code == 0, res.output
        assert res.stdout == expected.read_text(), (flag, size)


@pytest.mark.parametrize("payload", [
    {"kind": "records", "rows": [
        {"i": 1, "x": 0.1, "s": "a,b", "ok": True, "none": None},
        {"i": -2, "x": 1e300, "s": "", "ok": False, "none": None},
        {"i": 2 ** 70, "x": -0.0, "s": 'q"\\%s', "ok": True, "none": 5e-324},
    ]},
    {"kind": "non-finite", "x": [math.nan, math.inf, -math.inf, 1.5],
     "rows": [{"a": math.nan, "b": -math.inf}, {"a": math.inf, "b": 0.0}], "top": math.nan},
    {"kind": "sizes", "empty": [], "one": [2.5], "one_record": [{"k": 1}],
     "empty_records": [{}, {}], "empty_dict": {}, "nothing": None},
    {"kind": "identity", "results": [
        {"M": 1, "beta_sums": ["1", "1"], "polynomial": ["1", "0"], "ok": True},
        {"M": 2, "beta_sums": ["1", "2", "1"], "polynomial": ["1", "0", "0"], "ok": True}],
     "poisson": {"lambda": 0.5, "ok": True}},
    {"kind": "text", "names": ["é", "λ", "日本", "a\nb\tc", "%d%%", "\x00"],
     "rows": [{"ü": "ß", "%k": "%s", "line\nbreak": " "}]},
    {"kind": "irregular", "keys": [{"a": 1}, {"b": 2}], "nested": [{"a": [1, 2]}],
     "mixed": [1, [2, 3], {"c": 4}], "ints": [{1: "x"}], "tuples": [(1, 2)]},
    # numpy columns and record columns, as _write_table hands them over
    {"kind": "arrays", "empty": np.empty(0), "one": np.array([2.5]), "ints": np.arange(-1, 2),
     "flags": np.array([True, False]),
     "non-finite": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300])},
    {"kind": "columns", "empty": cli._Records({"k": np.empty(0), "n": range(0)}),
     "no_fields": cli._Records(),
     "one": cli._Records({"k": np.array([1.5]), "n": range(1, 2), "s": ["a,b"]}),
     "non-finite": cli._Records({"x": np.array([np.nan, np.inf, -np.inf]), "n": range(3)}),
     "text": cli._Records({"ü": ["ß", "%s", "日本"], "%k": [1, 2, 3], "line\nbreak": np.arange(3.0),
                           "é": [True, None, False]})},
])
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == dumps_oracle(payload)


@pytest.mark.parametrize("kind, payload", [
    ("trace-peaks", ["trace", "--b", "0.7", "--lambda", "0.98", "--kmin", "2", "--kmax", "30",
                     "--points", "400"]),
    ("fourier-peaks", ["fourier", *STEP, "--kmax", "300"]),
])
def test_report_payloads_match_json_dumps(runner, json_payloads, tmp_path, kind, payload):
    res = runner.invoke(main, payload + ["--report", str(tmp_path / "r.json")])
    assert res.exit_code == 0, res.output
    report = [p for p in json_payloads if p["kind"] == kind]
    assert report and (tmp_path / "r.json").read_text() == dumps_oracle(report[0])


def test_json_floats_read_back_bit_for_bit(runner):
    pot = cli.build_potential(0.7, 0.5)
    res = runner.invoke(main, ["spectrum", *STEP, "--kmax", "300", "--format", "json"])
    ks = np.array([rec["k"] for rec in json.loads(res.stdout)["roots"]])
    assert np.array_equal(ks, spectrum.find_roots(pot, 300.0).roots)
    res = runner.invoke(main, ["fourier", *STEP, "--kmax", "300", "--format", "json"])
    doc = json.loads(res.stdout)
    roots = spectrum.find_roots(pot, 300.0).roots
    s_grid = np.arange(0.2, 10.0 + analysis.default_s_spacing(roots.max()),
                       analysis.default_s_spacing(roots.max()))
    profile = analysis.fourier_transform(roots, s_grid)
    assert np.array_equal(doc["s"], profile.s_grid)
    assert np.array_equal(doc["absF"], profile.magnitude)


def test_fourier_without_levels_below_kmax(runner):
    res = runner.invoke(main, ["fourier", *STEP, "--kmax", "1"])
    assert res.exit_code == 3
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "invalid-parameter"
    assert err["message"] == "no level lies below k_max = 1.0"


def test_infinite_kmax_exits_three_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    for command, expected in (("spectrum", "k_max must be finite and positive, got inf"),
                              ("trace", "need 0 < kmin < kmax < inf"),
                              ("graph-check", "kmax must be finite and positive, got inf")):
        res = subprocess.run([sys.executable, "-m", "raysplit.cli", command, *STEP, "--kmax", "inf"],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 3, command
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"]["message"] == expected


def test_identity_cap_message_speaks_to_the_command_line(runner):
    res = runner.invoke(main, ["identity", "--m", "64"])
    assert res.exit_code == 0
    assert "  beta sums: " + ", ".join(str(math.comb(64, i)) for i in range(65)) in res.stdout
    res = runner.invoke(main, ["identity", "--m", "65"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"]["message"] == "M must lie in [1, 64], got 65"


# --- command-line parsing: the behaviours that hold whatever parses the flags

def _error_bytes(kind, message):
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True) + "\n"


def test_each_exit_code_and_its_stderr_bytes(runner, monkeypatch, tmp_path):
    res = runner.invoke(main, ["identity", "--m", "3"])
    assert (res.exit_code, res.stderr) == (0, "")
    monkeypatch.setattr(graph, "det_one_minus_s", lambda pot, k: np.ones(np.shape(k)))
    res = runner.invoke(main, ["graph-check", *STEP, "--samples", "5", "--nmax", "3",
                               "--roots", "5"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["checks"]["det_at_roots"]["ok"] is False
    assert res.stderr == _error_bytes(
        "contract-violation", "graph oracle deviations exceed tolerances: det_at_roots")
    res = runner.invoke(main, ["spectrum", "--kmax"])
    assert (res.exit_code, res.stdout) == (2, "")
    res = runner.invoke(main, ["spectrum", "--b", "1.7", "--lambda", "0.5"])
    assert res.exit_code == 3
    assert res.stderr == _error_bytes("invalid-parameter", "b must lie in (0, 1), got b=1.7")
    path = tmp_path / "no" / "x.csv"
    res = runner.invoke(main, ["spectrum", *STEP, "--kmax", "10", "--out", str(path)])
    assert res.exit_code == 4
    assert res.stderr == _error_bytes(
        "io-failure", f"[Errno 2] No such file or directory: {str(path)!r}")


@pytest.mark.parametrize("args, message", [
    (["spectrum", *STEP, "--kmax", "-1e5"], "k_max must be finite and positive, got -100000.0"),
    (["spectrum", "--breakpoints", "0,0.5,1", "--lambdas", "-0.1,0.5"],
     "lambda must lie in [0, 1), got lambdas[0]=-0.1"),
    (["trace", *STEP, "--kmin", "-1"], "need 0 < kmin < kmax < inf"),
    (["orbits", *STEP, "--count", "-5"], "count must be >= 1, got -5"),
])
def test_a_flag_takes_the_next_argument_whatever_it_starts_with(runner, args, message):
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert res.stderr == _error_bytes("invalid-parameter", message)


def test_equals_spelling_and_the_last_of_a_repeated_flag(runner):
    direct = runner.invoke(main, ["spectrum", *STEP, "--kmax", "20"])
    equals = runner.invoke(main, ["spectrum", "--b=0.7", "--lambda=0.5", "--kmax=20"])
    repeated = runner.invoke(main, ["spectrum", *STEP, "--kmax", "5", "--kmax=8", "--kmax", "20"])
    assert direct.exit_code == equals.exit_code == repeated.exit_code == 0
    assert equals.stdout == direct.stdout == repeated.stdout


@pytest.mark.parametrize("args", [
    [], ["bogus"], ["-h"], ["spectrum", "--no-such-flag", "1"], ["spectrum", "--kmax"],
    ["spectrum", *STEP, "extra"], ["spectrum", *STEP, "--kmax", "x"],
    ["orbits", *STEP, "--count", "2.5"], ["spectrum", *STEP, "--format", "xml"],
    ["trace", *STEP, "--domain", "x"], ["trace", *STEP, "--resummed=yes"],
    # abbreviations are not flags
    ["spectrum", *STEP, "--km", "5"], ["trace", *STEP, "--res"], ["identity", "--max", "3"],
], ids=["no-command", "unknown-command", "short-help", "unknown-flag", "missing-value",
        "extra-argument", "bad-float", "bad-int", "bad-format", "bad-domain",
        "value-for-a-switch", "abbreviated-kmax", "abbreviated-switch", "abbreviated-max-m"])
def test_usage_errors_exit_two_and_write_nothing_to_stdout(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr


# every flag of each command and, where it has one, its default as --help shows it
HELP = {
    "spectrum": {"--b": None, "--lambda": None, "--breakpoints": None, "--lambdas": None,
                 "--kmax": "100.0", "--format": "csv", "--out": "-", "--config": None},
    "orbits": {"--b": None, "--lambda": None, "--max-length": "7", "--count": None,
               "--format": "csv", "--out": "-", "--config": None},
    "trace": {"--b": None, "--lambda": None, "--kmin": "1.0", "--kmax": "30.0",
              "--points": "2000", "--max-length": "7", "--nu-max": "10", "--eta": "0.0",
              "--domain": "energy", "--resummed": None, "--report": None, "--format": "csv",
              "--out": "-", "--config": None},
    "fourier": {"--b": None, "--lambda": None, "--roots": None, "--kmax": None, "--smin": "0.2",
                "--smax": "10.0", "--ds": None, "--threshold": "0.05", "--max-length": "7",
                "--report": None, "--format": "csv", "--out": "-", "--config": None},
    "graph-check": {"--b": None, "--lambda": None, "--breakpoints": None, "--lambdas": None,
                    "--kmax": "100.0", "--samples": "100", "--nmax": "12", "--roots": "100",
                    "--seed": "7", "--out": "-", "--config": None},
    "identity": {"--m": None, "--max-m": None, "--poisson": None, "--format": "csv",
                 "--out": "-", "--config": None},
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_lists_every_flag_with_its_default(runner, command):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0
    text = " ".join(res.stdout.split())
    for flag, default in HELP[command].items():
        assert re.search(re.escape(flag) + r"(?![\w-])", text), flag
        if default is not None:
            pattern = re.escape(flag) + r"(?![\w-])(?:(?! --).)*?\[default: " + re.escape(default)
            assert re.search(pattern + r"\]", text), (flag, default)
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    assert all(name in res.stdout for name in HELP)


def test_version_line(runner):
    res = runner.invoke(main, ["--version"])
    assert (res.exit_code, res.stdout, res.stderr) == (0, "raysplit, version 0.1.0\n", "")


@pytest.mark.parametrize("word, on", [
    ("yes", True), ("no", False), ("true", True), ("false", False), ("1", True), ("0", False),
    ("on", True), ("off", False), ("y", True), ("n", False), ("t", True), ("f", False),
    ("Yes", True), (" OFF ", False), (True, True), (False, False),
    (1, True), (0, False),   # JSON numbers read as their digits
])
def test_config_takes_the_boolean_words(runner, tmp_path, word, on):
    args = ["trace", *STEP, "--kmax", "5", "--points", "50", "--format", "json"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resummed": word}))
    via_cfg = runner.invoke(main, [*args, "--config", str(cfg)])
    direct = runner.invoke(main, [*args, *(["--resummed"] if on else [])])
    assert via_cfg.exit_code == direct.exit_code == 0
    assert via_cfg.stdout == direct.stdout
    assert json.loads(direct.stdout)["truncation"].endswith("resummed") == on


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_dash_writes_the_bytes_of_out_file(runner, tmp_path, fmt):
    args = ["spectrum", *STEP, "--kmax", "15000", "--format", fmt]   # 4,355 roots: two blocks
    res = runner.invoke(main, args)
    path = tmp_path / f"spectrum.{fmt}"
    to_file = runner.invoke(main, [*args, "--out", str(path)])
    assert res.exit_code == to_file.exit_code == 0
    assert to_file.stdout == ""
    assert res.stdout.encode("utf-8") == path.read_bytes()
    assert len(data_rows(res.stdout) if fmt == "csv" else json.loads(res.stdout)["roots"]) > 4096


# --- one option set for the potential

@pytest.mark.parametrize("args", [
    ["orbits", "--max-length", "6"],
    ["orbits", "--count", "20", "--format", "json"],
    ["trace", "--kmin", "2", "--kmax", "10", "--points", "100"],
    ["fourier", "--kmax", "100"],
])
def test_orbit_commands_take_the_chain_spelling_of_the_step(runner, tmp_path, args):
    outs = []
    for n, geometry in enumerate((STEP, ["--breakpoints", "0,0.7,1", "--lambdas", "0,0.5"])):
        report = tmp_path / f"report{n}.json"
        extra = ["--report", str(report)] if args[0] in ("trace", "fourier") else []
        res = runner.invoke(main, [*args, *geometry, *extra])
        assert res.exit_code == 0, res.output
        outs.append((res.stdout, report.read_bytes() if extra else None))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args", [
    ["orbits"], ["trace", "--kmax", "10", "--points", "100"], ["fourier", "--kmax", "100"],
])
def test_orbit_commands_take_a_damped_first_region(runner, tmp_path, args):
    # lambda_1 != 0: the orbit picture needs only l1, l2, r and t
    geometry = ["--breakpoints", "0,0.6,1", "--lambdas", "0.3,0.8"]
    extra = ["--report", str(tmp_path / "r.json")] if args[0] != "orbits" else []
    res = runner.invoke(main, [*args, *geometry, *extra])
    assert res.exit_code == 0, res.output
    if args[0] == "orbits":
        assert len(data_rows(res.stdout)) == 41
    if args[0] == "fourier":
        assert json.loads((tmp_path / "r.json").read_text())["matched_fraction"] > 0


@pytest.mark.parametrize("args", [
    ["orbits"], ["trace"], ["fourier", "--kmax", "100", "--report", os.devnull],
])
def test_orbit_commands_reject_three_regions(runner, monkeypatch, args):
    def no_roots(*args):
        raise AssertionError("roots were found")

    monkeypatch.setattr(spectrum, "find_roots", no_roots)
    res = runner.invoke(main, [*args, *CHAIN3])
    assert res.exit_code == 3
    assert res.stderr == _error_bytes(
        "invalid-parameter", "a single step has two regions, got a potential with 3")


def test_fourier_transforms_any_chain_without_a_report(runner):
    # only the peak report reads orbit classes, so a 3-region chain's levels are
    # transformed as any others
    res = runner.invoke(main, ["fourier", *CHAIN3, "--kmax", "200", "--smin", "1",
                               "--smax", "3", "--format", "json"])
    assert res.exit_code == 0, res.output
    roots = spectrum.find_roots(build_nstep((0, 0.3, 0.6, 1), (0, 0.5, 0.75)), 200.0).roots
    payload = json.loads(res.stdout)
    assert payload["j_roots"] == len(roots) > 0
    profile = analysis.fourier_transform(roots, np.array(payload["s"]))
    assert payload["absF"] == profile.magnitude.tolist()
