"""The benchmark's tracer still finds every name it wraps or reads by name.

bench/tracer.py wraps the cli helpers _csv_text, _json_text and _write_text
and reads find_roots(...).completeness.rescans.  A rename or deletion of any
of them would otherwise show only in the benchmark self-check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEP = ["--b", "0.7", "--lambda", "0.5"]


def traced(tmp_path, name, *args):
    """Run one command under bench/tracer.py; return its exit code and summary."""
    out = tmp_path / f"{name}.trace.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(out), "--",
         *args, "--out", str(tmp_path / name)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == 0, res.stderr
    return json.loads(out.read_text())


def test_tracer_wraps_the_writers_and_reads_the_rescans(tmp_path):
    runs = {
        "cli._csv_text": traced(tmp_path, "spectrum.csv", "spectrum", *STEP, "--kmax", "10"),
        "cli._json_text": traced(tmp_path, "fourier.json", "fourier", *STEP, "--kmax", "100",
                                 "--format", "json"),
        "cli._write_text": traced(tmp_path, "identity.txt", "identity", "--m", "3"),
    }
    for helper, summary in runs.items():
        assert summary["rc"] == 0
        assert summary["spans"][helper]["calls"] >= 1, helper
    for helper in ("cli._csv_text", "cli._json_text"):
        assert "spectrum.rescans" in runs[helper]["counts"]
        assert runs[helper]["counts"]["spectrum.roots"] > 0
