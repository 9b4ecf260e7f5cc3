"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_info():
    proc = run_cli("info")
    assert proc.returncode == 0
    assert "repro-snowflake" in proc.stdout
    assert "backends:" in proc.stdout
    assert "compiler:" in proc.stdout


def test_selftest_passes():
    proc = run_cli("selftest")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "MISMATCH" not in proc.stdout


def test_requires_a_command():
    proc = run_cli()
    assert proc.returncode != 0


def test_stats_reports_telemetry(tmp_path):
    import json

    stats = tmp_path / "stats.json"
    proc = run_cli(
        "stats", "--size", "32", "--calls", "2", "--json", str(stats)
    )
    assert proc.returncode == 0
    assert "kernel invocations" in proc.stdout
    assert "telemetry mode" in proc.stdout

    def refuse(token):
        raise AssertionError(f"bare {token} in the stats document")

    doc = json.loads(stats.read_text(), parse_constant=refuse)
    assert doc["schema"] == "snowflake-stats/1"
    assert set(doc) == {
        "schema", "mode", "counters", "timers", "kernels", "histograms",
    }
    assert doc["kernels"], "smoke kernel calls must be recorded"
    assert doc["histograms"]["kernel.call"], "latency histogram missing"
    # the kernels table is a view of the kernel.call series
    for rec in doc["histograms"]["kernel.call"]:
        k = doc["kernels"][rec["labels"]["backend"]]
        assert (k["calls"], k["seconds"]) == (rec["count"], rec["sum"])
        assert k["calls"] >= 2 and k["points"] >= 2 * 30 * 30


def test_stats_respects_off_mode():
    import os

    env = dict(os.environ, SNOWFLAKE_TELEMETRY="off", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "stats", "--size", "16",
         "--calls", "1", "--backend", "numpy"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0
    assert "telemetry is off" in proc.stdout


def test_stats_openmetrics_exposition():
    from repro.telemetry.metrics import validate_openmetrics

    proc = run_cli(
        "stats", "--size", "16", "--calls", "1", "--backend", "numpy",
        "--openmetrics",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert validate_openmetrics(proc.stdout) == []
    assert proc.stdout.endswith("# EOF\n")
    assert "snowflake_kernel_calls_total" in proc.stdout
    assert "snowflake_kernel_call_seconds_bucket" in proc.stdout


def test_top_prints_profile_table(tmp_path):
    import json

    from repro.telemetry import tracing

    out = tmp_path / "top.json"
    proc = run_cli(
        "top", "--backend", "numpy", "--size", "48", "--calls", "8",
        "--out", str(out), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "hot paths (span self time)" in proc.stdout
    assert "self_s" in proc.stdout and "share" in proc.stdout
    assert "kernel:" in proc.stdout
    assert "0 event(s) dropped" in proc.stdout
    doc = json.loads(out.read_text())
    assert tracing.validate_chrome_trace(doc) == []
    calls = [e for e in doc["traceEvents"]
             if e["ph"] == "X" and e["name"].startswith("kernel:")]
    assert len(calls) == 8

    # the sampler's knob went with the sampler
    proc = run_cli("top", "--interval", "1.0")
    assert proc.returncode == 2
    assert "--interval" in proc.stderr


def test_artifact_dir_redirects_bare_filenames(tmp_path):
    import json
    import os

    env = dict(
        os.environ,
        SNOWFLAKE_ARTIFACT_DIR=str(tmp_path / "artifacts"),
        PYTHONPATH="src",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "stats", "--size", "16",
         "--calls", "1", "--backend", "numpy", "--json", "stats_cli.json"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    redirected = tmp_path / "artifacts" / "stats_cli.json"
    assert redirected.exists()
    assert json.loads(redirected.read_text())["schema"] == "snowflake-stats/1"


def test_in_process_main():
    from repro.__main__ import main

    assert main(["selftest"]) == 0


def test_trace_smoke_covers_subsystems(tmp_path):
    import json

    out = tmp_path / "trace.json"
    proc = run_cli(
        "trace", "--smoke", "--size", "24", "--calls", "1",
        "--out", str(out), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: PASS" in proc.stdout
    from repro.telemetry import tracing

    doc = json.loads(out.read_text())
    assert tracing.validate_chrome_trace(doc) == []
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"frontend", "jit", "kernel", "dmem"} <= cats


def test_explain_names_barrier_grids():
    proc = run_cli("explain", "--size", "12", "--backend", "numpy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "forced by" in proc.stdout
    assert "RAW on x" in proc.stdout
    assert "gsrb_red" in proc.stdout


def test_explain_json_artifact(tmp_path):
    import json

    proc = run_cli("explain", "--size", "12", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert all(b["grids"] == ["x"] for b in doc["barriers"])
    assert doc["artifact"]["backend"] == "c"
    assert doc["artifact"]["cache_key"]
