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
    # the environment report heads `repro doctor`
    proc = run_cli("doctor")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-snowflake" in proc.stdout
    assert "python " in proc.stdout and "numpy " in proc.stdout
    assert "backends:" in proc.stdout
    assert "] compiler" in proc.stdout
    assert "STREAM-dot" in proc.stdout or "host bandwidth" in proc.stdout


def test_selftest_passes():
    # `repro doctor` runs the probe stencil on every backend
    from repro import available_backends

    proc = run_cli("doctor")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISMATCH" not in proc.stdout
    for backend in available_backends():
        assert f"[ ok ] {backend:18s} matches python" in proc.stdout


def test_cli_has_four_commands(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{doctor,trace,explain,tune}" in capsys.readouterr().out
    for gone in ("info", "selftest", "stats", "top"):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["explain", "--policy", "bogus"], "--policy"),
    (["explain", "--size", "0"], "--size"),
    (["explain", "--dmem", "0"], "--dmem"),
    (["tune", "--op", "bogus"], "--op"),
    (["tune", "--spec", "bogus"], "--spec"),
    (["tune", "--size", "0"], "--size"),
    (["tune", "--budget", "0"], "--budget"),
    (["tune", "--repeats", "-1"], "--repeats"),
    (["trace", "--size", "0"], "--size"),
    (["trace", "--calls", "0"], "--calls"),
    (["trace", "--limit", "0"], "--limit"),
    (["trace", "--backend", "nonesuch"], "--backend"),
    (["explain", "--backend", "nonesuch"], "--backend"),
    (["tune", "--backend", "nonesuch"], "--backend"),
])
def test_bad_input_is_refused_by_the_parser(argv, flag, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err, err


def test_backend_flag_resolves_aliases():
    from repro.__main__ import backend_name

    assert backend_name("np") == "numpy"
    assert backend_name("c99") == "c"


def test_requires_a_command():
    proc = run_cli()
    assert proc.returncode != 0


#: ``kernel:`` spans of the 2-rank distributed re-run in ``repro trace``:
#: the GSRB group's 8 stencils, each applied once per rank
DMEM_KERNEL_SPANS = 16


def test_stats_reports_telemetry(tmp_path):
    import json

    stats = tmp_path / "stats.json"
    proc = run_cli(
        "trace", "--size", "32", "--calls", "2",
        "--out", str(tmp_path / "trace.json"), "--json", str(stats),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "kernel invocations" in proc.stdout
    assert "telemetry mode" in proc.stdout

    def refuse(token):
        raise AssertionError(f"bare {token} in the stats document")

    doc = json.loads(stats.read_text(), parse_constant=refuse)
    assert doc["schema"] == "snowflake-stats/1"
    assert set(doc) == {
        "schema", "mode", "counters", "timers", "kernels", "histograms",
    }
    assert doc["kernels"], "workload kernel calls must be recorded"
    assert doc["histograms"]["kernel.call"], "latency histogram missing"
    # the kernels table is a view of the kernel.call series
    for rec in doc["histograms"]["kernel.call"]:
        k = doc["kernels"][rec["labels"]["backend"]]
        assert (k["calls"], k["seconds"]) == (rec["count"], rec["sum"])
    kernels = doc["kernels"].values()
    assert sum(k["calls"] for k in kernels) == 2 + DMEM_KERNEL_SPANS
    # two sweeps and the distributed one: n*n colored points plus the
    # four boundary stencils (n points each) before each color
    assert sum(k["points"] for k in kernels) == 3 * (32 * 32 + 8 * 32)


def test_stats_respects_off_mode(tmp_path):
    import json
    import os

    from repro.telemetry import tracing

    out = tmp_path / "trace.json"
    env = dict(os.environ, SNOWFLAKE_TELEMETRY="off", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--size", "16",
         "--calls", "1", "--backend", "numpy", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "telemetry is off" in proc.stdout
    # the session records spans whatever the mode
    assert tracing.validate_chrome_trace(json.loads(out.read_text())) == []


def test_top_prints_profile_table(tmp_path):
    import json

    from repro.telemetry import tracing

    out = tmp_path / "top.json"
    proc = run_cli(
        "trace", "--backend", "numpy", "--size", "48", "--calls", "8",
        "--out", str(out), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "hot paths (span self time)" in proc.stdout
    assert "self_s" in proc.stdout and "share" in proc.stdout
    assert "kernel:" in proc.stdout
    assert "0 event(s) dropped" in proc.stdout
    doc = json.loads(out.read_text())
    assert tracing.validate_chrome_trace(doc) == []
    calls = [e["name"] for e in doc["traceEvents"]
             if e["ph"] == "X" and e["name"].startswith("kernel:")]
    assert calls.count("kernel:gsrb_smooth_x1") == 8
    assert len(calls) == 8 + DMEM_KERNEL_SPANS


def test_artifact_dir_redirects_bare_filenames(tmp_path):
    import json
    import os

    env = dict(
        os.environ,
        SNOWFLAKE_ARTIFACT_DIR=str(tmp_path / "artifacts"),
        PYTHONPATH="src",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--size", "16",
         "--calls", "1", "--backend", "numpy", "--out", "trace_cli.json",
         "--json", "stats_cli.json"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    redirected = tmp_path / "artifacts" / "stats_cli.json"
    assert redirected.exists()
    assert json.loads(redirected.read_text())["schema"] == "snowflake-stats/1"
    assert (tmp_path / "artifacts" / "trace_cli.json").exists()


def test_in_process_main(capsys):
    from repro.__main__ import main

    assert main(["doctor"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_trace_smoke_covers_subsystems(tmp_path):
    import json

    out = tmp_path / "trace.json"
    stats = tmp_path / "stats.json"
    proc = run_cli(
        "trace", "--smoke", "--size", "24", "--calls", "1",
        "--out", str(out), "--json", str(stats), timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: PASS" in proc.stdout
    assert "telemetry mode" in proc.stdout  # the counters report
    assert "hot paths (span self time)" in proc.stdout
    from repro.telemetry import tracing

    doc = json.loads(out.read_text())
    assert tracing.validate_chrome_trace(doc) == []
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"frontend", "jit", "kernel", "dmem"} <= cats
    snap = json.loads(stats.read_text())
    assert snap["schema"] == "snowflake-stats/1"
    assert snap["kernels"] and snap["histograms"]["kernel.call"]


def test_explain_names_barrier_grids():
    proc = run_cli("explain", "--size", "12", "--backend", "numpy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "forced by" in proc.stdout
    assert "RAW on x" in proc.stdout
    assert "gsrb_red" in proc.stdout


def test_explain_prints_every_plane_lag():
    proc = run_cli("explain", "--size", "12", "--backend", "numpy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "plane lags [0, 0, 0, 0, 1, 2, 0, 1, 1, 2]" in proc.stdout
    assert "gsrb_black (parallel, lag 2)" in proc.stdout
    assert (
        "lag: 2 = lag 1 of [gsrb_red] + plane distance 1 "
        "(gsrb_red -> gsrb_black RAW on 'x')"
    ) in proc.stdout


def test_explain_json_artifact(tmp_path):
    import json

    proc = run_cli("explain", "--size", "12", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert all(b["grids"] == ["x"] for b in doc["barriers"])
    assert doc["artifact"]["backend"] == "c"
    assert doc["artifact"]["cache_key"]


def test_explain_json_records_the_time_tile_selection():
    # whatever the host's L2, the lowering says which way it went
    import json

    proc = run_cli("explain", "--time-tile", "4", "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    (select,) = [
        e for e in doc["schedule"]["evidence"]
        if e.startswith("app-lag-select: ")
    ]
    assert ("applications lagged" in select) is (
        doc["schedule"]["app_lag"] is not None
    )


def test_explain_prints_the_application_lag(always_lag, capsys):
    from repro.__main__ import main

    assert main(["explain", "--time-tile", "4", "--size", "12"]) == 0
    out = capsys.readouterr().out
    assert "app-lag-select: applications lagged: the grids touch " in out
    assert "app-lag: 3 = lag 2 of [gsrb_black]" in out
    assert "application lag 3: " in out
    assert "a lag window of 14 planes" in out
