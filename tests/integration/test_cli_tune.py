"""The ``python -m repro tune`` subcommand: the winner is its output."""

import json
import os
import subprocess
import sys

import numpy as np


def run_cli(*args, env=None, timeout=300):
    full_env = dict(os.environ, PYTHONPATH="src")
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=timeout, env=full_env,
    )


def test_tune_json_no_persist(tmp_path):
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt", "--size", "8",
        "--budget", "2", "--repeats", "1", "--json",
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "snowflake-tune-search/1"
    assert doc["best"] is not None
    measured = [t for t in doc["trials"] if t["status"] == "measured"]
    assert 1 <= len(measured) <= 2
    assert all(t["predicted_s"] > 0 for t in measured)
    assert list(tmp_path.iterdir()) == []  # the search writes nothing


def test_tune_table_output(tmp_path):
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt", "--size", "8",
        "--budget", "2", "--repeats", "1",
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "winner:" in proc.stdout
    assert "predicted" in proc.stdout and "measured" in proc.stdout


def test_tune_writes_artifact(tmp_path):
    out = tmp_path / "TUNE_result.json"
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt", "--size", "8",
        "--budget", "2", "--repeats", "1",
        "--out", str(out),
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == "snowflake-tune-search/1"


def test_tune_unknown_operator(tmp_path):
    proc = run_cli(
        "tune", "--op", "nonesuch",
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 2
    assert "argument --op: invalid choice: 'nonesuch'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tune_writes_only_out_and_its_winner_compiles(tmp_path):
    """Nothing is persisted; ``ScheduleOptions(**doc["best"])`` is the winner."""
    from repro.bench import paper_operators
    from repro.core.stencil import StencilGroup
    from repro.schedule import ScheduleOptions

    n = 8
    cache = tmp_path / "cache"
    cache.mkdir()
    out = tmp_path / "TUNE_result.json"
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt",
        "--size", str(n), "--budget", "2", "--repeats", "1",
        "--out", str(out),
        env={"SNOWFLAKE_CACHE_DIR": str(cache)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(cache.iterdir()) == []
    doc = json.loads(out.read_text())
    assert doc["schema"] == "snowflake-tune-search/1"
    best = ScheduleOptions(**doc["best"])
    assert f"ScheduleOptions(**{best.to_dict()!r})" in proc.stdout

    st = paper_operators(n)["cc_7pt"]
    group = StencilGroup([st], name="cc_7pt")
    rng = np.random.default_rng(0)
    arrays = {g: rng.standard_normal((n + 2,) * st.ndim) for g in st.grids()}
    got = {g: a.copy() for g, a in arrays.items()}
    group.compile(backend="numpy", schedule=best)(**got)
    group.compile(backend="python")(**arrays)
    for g in sorted(arrays):
        np.testing.assert_allclose(got[g], arrays[g], rtol=1e-12)
