"""The ``python -m repro tune`` subcommand and cross-process reload."""

import json
import os
import subprocess
import sys

SECOND_PROCESS = """
from dataclasses import replace

import numpy as np
from repro.bench import paper_operators
from repro.core.stencil import StencilGroup
from repro.explain import explain
from repro.tuning.cache import load_winner, options_from_dict

st = paper_operators({n})["cc_7pt"]
group = StencilGroup([st], name="cc_7pt")
shapes = {{g: ({n} + 2,) * st.ndim for g in st.grids()}}
doc = load_winner(group, shapes, "numpy")
assert doc is not None, "winner not found in cache"
assert doc["schema"] == "snowflake-tune/2"
# the path users have: compile(backend="numpy", schedule="tuned")
prov = explain(group, shapes, backend="numpy", schedule="tuned")
won = replace(options_from_dict(doc["options"]), time_tile=1)
assert prov.schedule.options == won, (prov.schedule.options, won)
kernel = group.compile(backend="numpy", shapes=shapes, schedule="tuned")
kernel(**{{g: np.ones(s) for g, s in shapes.items()}})
print("RELOADED", prov.schedule.options.describe())
"""


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
        "--budget", "2", "--repeats", "1", "--json", "--no-persist",
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "snowflake-tune-search/1"
    assert doc["best"] is not None
    measured = [t for t in doc["trials"] if t["status"] == "measured"]
    assert 1 <= len(measured) <= 2
    assert all(t["predicted_s"] > 0 for t in measured)
    assert list(tmp_path.glob("sf_tune_*.json")) == []  # --no-persist


def test_tune_table_output(tmp_path):
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt", "--size", "8",
        "--budget", "2", "--repeats", "1", "--no-persist",
        env={"SNOWFLAKE_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "winner:" in proc.stdout
    assert "predicted" in proc.stdout and "measured" in proc.stdout


def test_tune_writes_artifact(tmp_path):
    out = tmp_path / "TUNE_result.json"
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt", "--size", "8",
        "--budget", "2", "--repeats", "1", "--no-persist",
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


def test_tune_persists_and_second_process_reloads(tmp_path):
    """The acceptance path: tune in one process, reload in another."""
    n = 8
    env = {"SNOWFLAKE_CACHE_DIR": str(tmp_path)}
    proc = run_cli(
        "tune", "--backend", "numpy", "--op", "cc_7pt",
        "--size", str(n), "--budget", "2", "--repeats", "1",
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    winners = list(tmp_path.glob("sf_tune_*.json"))
    assert len(winners) == 1
    doc = json.loads(winners[0].read_text())
    assert doc["schema"] == "snowflake-tune/2"
    assert doc["backend"] == "numpy"

    second = subprocess.run(
        [sys.executable, "-c", SECOND_PROCESS.format(n=n)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH="src", **env),
    )
    assert second.returncode == 0, second.stdout + second.stderr
    assert "RELOADED" in second.stdout

