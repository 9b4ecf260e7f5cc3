"""Smoke test of the benchmark harness itself (not a tier-1 test).

Run by explicit path: ``python -m pytest bench/test_smoke.py``.  Drives
``bench/run.py --quick`` (8^3/16^3 sizes — the numbers mean nothing) and
checks the harness's own promises: the output matches the declaration in
``BENCHMARK.json``, the traced pass writes a well-nested span file, and a
corrupted reference makes the run fail.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
DECL = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         *extra],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=170,
    )
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_declaration_is_within_the_contract():
    e2e, layer = DECL["end_to_end"], DECL["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in (*e2e, *layer, *DECL["workloads"])]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert {"setup_s", "vs_baseline", "peak_rss_mb"} == {m["name"] for m in e2e}
    assert {"op_s", "mpts_per_s"} <= {m["name"] for m in layer}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass_emits_every_declared_metric(workload):
    rc, result = run(workload, 0)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECL["end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["vcycle_32", "kernels_256"])
def test_traced_pass_emits_every_layer_metric_and_nested_spans(workload):
    rc, result = run(workload, 1)
    assert rc == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in DECL["per_layer"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == want
    assert result["metrics"]["bench.sum_residual_frac"]["value"] >= 0.0

    events = json.loads(
        (BENCH / "out" / f"{workload}.trace.json").read_text())["traceEvents"]
    assert events
    by_id = {e["args"]["id"]: e for e in events}
    children = [e for e in events if e["args"]["parent"] is not None]
    assert children
    for e in children:
        parent = by_id[e["args"]["parent"]]
        assert parent["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        assert e["args"]["op"] == parent["args"]["op"]


def test_corrupted_reference_fails_loudly():
    rc, result = run("vcycle_32", 0, "--corrupt-reference")
    assert rc != 0
    assert not result["correct"] and result["failed"] > 0
