"""Every example script runs to completion (deliverable b)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=600):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-3000:]}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "all five backends agree" in out
    assert "generated C" in out


def test_redblack_poisson():
    out = run_example("redblack_poisson.py")
    assert "parallel-safe? True" in out
    assert "4 phases" in out


def test_custom_backend():
    out = run_example("custom_backend.py")
    assert "OK" in out


def test_amr_domains():
    out = run_example("amr_domains_and_analysis.py")
    assert "dead_scratch" in out
    assert "expected" in out


def test_distributed_smoother():
    out = run_example("distributed_smoother.py")
    assert "surface, not volume" in out
    assert "deadlock" in out


def test_profile_and_tune():
    out = run_example("profile_and_tune.py")
    assert "hot paths (span self time)" in out
    for stencil in ("gsrb_red", "gsrb_black", "residual", "debug_copy"):
        assert f"kernel:{stencil}" in out
    assert "dead stencil" in out


def test_wave_2d():
    out = run_example("wave_2d.py")
    assert "stable propagation" in out


def test_multigrid_3d_small():
    out = run_example("multigrid_3d.py", "8")
    assert "max error vs manufactured solution" in out
    assert "opencl-sim" in out
