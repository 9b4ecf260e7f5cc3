"""Telemetry tests get a clean, env-independent registry and tracer."""

import pytest

from repro import telemetry
from repro.telemetry import tracing


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
    telemetry.set_mode(None)
    telemetry.reset()
    tracing.clear()
    yield
    telemetry.set_mode(None)
    telemetry.reset()
    tracing.clear()
