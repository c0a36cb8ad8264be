"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.params import SyncParams


@pytest.fixture
def params() -> SyncParams:
    """A mid-drift compliant parameter set used across tests."""
    return SyncParams.recommended(epsilon=0.05, delay_bound=1.0)


@pytest.fixture
def tight_params() -> SyncParams:
    """Small drift: realistic clocks, long correction horizons."""
    return SyncParams.recommended(epsilon=0.001, delay_bound=1.0)


@pytest.fixture
def aggressive_params() -> SyncParams:
    """Large drift: fast-moving executions for short tests."""
    return SyncParams.recommended(epsilon=0.1, delay_bound=1.0)


@pytest.fixture
def vector_calls(monkeypatch):
    """The point count of every numpy column evaluation of the skew fold,
    in call order (empty when every fold took the pure-Python path)."""
    import repro.sim.trace as trace_mod

    calls = []
    vector_values = trace_mod._vector_values

    def counted(record, ts):
        calls.append(len(ts))
        return vector_values(record, ts)

    monkeypatch.setattr(trace_mod, "_vector_values", counted)
    return calls
