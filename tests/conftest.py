"""Fixtures shared across test modules."""

import pytest

from repro.fleet import workers as fleet_workers


@pytest.fixture
def fast_backoff(monkeypatch):
    """Millisecond fleet retry backoff, so fault-injection tests do not
    sleep through the production schedule."""
    monkeypatch.setattr(fleet_workers, "RETRY_BACKOFF_BASE", 0.002)
    monkeypatch.setattr(fleet_workers, "RETRY_BACKOFF_CAP", 0.02)
