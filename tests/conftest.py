"""Shared fixtures."""

import pytest

import mdskit.codes


@pytest.fixture
def min_distance_calls(monkeypatch):
    """The codes passed to codes.min_distance during the test, one entry
    per call."""
    calls = []
    scan = mdskit.codes.min_distance

    def counted(code):
        calls.append(code)
        return scan(code)

    monkeypatch.setattr(mdskit.codes, "min_distance", counted)
    return calls
