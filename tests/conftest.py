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


@pytest.fixture
def symbol_masks_calls(monkeypatch):
    """The word lists passed to codes.symbol_masks during the test, one
    entry per call, i.e. per bit-sliced view that codes.bit_view builds."""
    calls = []
    build = mdskit.codes.symbol_masks

    def counted(words, n, q):
        calls.append(words)
        return build(words, n, q)

    monkeypatch.setattr(mdskit.codes, "symbol_masks", counted)
    return calls


@pytest.fixture
def code_inits(monkeypatch):
    """The codes built by Code.__init__ during the test, one entry per
    construction."""
    calls = []
    init = mdskit.codes.Code.__init__

    def counted(self, q, words):
        calls.append(self)
        init(self, q, words)

    monkeypatch.setattr(mdskit.codes.Code, "__init__", counted)
    return calls
