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
    entry per call; only the scan in codes.min_distance builds masks
    here, and no spectrum count does."""
    calls = []
    build = mdskit.codes.symbol_masks

    def counted(words, n, q):
        calls.append(words)
        return build(words, n, q)

    monkeypatch.setattr(mdskit.codes, "symbol_masks", counted)
    return calls


@pytest.fixture
def code_inits(monkeypatch):
    """The codes built during the test, one entry per construction,
    by Code.__init__ or by the trusted constructor Code._of."""
    calls = []
    code_cls = mdskit.codes.Code
    init = code_cls.__init__
    of = code_cls._of.__func__

    def counted_init(self, q, words):
        calls.append(self)
        init(self, q, words)

    def counted_of(cls, q, words):
        code = of(cls, q, words)
        calls.append(code)
        return code

    monkeypatch.setattr(code_cls, "__init__", counted_init)
    monkeypatch.setattr(code_cls, "_of", classmethod(counted_of))
    return calls
