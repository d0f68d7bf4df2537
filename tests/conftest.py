"""Shared fixtures."""

import collections

import pytest

from afcsim import propagation, protocols


@pytest.fixture
def response_calls(monkeypatch):
    """Record each comb response computed on a grid.

    Yields the list of argument tuples passed to ``comb_response`` by
    ``propagation._grid_response``, which looks it up as a module global.
    """
    calls = []
    original = propagation.comb_response

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagation, "comb_response", counted)
    yield calls


@pytest.fixture
def transforms(monkeypatch):
    """Count the chirp-z transforms, by direction.

    Yields a Counter of calls to ``spectrum_to_signal`` and
    ``signal_to_spectrum``, wrapped in every module that calls them
    through a module global.  A call that raises is counted too.
    """
    calls = collections.Counter()
    for name in ("spectrum_to_signal", "signal_to_spectrum"):
        original = getattr(propagation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (propagation, protocols):
            monkeypatch.setattr(module, name, counted)
    yield calls
