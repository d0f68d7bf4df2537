"""Shared fixtures."""

import pytest

from afcsim import propagation


@pytest.fixture
def response_calls(monkeypatch):
    """Empty the comb-response cache, then record each response computed.

    Yields the list of argument tuples passed to ``comb_response`` by
    ``build_transfer``, which looks it up as a module global.
    """
    propagation._grid_response.cache_clear()
    calls = []
    original = propagation.comb_response

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagation, "comb_response", counted)
    yield calls
    propagation._grid_response.cache_clear()
