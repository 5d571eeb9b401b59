"""Fixtures shared by the test modules."""
import pytest

from salient import posets


@pytest.fixture(scope="session")
def _iso_levels_to_8():
    return list(posets._iso_sweep(8))


@pytest.fixture
def shared_iso_sweep(monkeypatch, _iso_levels_to_8):
    """The isomorphism-class sweep to 8 elements, run once per session:
    posets._iso_sweep(max_n) yields copies of its levels for max_n <= 8
    and sweeps afresh (with its guard) beyond."""
    sweep = posets._iso_sweep

    def stored(max_n):
        if max_n >= len(_iso_levels_to_8):
            return sweep(max_n)
        return (list(level) for level in _iso_levels_to_8[:max_n + 1])

    monkeypatch.setattr(posets, "_iso_sweep", stored)
