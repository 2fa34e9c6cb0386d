"""Fixtures shared by the test modules."""

import pytest

import orbitdepth.integrals as integrals


@pytest.fixture
def uniform(monkeypatch):
    """uniform(r) makes every later sweep of every layer put all segments at
    rounds r, unchecked: the uniform special case of the tail rule, and the
    oracle of the tests; uniform(None) puts the tail rule back."""
    settle = integrals._settle

    def at(rounds):
        def uniform_settle(segments, sweep, what, tol, settled):
            return sweep([rounds] * len(segments))[0]
        monkeypatch.setattr(integrals, "_settle", settle if rounds is None else uniform_settle)
    return at


@pytest.fixture
def settled_rounds(monkeypatch):
    """settled_rounds(run) -> (run(), rounds): the rounds at which each
    segment that run() swept settled, in the order they were swept, for
    every sweep that goes through integrals._settle."""
    settle = integrals._settle

    def run_recorded(run):
        rounds = []

        def recording(segments, sweep, what, tol, settled):
            last = []

            def recorded(r):
                last[:] = r
                return sweep(r)

            out = settle(segments, recorded, what, tol, settled)
            rounds.extend(last)
            return out

        monkeypatch.setattr(integrals, "_settle", recording)
        try:
            return run(), rounds
        finally:
            monkeypatch.setattr(integrals, "_settle", settle)
    return run_recorded
