"""Fixtures shared by the test modules."""

import pytest

# holonomy is imported before any test patches integrals, so that the names
# it imports from there are the originals and monkeypatch restores them
import orbitdepth.holonomy as holonomy
import orbitdepth.integrals as integrals


@pytest.fixture
def uniform(monkeypatch):
    """uniform(r) makes every later sweep of every layer put all segments at
    rounds r, unchecked: the uniform special case of the tail rule."""
    settle = integrals._settle

    def at(rounds):
        def uniform_settle(segments, sweep, what, tol, _rounds=None, start=None):
            return settle(segments, sweep, what, tol, rounds)
        monkeypatch.setattr(integrals, "_settle", uniform_settle)
        monkeypatch.setattr(holonomy, "_settle", uniform_settle)
    return at


@pytest.fixture
def settled_rounds(monkeypatch):
    """settled_rounds(run) -> (run(), rounds): the rounds at which each
    segment that run() swept settled, in the order they were swept, for
    every sweep that goes through integrals._settle."""
    settle = integrals._settle

    def run_recorded(run):
        rounds = []

        def recording(segments, sweep, what, tol, *args, **kwargs):
            last = []

            def recorded(r):
                last[:] = r
                return sweep(r)

            out = settle(segments, recorded, what, tol, *args, **kwargs)
            rounds.extend(last)
            return out

        monkeypatch.setattr(integrals, "_settle", recording)
        monkeypatch.setattr(holonomy, "_settle", recording)
        try:
            return run(), rounds
        finally:
            monkeypatch.setattr(integrals, "_settle", settle)
            monkeypatch.setattr(holonomy, "_settle", settle)
    return run_recorded
