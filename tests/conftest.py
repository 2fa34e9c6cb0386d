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
