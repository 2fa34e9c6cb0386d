import cmath

import numpy as np
import pytest

from orbitdepth import curves
from orbitdepth.curves import (
    BRANCH_SAFETY,
    Arc,
    BranchTrackingError,
    Cycle,
    CycleFactory,
    Line,
    Segment,
    base_point,
    curve_f,
    loop_radius,
    nearest_root,
    real_oval,
    vanishing_loop,
)
from orbitdepth.integrals import (
    PAIRING_EXPECTED,
    _node_geometry,
    _panel_nodes,
    _segment_panels,
    pairing_table,
)
from orbitdepth.words import D2, Gen, Word, v_k
from support import oval_connector

SEED = 20259
T0 = 0.36


def cycle_points(cycle, n=40):
    pts = []
    for seg in cycle.segments:
        for s in np.linspace(0, 1, n):
            x, y, _, _ = seg.frame(float(s))
            pts.append((complex(x), complex(y)))
    return pts


def test_point_residuals():
    for t in (0.25, T0, 0.45):
        oval = real_oval(t)
        for x, y in cycle_points(oval):
            assert abs(curve_f(x, y) - t) <= 1e-13 * max(1.0, abs(t))
        for i in range(4):
            loop = vanishing_loop(i, t)
            for x, y in cycle_points(loop):
                assert abs(curve_f(x, y) - t) <= 1e-13 * max(1.0, abs(t))


def test_oval_geometry():
    oval = real_oval(T0)
    x0 = np.sqrt(1 - T0)
    pts = cycle_points(oval, 200)
    xs = np.array([p[0].real for p in pts])
    ys = np.array([p[1].real for p in pts])
    # passes through (+-x0, 0) and (0, +-x0)
    for target in [(-x0, 0), (x0, 0), (0, -x0), (0, x0)]:
        d = np.min(np.hypot(xs - target[0], ys - target[1]))
        assert d < 2e-2
    assert oval.base_point.x == pytest.approx(-x0)
    # shrinks to the origin as t -> 1
    tiny = real_oval(0.999999)
    for x, y in cycle_points(tiny):
        assert abs(x) + abs(y) < 4e-3


def test_oval_requires_unit_interval():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            real_oval(bad)


def test_vanishing_loop_basics():
    for i, (sx, sy) in enumerate([(-1, -1), (1, -1), (1, 1), (-1, 1)]):
        loop = vanishing_loop(i, T0)
        start = loop.segments[0].start_point()
        assert abs(start.x - (sx + 1j * loop_radius(T0))) < 1e-12
        assert abs(start.y - sy) < 0.5
        loop.check_chain()
    # past |t| = 0.5 the loops leave the saddle chart, based or not
    for build in (lambda: vanishing_loop(1, 0.75), lambda: CycleFactory(0.75).based_loop(1),
                  lambda: CycleFactory(0.75).cycle_of_word(D2)):
        with pytest.raises(ValueError, match="limit 0.5"):
            build()
    with pytest.raises(ValueError):
        vanishing_loop(5, T0)
    # at t = 0 the loops of radius sqrt|t|/2 are the punctures themselves,
    # and a level that is not finite has no loops
    for t, match in ((0.0, "t = 0"), (0, "t = 0"), (cmath.nan, "t = nan is not finite"),
                     (cmath.inf, "t = inf is not finite"),
                     (complex(0.2, cmath.nan), r"t = \(0\.2\+nanj\) is not finite")):
        for build in (lambda: vanishing_loop(1, t), lambda: CycleFactory(t).based_loop(1),
                      lambda: CycleFactory(t).cycle_of_word(D2)):
            with pytest.raises(ValueError, match=match):
                build()
    # complex level inside the chart bound works
    loop = vanishing_loop(2, 0.2 + 0.1j)
    loop.check_chain()


def test_based_loops_share_tails():
    fac = CycleFactory(T0)
    for i in range(4):
        loop = fac.based_loop(i)
        loop.check_chain()
        p = loop.segments[0].start_point()
        assert abs(p.x - fac.p0.x) < 1e-13 and abs(p.y) < 1e-13
    # adjacent inverse letters cancel tails: d2 d2 keeps one tail pair
    c1 = fac.cycle_of_word(D2 * D2)
    d2 = fac.cycle_of_word(D2)
    c2 = Cycle(d2.segments + d2.segments, T0, fac.p0)
    assert len(c1.segments) < len(c2.segments)


def test_cycle_of_word():
    fac = CycleFactory(T0)
    assert fac.cycle_of_word(D2 * D2.inverse()).segments == []
    cyc = fac.cycle_of_word(v_k(2))
    cyc.check_chain()
    with pytest.raises(ValueError):
        fac.cycle_of_word(Word.gen(Gen.G) * D2)
    oval = fac.cycle_of_word(Word.gen(Gen.G))
    assert len(oval.segments) == 8


def test_reverse_roundtrip():
    fac = CycleFactory(T0)
    loop = fac.based_loop(2)
    rev = loop.reverse()
    assert rev.segments[0].start_point().x == pytest.approx(loop.segments[-1].end_point().x)
    double_rev = rev.reverse()
    for a, b in zip(loop.segments, double_rev.segments):
        assert a.uid == b.uid and a.reversed == b.reversed


def test_connector():
    conn = oval_connector(T0, 0.25)
    conn.check_chain(require_closed=False)
    end = conn.segments[-1].end_point()
    p0 = base_point(T0)
    assert abs(end.x - p0.x) < 1e-13 and abs(end.y) < 1e-13


def test_branch_roots():
    a = 0.5 ** 2 - 1.0
    r0, r1 = nearest_root(a, T0, 1.0), nearest_root(a, T0, -1.0)
    assert r0 == -r1
    assert abs(curve_f(0.5, r0) - T0) < 1e-15
    with pytest.raises(ZeroDivisionError):
        nearest_root(1.0 ** 2 - 1.0, T0, 1.0)
    with pytest.raises(ZeroDivisionError):  # one puncture in an array is enough
        nearest_root(np.array([a, 0.0]), T0, 1.0)
    # elementwise: each entry is the root nearer its own `near`
    a = np.array([-0.75, 0.5j, 2.0 - 1.0j])
    near = np.array([-1.0, 1.0 + 1.0j, -2.0j])
    for ai, ni, ri in zip(a, near, nearest_root(a, T0, near)):
        assert abs(ri - ni) <= abs(-ri - ni)
        assert abs(ai * (ri * ri - 1.0) - T0) < 1e-15


def reference_samples(seg):
    """The scalar tracker the vectorised sampler replaced: one sample at a
    time, the root nearer the last one, from the segment's first root."""
    n = 64
    while True:
        s = np.linspace(0.0, 1.0, n + 1)
        w = np.asarray(seg.path.value(s), dtype=complex)
        dep = [seg._samples[0]]
        for wi in w:
            r = cmath.sqrt(1.0 + seg.t / (wi * wi - 1.0))
            pick, other = (r, -r) if abs(r - dep[-1]) <= abs(r + dep[-1]) else (-r, r)
            if abs(pick - dep[-1]) * BRANCH_SAFETY > abs(other - dep[-1]):
                break
            dep.append(pick)
        else:
            return s, np.array(dep[1:])
        n *= 2


def curve_segments():
    """Every distinct segment of the oval, the four based loops and the v_3
    cycle at t = 0.36 and 0.25, and of the saddle loop at a complex level."""
    segs = {}
    for t in (T0, 0.25):
        fac = CycleFactory(t)
        cycles = [real_oval(t), fac.cycle_of_word(v_k(3))]
        cycles += [fac.based_loop(i) for i in range(4)]
        cycles += [vanishing_loop(i, t) for i in range(4)]
        for cyc in cycles:
            segs.update((seg.uid, seg) for seg in cyc.segments)
    segs.update((seg.uid, seg) for seg in vanishing_loop(2, 0.2 + 0.1j).segments)
    return list(segs.values())


def test_sampler_matches_the_scalar_tracker():
    # a line 0.004 from the branch point x = 0.8, where the samples double twice
    z0 = 0.5 + 0.004j
    near_branch = Segment("x", Line(z0, 1.1 + 0.004j), T0,
                          complex(nearest_root(z0 * z0 - 1.0, T0, 1.0)))
    assert len(near_branch._sgrid) == 257
    # once around the branch point the root comes back as the other root,
    # so the kept sign has to flip on the way
    around_branch = Segment("x", Arc(0.8, 0.1, 0.0, 2 * np.pi), T0,
                            complex(nearest_root(0.9 ** 2 - 1.0, T0, 1.0)))
    start, end = around_branch.start_point(), around_branch.end_point()
    assert abs(end.y + start.y) < 1e-14 and abs(start.y) > 0.9
    for seg in curve_segments() + [near_branch, around_branch]:
        s, dep = reference_samples(seg)
        assert len(seg._sgrid) == len(s), seg
        assert np.max(np.abs(seg._samples - dep)) <= 1e-14, seg


def test_panel_nodes_lie_on_the_curve():
    for seg in curve_segments():
        for rounds in range(3):
            npan = _segment_panels(seg, rounds)
            x, y, _, _ = seg.chart_frame(*_node_geometry(seg, npan))
            assert np.max(np.abs(curve_f(x, y) - seg.t)) <= 1e-14 * max(1.0, abs(seg.t)), seg


def pairing_error(t):
    return max(abs(v - PAIRING_EXPECTED[key]) for key, v in pairing_table(t).items())


def test_far_root_mutant_is_caught(monkeypatch):
    near = curves.nearest_root
    assert pairing_error(T0) <= 1e-9  # the num.pairing tolerance
    # the far root everywhere: no segment starts at its seed
    monkeypatch.setattr(curves, "nearest_root", lambda a, level, z: -near(a, level, z))
    with pytest.raises(BranchTrackingError):
        real_oval(T0)
    with pytest.raises(BranchTrackingError):
        CycleFactory(T0).based_loop(2)
    with pytest.raises(BranchTrackingError):
        pairing_table(T0)
    # the far root at the panel nodes only (the samples stay right)
    monkeypatch.setattr(curves, "nearest_root",
                        lambda a, level, z: -near(a, level, z) if np.ndim(z) == 2 else near(a, level, z))
    assert pairing_error(T0) > 1e-9


def counted_roots(monkeypatch):
    """A list that grows by one at every nearest_root call from now on."""
    calls = []
    near = curves.nearest_root

    def counted(a, level, z):
        calls.append(np.shape(z))
        return near(a, level, z)

    monkeypatch.setattr(curves, "nearest_root", counted)
    return calls


def test_endpoints_and_node_geometry_are_computed_once_per_segment(monkeypatch):
    arc = Arc(0.5 + 0.2j, 0.3, 0.5, 2.0)
    z0 = arc.value(0.0)
    seg = Segment("x", arc, T0, complex(nearest_root(z0 * z0 - 1.0, T0, 1.0)))
    rev = seg.reverse()
    calls = counted_roots(monkeypatch)
    # one evaluation at s = 0 and one at s = 1 serve both directions
    start, end = seg.start_point(), seg.end_point()
    assert len(calls) == 2
    assert (rev.start_point(), rev.end_point()) == (end, start)
    assert seg.start_point() is start and rev.reverse().end_point() is end
    assert rev.start_point() is end and rev.end_point() is start
    assert len(calls) == 2
    # the collocation nodes: once per panel count, in the canonical
    # direction; the reversed copy reads them flipped, with no root of its own
    s = _panel_nodes(6)
    kept = _node_geometry(seg, 6)
    assert len(calls) == 3
    assert _node_geometry(seg, 6) is kept and _node_geometry(rev.reverse(), 6) is kept
    back = _node_geometry(rev, 6)
    again = _node_geometry(seg.reverse(), 6)
    for i in (0, 2):  # w and u are views of the kept arrays; dw/ds is negated afresh
        assert np.shares_memory(back[i], kept[i]) and np.shares_memory(again[i], kept[i])
    assert len(calls) == 3
    # asked for in the reversed direction first, the count still costs one root
    back12 = _node_geometry(rev, 12)
    assert len(calls) == 4
    kept12 = _node_geometry(seg, 12)
    assert len(calls) == 4
    for i in (0, 2):
        assert np.shares_memory(back12[i], kept12[i])
    for value, fresh in zip(kept + kept12, seg.geometry(s) + seg.geometry(_panel_nodes(12))):
        assert np.array_equal(value, fresh)
    for value, fresh in zip(back + back12, rev.geometry(s) + rev.geometry(_panel_nodes(12))):
        assert np.all(np.abs(value - fresh) <= 1e-15 * np.abs(fresh))
    for value in back + back12:
        assert not value.flags.writeable
    # one store entry per value, whichever direction read it
    assert set(seg._store) == {6, 12, "ends"}


def test_kept_values_are_shared_with_reversed_copies_and_read_only():
    seg = CycleFactory(T0).based_loop(2).segments[1]
    rev = seg.reverse()
    assert rev._store is seg._store
    for value in (_node_geometry(seg, 6) + _node_geometry(rev, 6)
                  + _node_geometry(rev, 12) + _node_geometry(seg, 12)):
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 0.0
    with pytest.raises(AttributeError):  # a CurvePoint is frozen
        rev.start_point().x = 0.0
    assert set(seg._store) == {6, 12, "ends"}


def test_a_word_cycle_rebuilt_from_held_loops_finds_no_roots(monkeypatch):
    factory = CycleFactory(T0)
    first = factory.cycle_of_word(v_k(3))
    calls = counted_roots(monkeypatch)
    again = factory.cycle_of_word(v_k(3))  # check_chain re-reads all 96 segments' endpoints
    assert len(calls) == 0
    assert len(again.segments) == 96
    assert [(s.uid, s.reversed) for s in again.segments] == \
           [(s.uid, s.reversed) for s in first.segments]


def test_factory_keeps_one_oval():
    fac = CycleFactory(T0)
    gamma = Word.gen(Gen.G)
    assert fac.cycle_of_word(gamma) is fac.cycle_of_word(gamma)
