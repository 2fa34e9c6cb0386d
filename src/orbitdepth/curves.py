"""Cycles on the complex curve (x^2 - 1)(y^2 - 1) = t.

A cycle is a chain of segments; each segment projects to a parametrized
path in one coordinate plane (over-x or over-y), and over a point w of the
path the other coordinate is one of the two roots +-sqrt(1 + t/(w^2 - 1)).
`nearest_root` is the one rule that picks between them, the root nearer a
given value: a segment samples its path, keeps each sample's root nearer
the previous sample's (doubling the samples until every step is
unambiguous by BRANCH_SAFETY), and any other point of the segment takes the
root nearer its closest sample.  What a cycle reads again (the endpoints,
the values at collocation nodes, the distances from the poles) each segment
computes once, in its canonical direction, and keeps for itself and its
reversed copies, which read it converted (`Segment.kept`).  The pieces
built here:

* the real oval through p0 = (-sqrt(1-t), 0) for 0 < t < 1, split into
  eight graph arcs between axis and diagonal points, oriented
  counterclockwise;
* the four saddle loops around (+-1, +-1): an x-plane circle of radius
  sqrt|t|/2 around the saddle's x-coordinate with the y-branch near the
  saddle's y-coordinate, traversed counterclockwise when the local product
  coefficient 4 sx sy is negative and clockwise otherwise (the single
  pairing entry over the loop at (1,-1) calibrates this template; all other
  pairings are then genuine tests);
* connecting tails from p0 (a short over-y lift away from the ramification
  point, then a rectangular x-plane detour at height 0.6), so loops become
  based at p0 and words map to concatenations.
"""

from __future__ import annotations

import cmath
import copy
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .words import Gen, Word

POINT_RESIDUAL_TOL = 1e-13
CLOSURE_TOL = 1e-12
BRANCH_SAFETY = 4.0
LIFT_Y = 0.30
RECT_HEIGHT = 0.60

SADDLES = {0: (-1.0, -1.0), 1: (1.0, -1.0), 2: (1.0, 1.0), 3: (-1.0, 1.0)}


def curve_f(x: complex, y: complex) -> complex:
    return (x * x - 1.0) * (y * y - 1.0)


@dataclass(frozen=True)
class CurvePoint:
    x: complex
    y: complex
    t: complex

    @property
    def residual(self) -> float:
        return abs(curve_f(self.x, self.y) - self.t)

    def check(self):
        if self.residual > POINT_RESIDUAL_TOL * max(1.0, abs(self.t)):
            raise ValueError(f"point off the curve: residual {self.residual:g}")
        return self


def _same_side(r, near):
    """Re(r conj near) >= 0, i.e. |r - near| <= |r + near|, elementwise."""
    return r.real * np.real(near) + r.imag * np.imag(near) >= 0.0


def nearest_root(a, level, near):
    """The root u of a (u^2 - 1) = level nearer `near`, elementwise.

    With a = w^2 - 1 this is the dependent coordinate over w at that level
    (over-x: y^2 = 1 + t/(x^2-1); over-y the same with roles swapped, the
    curve being symmetric under (x, y) -> (y, x)): r = sqrt(1 + level/a) or
    -r, keeping r on a tie.  ZeroDivisionError where w^2 = 1, a puncture.
    """
    a = np.asarray(a, dtype=complex)
    if np.any(a == 0):
        raise ZeroDivisionError("independent coordinate at a puncture (w^2 = 1)")
    r = np.sqrt(1.0 + level / a)
    return np.where(_same_side(r, near), r, -r)


@dataclass(frozen=True)
class Line:
    z0: complex
    z1: complex

    def value(self, s):
        return self.z0 + (self.z1 - self.z0) * s

    def derivative(self, s):
        if np.ndim(s):
            return np.full(np.shape(s), self.z1 - self.z0, dtype=complex)
        return self.z1 - self.z0


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def value(self, s):
        th = self.theta0 + (self.theta1 - self.theta0) * s
        return self.center + self.radius * np.exp(1j * th)

    def derivative(self, s):
        th = self.theta0 + (self.theta1 - self.theta0) * s
        return 1j * (self.theta1 - self.theta0) * self.radius * np.exp(1j * th)


class BranchTrackingError(ValueError):
    pass


_segment_ids = itertools.count()


class Segment:
    """One graph arc: independent coordinate follows `path`, the dependent
    one continues from `dep_seed` by nearest-root tracking."""

    def __init__(self, chart: str, path: Line | Arc, t: complex, dep_seed: complex):
        if chart not in ("x", "y"):
            raise ValueError("chart must be 'x' or 'y'")
        self.chart = chart
        self.path = path
        self.t = t
        self.uid = next(_segment_ids)
        self.reversed = False
        self._samples: Optional[np.ndarray] = None
        self._sgrid: Optional[np.ndarray] = None
        self._store: Dict[object, object] = {}  # shared with the reversed copies
        self._build_samples(dep_seed)

    def _build_samples(self, dep_seed: complex):
        """Roots at n + 1 equally spaced samples, n = 64, 128, ...: the first
        nearer dep_seed, each later one nearer the one before (its sign flips
        where r_i lies on the far side of r_{i-1}), until every step is
        BRANCH_SAFETY times nearer the kept root than the other one."""
        n = 64
        while True:
            s = np.linspace(0.0, 1.0, n + 1)
            w = np.asarray(self.path.value(s), dtype=complex)
            r = nearest_root(w * w - 1.0, self.t, dep_seed)
            if abs(r[0] - dep_seed) > 1e-6 * max(1.0, abs(dep_seed)):
                raise BranchTrackingError(
                    f"seed {dep_seed} is not a root over the segment start"
                )
            flips = np.where(_same_side(r[1:], r[:-1]), 1.0, -1.0)
            dep = r * np.concatenate(([1.0], np.cumprod(flips)))
            step, other = np.abs(dep[1:] - dep[:-1]), np.abs(dep[1:] + dep[:-1])
            if np.all(step * BRANCH_SAFETY <= other):
                self._sgrid = s
                self._samples = dep
                return
            n *= 2
            if n > 1 << 16:
                raise BranchTrackingError(
                    f"branch tracking failed on segment {self.uid} "
                    f"({self.chart}-chart, {self.path})"
                )

    # -- orientation-aware accessors -------------------------------------

    def _canonical_s(self, s):
        return 1.0 - s if self.reversed else s

    def independent(self, s):
        return self.path.value(self._canonical_s(s))

    def independent_derivative(self, s):
        d = self.path.derivative(self._canonical_s(s))
        return -d if self.reversed else d

    def dependent(self, s):
        """Dependent coordinate at parameter s (scalar or array), evaluated
        afresh: each point takes the root nearer its closest sample.  The
        values a cycle reads again, at the endpoints and at the collocation
        nodes, come from the segment's store (`kept`)."""
        cs = np.atleast_1d(np.asarray(self._canonical_s(s), dtype=float))
        idx = np.clip(np.rint(cs * (len(self._sgrid) - 1)).astype(int),
                      0, len(self._sgrid) - 1)
        w = np.asarray(self.path.value(cs), dtype=complex)
        d = nearest_root(w * w - 1.0, self.t, self._samples[idx])
        if np.ndim(s) == 0:
            return complex(d[0])
        return d

    def geometry(self, s):
        """(w, dw/ds, u) at parameter s (scalar or array): the independent
        coordinate, its derivative and the dependent coordinate, evaluated
        afresh; `integrals` keeps them at its collocation nodes (`kept`)."""
        return self.independent(s), self.independent_derivative(s), self.dependent(s)

    def chart_frame(self, w, dw, u):
        """(x, y, dx/ds, dy/ds) from the geometry (w, dw/ds, u), with the
        implicit derivative of the dependent coordinate."""
        a = np.asarray(w, dtype=complex) ** 2 - 1.0
        du = -dw * (2.0 * np.asarray(w, dtype=complex) * (np.asarray(u) ** 2 - 1.0)) / (2.0 * np.asarray(u) * a)
        if self.chart == "x":
            return w, u, dw, du
        return u, w, du, dw

    def frame(self, s):
        """(x, y, dx/ds, dy/ds) at parameter s (scalar or array), evaluated
        afresh; at the collocation nodes `integrals` reads the kept geometry
        through `chart_frame` instead."""
        return self.chart_frame(*self.geometry(s))

    def kept(self, key, compute):
        """compute(), evaluated once per key and kept in the segment's store.

        A cycle passes the same segments many times (the 96 segments of v_3
        run over 14 paths), so what every pass reads again is computed once:
        the endpoints, the geometry at the collocation nodes of `integrals`
        (keyed by panel count) and the distances from the poles of its log
        basis.  The store is shared with every reversed copy of the segment
        and a kept value belongs to the canonical direction: compute() has
        to give it there, and a reversed copy converts it as it reads it.
        The arrays of a kept tuple are read-only.
        """
        if key not in self._store:
            value = compute()
            if isinstance(value, tuple):
                for a in value:
                    if isinstance(a, np.ndarray):
                        a.flags.writeable = False
            self._store[key] = value
        return self._store[key]

    def _endpoints(self):
        """(start, end) in this direction, kept in the canonical one, where
        a reversed copy evaluates s = 1 and s = 0 (its canonical 0 and 1)."""
        a, b = self.kept("ends", lambda: tuple(
            CurvePoint(complex(x), complex(y), self.t)
            for x, y, _, _ in (self.frame(self._canonical_s(s)) for s in (0.0, 1.0))))
        return (b, a) if self.reversed else (a, b)

    def start_point(self) -> CurvePoint:
        return self._endpoints()[0]

    def end_point(self) -> CurvePoint:
        return self._endpoints()[1]

    def reverse(self) -> "Segment":
        """The same segment run backwards, sharing its samples and its store."""
        out = copy.copy(self)
        out.reversed = not self.reversed
        return out

    def is_reverse_of(self, other: "Segment") -> bool:
        return self.uid == other.uid and self.reversed != other.reversed

    def __repr__(self):
        return f"Segment(uid={self.uid}{'R' if self.reversed else ''}, chart={self.chart})"


@dataclass
class Cycle:
    """Ordered chain of segments; closed when used for integrals."""

    segments: List[Segment]
    t: complex
    base_point: CurvePoint
    label: str = ""

    def check_chain(self, require_closed: bool = True):
        pts = [seg.start_point() for seg in self.segments]
        for p in pts:
            p.check()
        for a, b in zip(self.segments, self.segments[1:]):
            pa, pb = a.end_point(), b.start_point()
            gap = abs(pa.x - pb.x) + abs(pa.y - pb.y)
            if gap > CLOSURE_TOL * 100:
                raise ValueError(f"segment chain gap {gap:g} between {a} and {b}")
        if require_closed and self.segments:
            p0 = self.segments[0].start_point()
            p1 = self.segments[-1].end_point()
            gap = abs(p0.x - p1.x) + abs(p0.y - p1.y)
            if gap > CLOSURE_TOL * 100:
                raise ValueError(f"cycle not closed: gap {gap:g}")
        return self

    def reverse(self) -> "Cycle":
        return Cycle(
            [seg.reverse() for seg in reversed(self.segments)],
            self.t,
            self.base_point,
            label=f"({self.label})^-1",
        )

    def simplified(self) -> "Cycle":
        """Drop adjacent mutually-reverse segments (free homotopy reduction
        of the chain; all integrals of closed forms and all holonomies are
        unchanged)."""
        out: List[Segment] = []
        for seg in self.segments:
            if out and out[-1].is_reverse_of(seg):
                out.pop()
            else:
                out.append(seg)
        return Cycle(out, self.t, self.base_point, label=self.label)


def base_point(t: complex) -> CurvePoint:
    x0 = -cmath.sqrt(1.0 - t)
    return CurvePoint(x0, 0.0, t).check()


def real_oval(t: float) -> Cycle:
    """The real oval vanishing at the origin, counterclockwise from
    p0 = (-sqrt(1-t), 0); requires 0 < t < 1."""
    if not (isinstance(t, (int, float)) and 0.0 < t < 1.0):
        raise ValueError("the real oval needs real t in (0, 1)")
    t = float(t)
    x0 = np.sqrt(1.0 - t)
    dg = np.sqrt(1.0 - np.sqrt(t))
    segs = [
        Segment("y", Line(0.0, -dg), t, -x0),       # p0 -> (-dg, -dg)
        Segment("x", Line(-dg, 0.0), t, -dg),       # -> (0, -y0)
        Segment("x", Line(0.0, dg), t, -x0),        # -> (dg, -dg)
        Segment("y", Line(-dg, 0.0), t, dg),        # -> (x0, 0)
        Segment("y", Line(0.0, dg), t, x0),         # -> (dg, dg)
        Segment("x", Line(dg, 0.0), t, dg),         # -> (0, y0)
        Segment("x", Line(0.0, -dg), t, x0),        # -> (-dg, dg)
        Segment("y", Line(dg, 0.0), t, -dg),        # -> p0
    ]
    return Cycle(segs, t, base_point(t), label="gamma").check_chain()


def loop_radius(t: complex) -> float:
    return np.sqrt(abs(t)) / 2.0


def _check_saddle_level(t: complex) -> None:
    """ValueError at a level that is not finite, at t = 0, where the loops
    of radius sqrt|t|/2 are points, and at |t| > 0.5: the loop must enclose
    the branch point sqrt(1-t), and near t = 0.64 it stops doing so."""
    if not cmath.isfinite(t):
        raise ValueError(f"the level t = {t} is not finite")
    if t == 0:
        raise ValueError("at t = 0 the saddle loops shrink to the punctures; "
                         "choose a level t != 0")
    if abs(t) > 0.5:
        raise ValueError("|t| too large for the saddle chart (limit 0.5)")


def saddle_orientation(i: int) -> int:
    """+1 = counterclockwise x-circle, -1 = clockwise.

    Counterclockwise exactly when the local model coefficient 4 sx sy of
    the saddle is negative; with the loop at (1,-1) pinned to give
    +2 pi i against dx/(x-1), the other three follow this rule."""
    sx, sy = SADDLES[i]
    return 1 if sx * sy < 0 else -1


def _saddle_circle(i: int, t: complex, dep_seed: complex) -> Segment:
    """The x-circle of loop i, from its top sx + i r with y = dep_seed."""
    sx, _ = SADDLES[i]
    th0 = cmath.pi / 2
    arc = Arc(sx, loop_radius(t), th0, th0 + saddle_orientation(i) * 2 * cmath.pi)
    return Segment("x", arc, t, dep_seed)


def vanishing_loop(i: int, t: complex) -> Cycle:
    """Saddle loop i at level t; |t| <= 0.5 keeps it inside the saddle chart.

    The loop starts on top of its x-circle with the y-branch nearest the
    saddle; `CycleFactory.based_loop` gives the same loop based at p0.
    """
    if i not in SADDLES:
        raise ValueError("loop index must be 0..3")
    _check_saddle_level(t)
    sx, sy = SADDLES[i]
    xb = sx + 1j * loop_radius(t)
    seg = _saddle_circle(i, t, complex(nearest_root(xb * xb - 1.0, t, sy)))
    end = seg.end_point()
    start = seg.start_point()
    if abs(end.y - start.y) > CLOSURE_TOL * 100:
        raise BranchTrackingError(f"saddle loop {i} does not close at t={t}")
    return Cycle([seg], t, start, label=f"delta{i}").check_chain()


class CycleFactory:
    """Builds and caches based loops, tails and the real oval at a fixed level t.

    Sharing the cached segments lets concatenations cancel adjacent
    tail/tail^-1 pairs exactly (same segment object, opposite orientation).
    """

    def __init__(self, t: complex):
        self.t = t
        self.p0 = base_point(t)
        self._lift_segments: Dict[int, Segment] = {}
        self._based: Dict[int, Cycle] = {}
        self._oval: Optional[Cycle] = None

    def _lift_segment(self, sign: int) -> Segment:
        if sign not in self._lift_segments:
            seg = Segment("y", Line(0.0, sign * LIFT_Y), self.t, self.p0.x)
            self._lift_segments[sign] = seg
        return self._lift_segments[sign]

    def _tail(self, i: int, sign: int) -> List[Segment]:
        """p0 -> top of circle i, lifting first to y = sign * LIFT_Y."""
        t = self.t
        sx, sy = SADDLES[i]
        r = loop_radius(t)
        lift = self._lift_segment(sign)
        p1 = lift.end_point()
        h = RECT_HEIGHT
        x1 = p1.x
        seg1 = Segment("x", Line(x1, x1 + 1j * h), t, p1.y)
        seg2 = Segment("x", Line(x1 + 1j * h, sx + 1j * h), t,
                       seg1.end_point().y)
        seg3 = Segment("x", Line(sx + 1j * h, sx + 1j * r), t,
                       seg2.end_point().y)
        return [lift, seg1, seg2, seg3]

    def based_loop(self, i: int) -> Cycle:
        """Tail * circle * tail^-1, based at p0, homotopy class delta_i."""
        if i in self._based:
            return self._based[i]
        _check_saddle_level(self.t)
        t = self.t
        sx, sy = SADDLES[i]
        for sign in (1, -1):
            tail = self._tail(i, sign)
            arrival = tail[-1].end_point()
            # the tail must continue onto the branch near the saddle
            if abs(arrival.y - sy) < abs(arrival.y + sy):
                break
        else:
            raise BranchTrackingError(
                f"no tail lift reaches the saddle branch for loop {i}"
            )
        circle = _saddle_circle(i, t, arrival.y)
        segs = tail + [circle] + [s.reverse() for s in reversed(tail)]
        cyc = Cycle(segs, t, self.p0, label=f"delta{i}@p0").check_chain()
        self._based[i] = cyc
        return cyc

    def cycle_of_word(self, w: Word) -> Cycle:
        """Concatenated based loops realizing a word in d0..d3 (or exactly g)."""
        if w == Word.gen(Gen.G):
            if isinstance(self.t, complex) and self.t.imag:
                raise ValueError("the oval word g needs real t")
            if self._oval is None:
                self._oval = real_oval(float(self.t.real if isinstance(self.t, complex) else self.t))
            return self._oval
        if Gen.G in w.generators_used():
            raise ValueError("words mixing g with saddle letters have no cycle")
        segs: List[Segment] = []
        for g, e in w.letters:
            loop = self.based_loop({Gen.D0: 0, Gen.D1: 1, Gen.D2: 2, Gen.D3: 3}[Gen(g)])
            cyc = loop if e == 1 else loop.reverse()
            segs.extend(cyc.segments)
        out = Cycle(segs, self.t, self.p0, label=f"cycle({w!r})").simplified()
        if out.segments:
            out.check_chain()
        return out

