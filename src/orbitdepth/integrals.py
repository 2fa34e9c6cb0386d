"""Quadrature of (iterated) 1-forms along cycles.

Forms are linear combinations of the logarithmic differentials
eta_i = df_i/f_i with f = (x+1, y-1, x-1, y+1) (`log_basis`); a moment
integral phi_i dphi_j is the length-2 iterated integral of (eta_i, eta_j)
with the inner accumulator seeded by the starting log value.

A function learns its level only from what it integrates over: the oval
checks take the oval cycle, the word checks a `CycleFactory`, and both read
`t` from it.  `iterated_integral` is the one place a tolerance can be set;
the named checks fix theirs.

Each segment is cut into panels (12 per arc, 6 per line) and every panel
uses a degree-32 Chebyshev-Lobatto collocation rule whose
cumulative-integration matrix gives the inner partial integrals of an
iterated integral in the same sweep; leaf transport and the eps-jets of
`holonomy` run on the same rule.  Every panel layer walks a cycle with one
function, `_walk`: it cuts the cycle into blocks (`_blocks`), runs of
consecutive segments in one chart, at most _BLOCK_PANELS panels at the
base counts, and threads the layer's state through them, from the cycle's
start to its end.  A layer is a start state and one block sweep, a plain
function sweep(block, state, rounds) that takes a block's panels side by
side in one array (`_block_panels`) from the state at the block's start
to the state at its end: the iterated integrals carry their prefixes,
transport the leaves' endpoints and int omega, the jets the chart, the
dependent jet and the jet of int omega.
The running integrals carry across the junctions of a block as across the
panels of one segment.  `_settle` holds the one refinement rule of every
layer: a segment is accepted when every integrand on every one of its
panels has a Chebyshev tail within the layer's tolerance (`_tail`); when a
segment of a block fails, that segment doubles its own panel count and the
block is swept again from the same incoming state, so only the panels that
need more nodes get them; and a segment met again in the same direction,
which a word cycle does many times, starts at the rounds it settled at the
last time instead of sweeping the counts that failed there.  A
pole-clearance check runs first.

A degree-n panel converges like rho^-n, rho the Bernstein-ellipse
parameter of the nearest singularity (Trefethen, Approximation Theory and
Approximation Practice, ch. 8), and its Chebyshev coefficients decay at
the same rate, so the last few of them measure the panel's error from its
own nodes (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS
43(4), 2017).  The saddle loops are circles of radius sqrt(t)/2 = 0.3
around x = +-1 at t = 0.36, and the branch points x = +-sqrt(1 - t) = +-0.8
lie 0.1 from them; at degree 32 a quarter of the segments of the v_3 cycle
need a doubling (14 of them a second one at the 1e-13 of leaf transport)
and the oval none.  A cycle passes the same paths many times, so each
segment keeps what every pass reads again (`Segment.kept`), one entry per
value for both directions: its geometry at the nodes of each panel count,
computed in its canonical direction and read flipped by its reversed
copies (`_node_geometry`), and its distances from the four poles of the
log basis, which do not depend on the direction (`_pole_distances`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Arc, Cycle, CycleFactory, Segment, vanishing_loop
from .words import X_ELT, Z_ELT, Word, commutator

TWO_PI_I = 2j * cmath.pi

_CHEB_N = 32


def _chebyshev_at(x) -> np.ndarray:
    """T_0..T_n (n = _CHEB_N) at the points x, one row per point."""
    return np.cos(np.outer(np.arccos(x), np.arange(_CHEB_N + 1)))


# The Chebyshev-Lobatto nodes xi_k = -cos(pi k / n), ascending from -1 to 1,
# and the inverse of the Vandermonde of T_0..T_n at them: its rows take a
# panel's values at the nodes to the Chebyshev coefficients of their
# interpolant.  Every panel matrix below is built on this one inverse.
_XI = -np.cos(np.pi * np.arange(_CHEB_N + 1) / _CHEB_N)
_INV_V = np.linalg.inv(_chebyshev_at(_XI))


def _chebyshev_cumulative() -> np.ndarray:
    """Q with (Q g)[k] ~= integral_0^{u_k} g(u) du for g sampled at the
    nodes u = (xi + 1) / 2."""
    n, xi = _CHEB_N, _XI
    # antiderivatives P_j with P_j(-1) = 0, evaluated at the nodes
    P = np.zeros((n + 1, n + 1))
    P[:, 0] = xi + 1.0
    P[:, 1] = (xi ** 2 - 1.0) / 2.0
    for j in range(2, n + 1):
        tjp = np.cos((j + 1) * np.arccos(xi))
        tjm = np.cos((j - 1) * np.arccos(xi))
        val = tjp / (2.0 * (j + 1)) - tjm / (2.0 * (j - 1))
        at_m1 = np.cos((j + 1) * np.pi) / (2.0 * (j + 1)) - np.cos((j - 1) * np.pi) / (2.0 * (j - 1))
        P[:, j] = val - at_m1
    return 0.5 * (P @ _INV_V)  # 0.5: du = dxi / 2


_NODES = (_XI + 1.0) / 2.0
_QMAT = _chebyshev_cumulative()
# (g @ _TAIL)[i] is the coefficient of T_{n-3+i} in the interpolant of g at
# the nodes: the last four rows of the inverse Vandermonde, transposed
_TAIL = _INV_V[-4:].T


class PoleOnPathError(ValueError):
    pass


class QuadratureError(ValueError):
    pass


class Form:
    """A 1-form pulled back to segments; values() consumes frame arrays."""

    def values(self, x, y, dxds, dyds):
        raise NotImplementedError

    def pole_clearance(self, distances) -> float:
        """The path's distance from the form's poles, given its distances
        from the zeros of f_1..f_4 (`_pole_distances`)."""
        return np.inf


def log_basis(i: int, x, y):
    """f_i of the log basis f = (x+1, y-1, x-1, y+1), so eta_i = df_i / f_i."""
    if i == 1:
        return x + 1.0
    if i == 2:
        return y - 1.0
    if i == 3:
        return x - 1.0
    if i == 4:
        return y + 1.0
    raise ValueError(f"eta index {i} out of range")


@dataclass(frozen=True)
class EtaCombo(Form):
    """sum_i c_i eta_i over the log basis."""

    coeffs: Tuple[Tuple[int, complex], ...]

    def values(self, x, y, dxds, dyds):
        out = np.zeros(np.shape(x), dtype=complex)
        for i, c in self.coeffs:
            if c != 0:
                out = out + c * (dyds if i % 2 == 0 else dxds) / log_basis(i, x, y)
        return out

    def pole_clearance(self, distances) -> float:
        for i, _ in self.coeffs:
            if i not in (1, 2, 3, 4):
                raise ValueError(f"eta index {i} out of range")
        return min((distances[i - 1] for i, c in self.coeffs if c != 0), default=np.inf)


def eta(i: int, scale: complex = 1.0) -> EtaCombo:
    return EtaCombo(((i, scale),))


@dataclass(frozen=True)
class XdY(Form):
    """x dy, used for the orientation certificate."""

    def values(self, x, y, dxds, dyds):
        return x * dyds


MIN_POLE_CLEARANCE = 5e-2


def _segment_panels(seg: Segment, rounds: int) -> int:
    base = 12 if isinstance(seg.path, Arc) else 6
    return base * (1 << rounds)


def _cumulative(g, h):
    """Running integral of g over consecutive panels: g has the panels on
    axis -2 and the nodes on axis -1 (any leading axes), and h is one width
    for every panel or an array of one width per panel.  The result holds
    int_0^s g at every node, the within-panel _QMAT rule plus the totals of
    the panels before."""
    within = np.asarray(h)[..., None] * (g @ _QMAT.T)
    totals = within[..., -1]
    before = np.concatenate((np.zeros_like(totals[..., :1]),
                             np.cumsum(totals[..., :-1], axis=-1)), axis=-1)
    return within + before[..., None]


def _integral(g, h):
    """int_0^1 g over consecutive panels, with g and h as in _cumulative:
    its last value, without the running values before it."""
    return (np.asarray(h) * (g @ _QMAT[-1])).sum(axis=-1)


def _tail(g) -> np.ndarray:
    """Chebyshev tail of g per panel (axis -2, nodes on axis -1): the
    largest of its last four coefficients relative to the panel's largest
    value, the worst over any leading axes."""
    tail = np.abs(g @ _TAIL).max(axis=-1)
    ratio = tail / np.maximum(np.abs(g).max(axis=-1), np.finfo(float).tiny)
    return ratio.reshape(-1, ratio.shape[-1]).max(axis=0)


SEGMENT_MAX_ROUNDS = 6  # a segment's panels double at most five times

# A panel passes when its last four Chebyshev coefficients are at most tol
# of its largest value (which bounds every coefficient within a factor 2).
# For an integrand analytic in a Bernstein ellipse the coefficients decay
# geometrically, so the dropped ones sum to a few times the last four, and
# integrating T_k divides by about k (int T_k = T_{k+1} / 2(k+1) -
# T_{k-1} / 2(k-1)): a passing panel's running integral is good to about
# tol / 10 of its scale.  Each layer passes its own accuracy as tol: the
# iterated integrals their `tol`, the jets JET_TOL, leaf transport
# SEGMENT_ATOL.  At t0 = 0.36 the tails near the branch points fall about
# 4000 times per doubling (2.5e-7, 7e-11, 1e-15 on the v_3 cycle), so
# tolerances from 1e-13 to 1e-10 fail the same segments at the base count;
# 1e-10 passes them after one doubling, 1e-13 after two.  Roundoff puts a
# floor near 1e-15 under the tails (the oval's jets read at most 1.5e-15,
# the transported leaves 6e-16), below every tolerance of the package.
def _settle(segments: Sequence[Segment], sweep, what: str, tol: float,
            settled: Dict[Tuple[int, bool], int]):
    """The result of sweep(rounds per segment) -> (result, each segment's
    worst tail) once every tail is at most tol.

    A segment starts at the rounds it last settled at in the same direction
    (`settled`, keyed by (uid, reversed), which it updates), its counts
    below having failed there, and a segment not met before at its base
    panel count; only the segments that fail double their panels, and the
    sweep runs again from the same incoming state.  QuadratureError,
    naming the segment, its panel count and its last tail, when a failing
    segment has had SEGMENT_MAX_ROUNDS counts."""
    pairs = [(seg.uid, seg.reversed) for seg in segments]
    rounds = [settled.get(pair, 0) for pair in pairs]
    while True:
        result, tails = sweep(rounds)
        failing = [i for i, tail in enumerate(tails) if not tail <= tol]
        if not failing:
            settled.update(zip(pairs, rounds))
            return result
        for i in failing:
            if rounds[i] + 1 >= SEGMENT_MAX_ROUNDS:
                raise QuadratureError(
                    f"{what}: Chebyshev tail {tails[i]:.3g} on {segments[i]!r} at "
                    f"{_segment_panels(segments[i], rounds[i])} panels, above {tol:g}")
            rounds[i] += 1


# At most as many panels in a block as in the largest single-segment array of
# the base rounds (an arc at round 1): longer blocks save little and cost memory.
_BLOCK_PANELS = 24


def _blocks(cycle: Cycle) -> List[List[Segment]]:
    """The cycle's segments cut into runs of consecutive segments in one
    chart, each holding at most _BLOCK_PANELS panels at the base counts."""
    blocks, size = [], 0
    for seg in cycle.segments:
        npan = _segment_panels(seg, 0)
        if not blocks or seg.chart != blocks[-1][0].chart or size + npan > _BLOCK_PANELS:
            blocks.append([])
            size = 0
        blocks[-1].append(seg)
        size += npan
    return blocks


def _walk(cycle: Cycle, sweep, what: str, tol: float, state):
    """The state at the cycle's end, carried block by block (`_blocks`) from
    `state` at its start: sweep(block, state, rounds per segment) is
    (the state at the block's end, each segment's worst tail), and
    `_settle` runs it with the block and its incoming state bound until
    every tail is at most tol.  This is the one walk over a cycle's
    segments of every panel layer."""
    settled: Dict[Tuple[int, bool], int] = {}
    for block in _blocks(cycle):
        state = _settle(block, partial(sweep, block, state), what, tol, settled)
    return state


def _panel_nodes(npan: int) -> np.ndarray:
    """Parameters s of the collocation nodes of npan equal panels of [0, 1],
    one row per panel."""
    return (np.arange(npan)[:, None] + _NODES) * (1.0 / npan)


def _node_geometry(seg: Segment, npan: int):
    """The segment's (w, dw/ds, u) at the collocation nodes of npan panels,
    kept (`Segment.kept`).  It is computed once per segment, in its
    canonical direction: the nodes are symmetric, s -> 1 - s maps panel k,
    node j onto panel npan-1-k, node n-j, so a reversed copy reads it
    flipped on both axes, with dw/ds negated (w and u as read-only views,
    dw/ds as a fresh array, made read-only too)."""
    kept = seg.kept(npan, lambda: (seg.reverse() if seg.reversed else seg)
                    .geometry(_panel_nodes(npan)))
    if not seg.reversed:
        return kept
    w, dw, u = kept
    dw = -dw[::-1, ::-1]
    dw.flags.writeable = False
    return w[::-1, ::-1], dw, u[::-1, ::-1]


def _block_panels(block: Sequence[Segment], rounds: Sequence[int]):
    """The panel counts of a block's segments at their rounds, the width of
    each panel, and the segments' (w, dw/ds, u) at the nodes side by side,
    one row per panel."""
    npans = [_segment_panels(seg, r) for seg, r in zip(block, rounds)]
    h = np.repeat(1.0 / np.array(npans), npans)
    geometry = tuple(map(np.concatenate,
                         zip(*(_node_geometry(seg, n) for seg, n in zip(block, npans)))))
    return npans, h, geometry


def _segment_tails(tail: np.ndarray, npans: Sequence[int]) -> np.ndarray:
    """The worst per-panel tail over each segment's panels."""
    return np.maximum.reduceat(tail, np.cumsum([0] + list(npans[:-1])))


def _block_sweep(block: Sequence[Segment], forms: Sequence[Form],
                 prefixes: Sequence[complex], rounds: Sequence[int]):
    """The iterated integrals' prefixes at the block's end from those at its
    start, and each segment's worst tail of the integrands on its panels."""
    npans, h, geometry = _block_panels(block, rounds)
    x, y, dxds, dyds = block[0].chart_frame(*geometry)
    out, tail, acc = [], 0.0, None
    for j, form in enumerate(forms):
        g = form.values(x, y, dxds, dyds)
        if j > 0:
            g = g * acc
        tail = np.maximum(tail, _tail(g))
        if j + 1 < len(forms):
            acc = prefixes[j] + _cumulative(g, h)
            out.append(complex(acc[-1, -1]))
        else:
            out.append(complex(prefixes[j] + _integral(g, h)))
    return out, _segment_tails(tail, npans)


_CLEARANCE_S = np.linspace(0.0, 1.0, 129)


def _pole_distances(seg: Segment) -> Tuple[float, float, float, float]:
    """min |f_i| over the segment, i = 1..4 (the poles of eta_1..eta_4),
    judged on _CLEARANCE_S, which s -> 1 - s maps onto itself: the same in
    both directions, so computed once for both."""
    def compute():
        w, u = seg.independent(_CLEARANCE_S), seg.dependent(_CLEARANCE_S)
        x, y = (w, u) if seg.chart == "x" else (u, w)
        return tuple(float(np.min(np.abs(log_basis(i, x, y)))) for i in (1, 2, 3, 4))

    return seg.kept("clearance", compute)


def _check_clearance(cycle: Cycle, forms: Sequence[Form]):
    """PoleOnPathError where a form's pole lies within MIN_POLE_CLEARANCE of
    a segment (`_pole_distances`)."""
    for seg in cycle.segments:
        distances = _pole_distances(seg)
        for form in forms:
            c = form.pole_clearance(distances)
            if c < MIN_POLE_CLEARANCE:
                raise PoleOnPathError(
                    f"pole within {c:.3g} of segment {seg!r}"
                )


def iterated_integral(cycle: Cycle, forms: Sequence[Form],
                      inits: Optional[Sequence[complex]] = None,
                      tol: float = 1e-10) -> complex:
    """Iterated integral of the ordered forms along the cycle.

    The first form is accumulated first (innermost); with this convention
    the commutator identity int_{[s1,s2]} w1 w2 = det(int_{s_i} w_j) holds.
    `inits` seeds the inner accumulators (the log starting values of moment
    integrals); the outermost seed is forced to zero.  The prefixes are
    the state of the cycle's walk (`_walk`); a block's segments whose
    integrands have Chebyshev tails above `tol` double their panels, and
    the block is swept again from the same prefixes (`_settle`).
    """
    if not 1 <= len(forms) <= 4:
        raise ValueError("iterated integrals support lengths 1..4")
    if inits is None:
        inits = [0.0] * len(forms)
    inits = list(inits)
    inits[-1] = 0.0
    _check_clearance(cycle, forms)
    prefixes = _walk(cycle, lambda block, prefixes, rounds:
                     _block_sweep(block, forms, prefixes, rounds),
                     "iterated integral", tol, [complex(v) for v in inits])
    return prefixes[-1]


def moment_integral(cycle: Cycle, i: int, j: int) -> complex:
    """int phi_i dphi_j with phi_i = log f_i continued from the cycle start."""
    start = cycle.segments[0].start_point()
    init = cmath.log(log_basis(i, start.x, start.y))
    return iterated_integral(cycle, [eta(i), eta(j)], inits=[init, 0.0])


# ---------------------------------------------------------------------------
# Named checks.  Each takes the cycles it integrates over, or the factory of
# its words, and reads the level from them.

# int over saddle loop i of eta_j.  Periods of the based sum d0+d1+d2+d3
# pair to zero with eta_1..eta_3 (the orbit classes are orthogonal to
# them), forcing the loop-0 row.
PAIRING_EXPECTED = {
    (0, 1): -TWO_PI_I, (0, 2): 0.0, (0, 3): 0.0,
    (1, 1): 0.0, (1, 2): 0.0, (1, 3): TWO_PI_I,
    (2, 1): 0.0, (2, 2): TWO_PI_I, (2, 3): -TWO_PI_I,
    (3, 1): TWO_PI_I, (3, 2): -TWO_PI_I, (3, 3): 0.0,
}

PAIRING_TOL = 1e-9  # largest deviation of a pairing entry from its expected value
CAUCHY_TOL = 1e-8  # largest modulus of a vanishing integral of cauchy_suite

# The commutator integrals and period determinants settle their panels at
# 1e-9: at 1e-10 the integral over the cycle of [x, z] would sweep 576
# panels instead of 396, and period_determinant of x and z 600 instead of 456.
_WORD_TOL = 1e-9


def pairing_table(t: complex) -> Dict[Tuple[int, int], complex]:
    """Integrals of eta_1..eta_3 over the saddle loops 1..3 (and loop 0)."""
    out = {}
    for i in (0, 1, 2, 3):
        loop = vanishing_loop(i, t)
        for j in (1, 2, 3):
            out[(i, j)] = iterated_integral(loop, [eta(j)])
    return out


def oval_orientation_certificate(gamma: Cycle) -> float:
    """int_gamma x dy over the real oval; positive certifies the
    counterclockwise orientation."""
    return iterated_integral(gamma, [XdY()]).real


def cauchy_suite(gamma: Cycle) -> Dict[str, complex]:
    """The three vanishing integrals over the real oval at level gamma.t.

    * phi1 dphi3: log(x+1) against dx/(x-1) (x-holomorphic integrand);
    * log(t/(y^2-1)) dy/(y-1): the collapsed order-2 combination, with
      d log(t/(y^2-1)) = -(eta2 + eta4);
    * dphi2 dphi2: iterated square of a single logarithmic form.
    """
    out = {}
    out["phi1_dphi3"] = moment_integral(gamma, 1, 3)
    c0 = cmath.log(-complex(gamma.t))  # log of t/(y^2-1) at the start point y = 0
    out["log_t_over_y2m1_dphi2"] = iterated_integral(
        gamma,
        [EtaCombo(((2, -1.0), (4, -1.0))), eta(2)],
        inits=[c0, 0.0],
    )
    out["dphi2_dphi2"] = iterated_integral(gamma, [eta(2), eta(2)])
    return out


def v2_double_integral(factory: CycleFactory) -> complex:
    """int over the cycle of [x, z] of dphi2 dphi3; equals 4 pi^2."""
    cyc = factory.cycle_of_word(commutator(X_ELT, Z_ELT))
    return iterated_integral(cyc, [eta(2), eta(3)], tol=_WORD_TOL)


def shuffle_defect(cycle: Cycle, f1: Form, f2: Form) -> float:
    """|int f1 f2 + int f2 f1 - (int f1)(int f2)| for a closed based cycle."""
    a = iterated_integral(cycle, [f1, f2])
    b = iterated_integral(cycle, [f2, f1])
    p = iterated_integral(cycle, [f1])
    q = iterated_integral(cycle, [f2])
    return abs(a + b - p * q)


def period_determinant(factory: CycleFactory, w1: Word, w2: Word, i: int, j: int) -> complex:
    """det [[int_{w1} eta_i, int_{w1} eta_j], [int_{w2} eta_i, int_{w2} eta_j]]."""

    def periods(w):
        cycle = factory.cycle_of_word(w)
        return [iterated_integral(cycle, [eta(k)], tol=_WORD_TOL) for k in (i, j)]

    (a, b), (c, d) = periods(w1), periods(w2)
    return a * d - b * c


def determinant_defect(factory: CycleFactory, w1: Word, w2: Word, i: int, j: int) -> float:
    """|int_{[w1,w2]} eta_i eta_j - period_determinant|."""
    comm_cycle = factory.cycle_of_word(commutator(w1, w2))
    lhs = iterated_integral(comm_cycle, [eta(i), eta(j)], tol=_WORD_TOL)
    return abs(lhs - period_determinant(factory, w1, w2, i, j))
