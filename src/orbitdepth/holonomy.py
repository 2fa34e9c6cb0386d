"""Poincare return maps of the perturbed foliation dF + eps * omega = 0.

omega = a1(F) dx/(x+1) + a2(F) dy/(y-1) + a3(F) dx/(x-1) = P dx + Q dy.
A leaf of the perturbed foliation satisfies

    (F_x + eps P) dx + (F_y + eps Q) dy = 0,

so along a segment whose independent coordinate w follows the base path
the dependent coordinate u has an explicit slope, and integrated along the
leaf the equation reads F(w, u) = F(start) - eps J with J = int omega.
Transport starts at the exact curve point over the base point, follows
every segment of a cycle, and the return value is F at the endpoint.

Transport runs on the Chebyshev-Lobatto panels of `integrals`, over the
walk of the quadrature (`integrals._walk`): its state is the leaves'
endpoint (x, y) and int omega, with every leaf of an eps array carried at
once (a scalar eps is the n = 1 case).  Within a block a fixed point on
the level relation alternates u <- the root of
(w^2 - 1)(u^2 - 1) = F(block start) - eps J nearest the last iterate (the
base curve to begin with) and J <- the running int of omega over the
block, from J = 0.  The segments of a block whose Chebyshev tails of omega
or of the slope exceed SEGMENT_ATOL on any leaf double their panels, and
the block runs again from J = 0; a segment met again in the same direction
starts at the rounds it settled at (`integrals._settle`).  The endpoint
carried on is that of the differential form, u(0) + int slope dw, not the
root, so the displacement check F(end) - t = -eps int omega in
`holonomy_displacement` compares two independently integrated quantities.
A chart switch needs no slide: the first segment of a block has its
independent path shifted by the leaf's offset delta from the base path at
its start, w + delta (1 - s) (`_offset_ramp`), so the leaf ends that
segment on the base fiber and runs through the block's later junctions
unshifted.  Transport reads delta from the endpoint, w(start) minus the
base path's.

The return map P(t, eps) - t = c1 eps + c2 eps^2 + c3 eps^3 + ... has its
coefficients from one source, the jets, and direct transport witnesses them.

Jets (`jet_along`, Francoise's recursion for the successive derivatives
of a first return map): the leaf's dependent coordinate is
u0 + eps u1 + eps^2 u2, with u0 the base segment's own curve point.  Order j
is a linear ODE u_j' = g_dep u_j + r_j, r_j the eps^j part of the slope with
u_j set to 0, and 1/F_dep solves its homogeneous part (F_dep = dF/d(dep) on
the base curve; the unperturbed leaf at level t + tau lies at
u0 + tau / F_dep to first order), so
u_j = (F_dep(0) u_j(0) + int F_dep r_j) / F_dep in closed form.  The eps^j
coefficient J_j of int omega gives c_{j+1} = -J_j.  The jet is carried over
the walk of the transport and the quadrature (`integrals._walk`) in the
state (chart, dependent jet, jet of int omega), by the same refinement and
restart rule.  Its block sweep holds the chart-switch rule: the next
block's first path is shifted as the transport's is, with the leaf's
O(eps) dependent jet as delta, so the leaf starts on it with the new
dependent coordinate (the old independent one) exactly on the base curve:
u_j(0) = 0 after every switch.  A block is the same integration as its
segments one at a time: within a chart, F_dep u_j is continuous where one
segment ends and the next starts (one curve point, one dependent
coordinate), so the closed form from the block's start runs on through
each junction, and only a first segment after a switch is shifted.

A block sweep forms each eps-order of the leaf quantities once, lowest
first: the squares x^2 - 1 and y^2 - 1, F, F_x, F_y, the coefficients
a_i(F), omega's coefficients, the slope and the form.  u_j enters the
eps^j coefficient of each of them only linearly, through its eps^0
derivative in the dependent coordinate, and nowhere else, since every
other term of order j multiplies orders below j.  So order j is formed
first with u_j = 0 as far as the slope needs it (r_j); once u_j is solved,
the dependent square, the slope and its denominator F_dep + eps p_dep add
their derivative times u_j (closed forms at eps^0), and the rest of order j
is formed with u_j in place.  F is the level t at eps^0, so a_i(F) is
composed from the Taylor coefficients a_i^(k)(t) / k! of the exact
derivatives and the powers of F - t; omega's coefficients
a1/(x + 1) + a3/(x - 1) and a2/(y - 1) are
((a1 + a3) x + a3 - a1) / (x^2 - 1) and a2 (y + 1) / (y^2 - 1), one series
division each by a square that F needs anyway.

Witness (`remainder_orders`, the direct path): the remainder
R(eps) = |disp(eps) - (c1 eps + c2 eps^2 + c3 eps^3)| of the transported
displacement past the jet is O(eps^4) when c1..c3 are right, so
log2(R(E) / R(E/2)) must be 4 at E = +-WITNESS_EPS; an error in c_j leaves
a term of order j that dominates R at small eps and pulls the order down.
All four leaves +-E, +-E/2 run in one stacked transport.  R(+-E/2) must
stand above WITNESS_FLOOR, the transport's error, or the orders are
refused: at an exact center R is roundoff and its order means nothing.

Every function here takes the cycle it runs along and reads the level
from it (`cycle.t`); the order-2 assembly and the order-3 center
prediction at the end take the real oval.  They return values; the
check records that compare them with their tolerances are built in
`reporting`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Tuple

import numpy as np

from .curves import Cycle, Segment, curve_f, nearest_root
from .integrals import (
    _NODES,
    _block_panels,
    _cumulative,
    _integral,
    _panel_nodes,
    _segment_tails,
    _tail,
    _walk,
    eta,
    iterated_integral,
    moment_integral,
)
from .melnikov import Deformation, m3_tilde_coefficient, mv
from .ratfunc import RatFunc, wronskian

FIX_RTOL = 1e-15  # the level fixed point settles when J moves less than this, relative
FIX_MAX_ITERATIONS = 60
# absolute accuracy of a segment's endpoints and int omega, and the tail
# tolerance of its panels
SEGMENT_ATOL = 1e-13

# Coefficients of order mu equal (-1)^mu times the nested-Wronskian and
# double-integral predictions.  The transport here expands the return map of
# dF + eps omega = 0 in eps, and along its leaves dF = -eps omega, so the
# order-1 displacement is -eps int omega where the classical normalization
# counts +eps int omega: the two expansions differ by eps -> -eps.  The
# coefficient of order mu is that of eps^mu, so it carries (-1)^mu, the
# mu-th power of the order-1 sign.
def resolved_sign(order: int) -> int:
    return -1 if order % 2 else 1


class TransportError(ValueError):
    pass


class LeafField:
    """Right-hand sides of the leaf equation for a fixed deformation, one
    leaf per entry of the eps array."""

    def __init__(self, d: Deformation, eps: np.ndarray):
        self.a1, self.a2, self.a3 = d.a1.callable(), d.a2.callable(), d.a3.callable()
        self.eps = np.asarray(eps, dtype=complex)

    def slope_and_form(self, x, y, chart: str):
        """(d(dep)/d(indep), omega(tangent)/d(indep)) on the perturbed leaves.

        The second value integrates to int omega along the trajectory, so
        F(end) - F(start) = -eps * int omega without cancellation error.
        """
        eps = self.eps
        xx, yy = x * x - 1.0, y * y - 1.0
        fval = xx * yy
        fx = 2.0 * x * yy
        fy = 2.0 * y * xx
        p = self.a1(fval) / (x + 1.0) + self.a3(fval) / (x - 1.0)
        q = self.a2(fval) / (y - 1.0)
        if chart == "x":
            slope = -(fx + eps * p) / (fy + eps * q)
            return slope, p + q * slope
        slope = -(fy + eps * q) / (fx + eps * p)
        return slope, q + p * slope


def _check_closing_chart(cycle: Cycle):
    """A leaf leaves and returns through one fiber only when the cycle's
    first and last segments share a chart."""
    if cycle.segments[0].chart != cycle.segments[-1].chart:
        raise ValueError("the first and last segments of the cycle must share a chart")


def _offset_ramp(npans: List[int]):
    """1 - s on the panels of a block's first segment and 0 on the others,
    and minus its derivative in s: the shape of the offset by which the
    first segment's independent path is shifted at a chart switch."""
    ramp = np.zeros((sum(npans), _NODES.size))
    ramp[:npans[0]] = 1.0 - _panel_nodes(npans[0])
    return ramp, np.arange(ramp.shape[0])[:, None] < npans[0]


def _block_transport(field: LeafField, block: List[Segment], state, rounds: List[int]):
    """The sweep of every leaf over a block of same-chart segments, each at
    its own rounds, their panels side by side, from the state
    (x, y, int omega) at the block's start to the state at its end, one
    entry per leaf, and each segment's worst tail.

    A leaf starts at (x, y) on the level F = F(x, y), offset from the first
    segment's base path in the independent coordinate, which the first
    segment ramps out (`_offset_ramp`).  The fixed point on
    F(w, u) = level - eps J starts from J = 0 and stops when no leaf's J
    moves by more than FIX_RTOL of the largest |J|; TransportError, naming
    the segment and the leaf's eps of the largest change, past
    FIX_MAX_ITERATIONS."""
    x, y, jtot = state
    chart = block[0].chart
    w0, u0 = (x, y) if chart == "x" else (y, x)
    offset = (w0 - block[0].independent(0.0))[:, None, None]
    level = curve_f(x, y)[:, None, None]
    w1 = np.full(w0.shape, block[-1].independent(1.0), complex)
    npans, h, (w, dw, base_u) = _block_panels(block, rounds)
    if offset.any():
        ramp, first = _offset_ramp(npans)
        w, dw = w + offset * ramp, dw - offset * first
    a = w * w - 1.0
    u = np.broadcast_to(base_u, w.shape)
    j = np.zeros((w0.size, h.size, _NODES.size), complex)
    for _ in range(FIX_MAX_ITERATIONS):
        u = nearest_root(a, level - field.eps * j, u)
        slope, form = field.slope_and_form(*((w, u) if chart == "x" else (u, w)), chart)
        g = form * dw
        j, prev = _cumulative(g, h), j
        change = np.abs(j - prev).max(axis=2)
        if np.all(change <= FIX_RTOL * np.abs(j).max()):
            slope = slope * dw
            tail = np.maximum(_tail(g), _tail(slope))
            dep1 = u0 + _integral(slope, h)
            x1, y1 = (w1, dep1) if chart == "x" else (dep1, w1)
            return (x1, y1, jtot + j[:, -1, -1]), _segment_tails(tail, npans)
    i, p = np.unravel_index(np.argmax(change), change.shape)
    seg = block[int(np.searchsorted(np.cumsum(npans), p, side="right"))]
    eps = field.eps.ravel()[i]
    raise TransportError(
        f"level fixed point on {seg!r} did not settle in {FIX_MAX_ITERATIONS} iterations "
        f"at eps = {eps.real if eps.imag == 0 else eps} (last change {change[i, p]:.3g})")


def _like(eps, values):
    """A Python complex for a scalar eps, the array of leaves for a grid."""
    return complex(np.ravel(values)[0]) if np.ndim(eps) == 0 else values


def transport(cycle: Cycle, d: Deformation, eps):
    """Endpoints (x, y) and omega-quadratures of the perturbed leaves over
    the cycle's base chain, one leaf per entry of eps (scalars for a scalar
    eps).  Every block carries the whole grid as one array
    (`_block_transport`, over integrals._walk).  ValueError before any
    sweep where a coefficient of d is not finite at cycle.t."""
    grid = np.atleast_1d(np.asarray(eps, dtype=complex))
    n = grid.size
    if not cycle.segments:
        p = cycle.base_point
        return tuple(_like(eps, np.full(n, v, complex)) for v in (p.x, p.y, 0.0))
    _check_closing_chart(cycle)
    _level_taylor(d, cycle.t, 1)
    field = LeafField(d, grid[:, None, None])
    start = cycle.segments[0].start_point()
    state = (np.full(n, start.x, complex), np.full(n, start.y, complex), np.zeros(n, complex))
    state = _walk(cycle, partial(_block_transport, field), "leaf transport", SEGMENT_ATOL, state)
    return tuple(_like(eps, v) for v in state)


def holonomy_along(cycle: Cycle, d: Deformation, eps):
    """Return-map image F(endpoint) of cycle.t along the cycle."""
    x, y, _ = transport(cycle, d, eps)
    return curve_f(x, y)


def holonomy_displacement(cycle: Cycle, d: Deformation, eps):
    """P(t0, eps) - t0 computed as -eps * int omega along each trajectory.

    Exactly equal to F(endpoint) - t0 (dF = -eps omega on the leaf) but free
    of the cancellation between two O(t0) values, so the remainder past a
    jet stays resolved; the direct difference cross-checks it to roundoff,
    leaf by leaf.
    """
    x, y, j = transport(cycle, d, eps)
    disp = -np.asarray(eps) * j
    direct = curve_f(x, y) - cycle.t
    bad = np.flatnonzero(np.abs(direct - disp) > 1e-10 * max(1.0, abs(cycle.t)))
    if bad.size:
        i = bad[0]
        raise TransportError(
            f"displacement mismatch at eps = {np.ravel(eps)[i]}: quadrature "
            f"{np.ravel(disp)[i]}, direct {np.ravel(direct)[i]}"
        )
    return _like(eps, disp)


# ---------------------------------------------------------------------------
# eps-jets of the leaf on the collocation panels.
#
# An eps-series is a list whose entry k is the eps^k coefficient: an array
# over the block's panels and nodes, or a scalar.  Coefficients past the
# end of the list, and entries None, are 0: a block that starts on the
# base fiber has an independent coordinate of one term.

JET_TERMS = 3  # eps^0..eps^2 of int omega give c1..c3
JET_TOL = 1e-10  # relative accuracy of c1..c3, the tail tolerance of their panels


def _level_taylor(d: Deformation, t, terms: int) -> np.ndarray:
    """a_i^(k)(t) / k! for k < terms, one row per coefficient a1, a2, a3,
    from the exact derivatives (RatFunc.diff).  ValueError, naming the
    coefficient and the level, where a coefficient is not finite at t."""
    out = np.empty((3, terms), complex)
    for i, a in enumerate(d.coefficients()):
        derivative = a
        for k in range(terms):
            if k:
                derivative = derivative.diff()
            try:
                out[i, k] = derivative.evaluate(t) / math.factorial(k)
            except ZeroDivisionError:
                out[i, k] = np.inf
        if not np.all(np.isfinite(out[i])):
            raise ValueError(f"a{i + 1} = {a} is not finite at the level t = {t}")
    return out


def _conv(a, b, j):
    """The eps^j coefficient of the product of the series a and b, from the
    terms a[i] b[j - i] that both series hold."""
    out = 0.0
    for i in range(max(0, j - len(b) + 1), min(len(a), j + 1)):
        if a[i] is not None and b[j - i] is not None:
            out = out + a[i] * b[j - i]
    return out


def _composed(row, powers, j):
    """The eps^j coefficient, j >= 1, of a(F) = sum_k row[k] (F - t)^k, with
    powers[k - 1] the series of (F - t)^k."""
    return sum(c * pk[j] for c, pk in zip(row[1:], powers))


def _dep_derivatives(w0, u0, ind2, slope0, f_dep):
    """d/d(dep) at eps^0 of dep^2 - 1, of f_dep and of the slope, with
    ind2 = w0^2 - 1 and slope0 the base slope: the only way u_j enters the
    eps^j coefficients of these three is linearly, through these derivatives."""
    return 2.0 * u0, 2.0 * ind2, -2.0 * (2.0 * w0 * u0 + ind2 * slope0) / f_dep


def _block_jet(block: List[Segment], rounds: List[int], taylor: np.ndarray,
               offset: np.ndarray, dep0: np.ndarray):
    """Carry the leaf's jet over a block of same-chart segments, each at its
    own rounds, their panels side by side.  The first segment's independent
    coordinate follows its base path shifted by offset * (1 - s), so the
    leaf ends on the base fiber; dep0 is the jet of the dependent coordinate
    at the block's start minus the base value, and taylor the coefficients'
    Taylor coefficients at the level (_level_taylor).  Returns the jet of
    the dependent coordinate at the block's end (minus the base) and of
    int omega, and each segment's worst Chebyshev tail.

    Each eps-order of every leaf quantity is formed once, lowest first.
    Order j is first formed with u_j = 0 as far as the slope needs it;
    once u_j is solved, dep^2 - 1, the slope and its denominator take their
    u_j terms from _dep_derivatives, and F, the coefficients a_i(F),
    omega's coefficients and the form follow with u_j in place."""
    npans, h, (w0, dw0, u0) = _block_panels(block, rounds)
    w, dw, u = [w0], [dw0], [u0]
    if offset.any():
        ramp, first = _offset_ramp(npans)
        w += [o * ramp for o in offset[1:]]
        dw += [-o * first for o in offset[1:]]
    ind2, dep2 = [w0 * w0 - 1.0], [u0 * u0 - 1.0]
    for j in range(1, len(w)):
        ind2.append(_conv(w, w, j))
    # omega = (A x + B) dx / (x^2 - 1) + (C y + C) dy / (y^2 - 1) with A = a1 + a3,
    # B = a3 - a1 and C = a2, so a1/(x + 1) + a3/(x - 1) and a2/(y - 1) divide
    # by the squares that F needs anyway.  A side is (coordinate, its square,
    # the Taylor rows of A and B, the series of A(F), the series of omega's
    # coefficient).
    a1, a2, a3 = taylor
    x_rows, y_rows = (a1 + a3, a3 - a1), (a2, a2)
    ind_rows, dep_rows = (x_rows, y_rows) if block[0].chart == "x" else (y_rows, x_rows)
    sides = [(z, z2, rows, [rows[0][0]], [(rows[0][0] * z[0] + rows[1][0]) / z2[0]])
             for z, z2, rows in ((w, ind2, ind_rows), (u, dep2, dep_rows))]
    p_ind, p_dep = (side[4] for side in sides)
    f_dep = 2.0 * u0 * ind2[0]  # dF/d(dep): F is symmetric in x, y
    den = [f_dep]  # f_dep + eps p_dep
    slope = [-2.0 * w0 * dep2[0] / f_dep]  # d(dep)/d(ind)
    d_dep2, d_den, d_slope = _dep_derivatives(w0, u0, ind2[0], slope[0], f_dep)
    terms = taylor.shape[1]  # the jet's order: eps^0 .. eps^(terms - 1)
    powers = [[None] for _ in range(1, terms)]  # (F - t)^k, k = 1, 2, ...: F = t at eps^0
    rate = [p_ind[0] + p_dep[0] * slope[0]]  # omega per unit of the independent coordinate
    form = rate[0] * dw0
    tail = _tail(form)
    total = [_integral(form, h)]
    for j in range(1, terms):
        dep2.append(_conv(u, u, j))
        den.append(2.0 * _conv(u, ind2, j) + p_dep[j - 1])
        slope.append(-(2.0 * _conv(w, dep2, j) + p_ind[j - 1] + _conv(den, slope, j)) / f_dep)
        # r_j: the eps^j coefficient of the slope while u_j is still 0
        g = f_dep * _conv(slope, dw, j)
        tail = np.maximum(tail, _tail(g))
        u.append((f_dep[0, 0] * dep0[j] + _cumulative(g, h)) / f_dep)
        del g  # a block's arrays are the largest of a numeric pass: drop each once used
        dep2[j] = dep2[j] + d_dep2 * u[j]
        den[j] = den[j] + d_den * u[j]
        slope[j] = slope[j] + d_slope * u[j]
        powers[0].append(_conv(ind2, dep2, j))
        for k in range(1, len(powers)):
            powers[k].append(_conv(powers[0], powers[k - 1], j))
        for z, z2, (row_a, row_b), a, p in sides:
            a.append(_composed(row_a, powers, j))
            p.append((_conv(a, z, j) + _composed(row_b, powers, j) - _conv(z2, p, j)) / z2[0])
        rate.append(p_ind[j] + _conv(p_dep, slope, j))
        form = _conv(rate, dw, j)
        tail = np.maximum(tail, _tail(form))
        total.append(_integral(form, h))
    end = np.array([0.0] + [uj[-1, -1] for uj in u[1:]])
    return (end, np.array(total)), _segment_tails(tail, npans)


def _cycle_jet(cycle: Cycle, taylor: np.ndarray) -> np.ndarray:
    """-(jet of int omega) over the cycle, carried block by block over
    integrals._walk in the state (chart, dep, jet of int omega).

    At a chart switch the leaf's dependent jet becomes the offset of the
    new independent coordinate, and the new dependent coordinate (the old
    independent one) starts on the base curve."""
    def sweep(block, state, rounds):
        chart, dep, jtot = state
        offset = np.zeros_like(dep)
        if block[0].chart != chart:
            offset, dep = dep, np.zeros_like(dep)
        (end, dj), tails = _block_jet(block, rounds, taylor, offset, dep)
        return (block[0].chart, end, jtot + dj), tails

    zero = np.zeros(taylor.shape[1], complex)
    start = (cycle.segments[0].chart, zero, zero)
    return -_walk(cycle, sweep, "Melnikov jet", JET_TOL, start)[2]


def jet_along(cycle: Cycle, d: Deformation) -> Tuple[complex, complex, complex]:
    """(c1, c2, c3) of P(t, eps) - t = c1 eps + c2 eps^2 + c3 eps^3 + ...
    along the cycle: c_{j+1} = -(eps^j coefficient of int omega).

    The leaf starts on the base curve over the first segment's start and
    returns to the same fiber, which needs the first and last segments in
    one chart.  The cycle is walked as every panel layer walks it
    (integrals._walk): the segments whose Chebyshev tails fail double their
    panels and their block runs again; QuadratureError if a segment's tails
    never pass, and ValueError before any sweep where a coefficient of d is
    not finite at cycle.t.
    """
    if not cycle.segments:
        return 0j, 0j, 0j
    _check_closing_chart(cycle)
    return tuple(complex(v) for v in _cycle_jet(cycle, _level_taylor(d, cycle.t, JET_TERMS)))


# ---------------------------------------------------------------------------
# Direct transport as the jets' witness.

WITNESS_EPS = 2e-3  # small enough that eps^4 dominates R, large enough that R >> roundoff
WITNESS_ORDER_TOL = 0.1
# The least remainder at +-WITNESS_EPS / 2 whose order means something: 100
# times the error that SEGMENT_ATOL on int omega allows in disp there.
WITNESS_FLOOR = 100 * (WITNESS_EPS / 2) * SEGMENT_ATOL


def remainder_orders(cycle: Cycle, d: Deformation, jet) -> Tuple[float, float]:
    """Measured orders log2(R(E) / R(E/2)) at E = +WITNESS_EPS and -WITNESS_EPS,
    with R(eps) = |disp(eps) - (c1 eps + c2 eps^2 + c3 eps^3)|, disp from
    holonomy_displacement and (c1, c2, c3) = jet.  Correct coefficients give
    orders within WITNESS_ORDER_TOL of 4.  R must stand above the transport's
    error: ValueError where R(E/2) or R(-E/2) is below WITNESS_FLOOR
    (1e-14), as where the return map is the identity (an exact center, or
    a cycle with no segments) and R is roundoff."""
    eps = WITNESS_EPS * np.array([1.0, 0.5, -1.0, -0.5])
    c1, c2, c3 = jet
    rem = np.abs(holonomy_displacement(cycle, d, eps) - eps * (c1 + eps * (c2 + eps * c3)))
    if min(rem[1], rem[3]) < WITNESS_FLOOR:
        raise ValueError(f"the remainder past the jet, {min(rem[1], rem[3]):.3g} at "
                         f"eps = +-{WITNESS_EPS / 2:g}, is below the floor {WITNESS_FLOOR:.3g} "
                         f"of transport error: its order would mean nothing")
    return float(np.log2(rem[0] / rem[1])), float(np.log2(rem[2] / rem[3]))


# ---------------------------------------------------------------------------
# Values of the order-2 and order-3 cross-checks; `reporting` compares them.


def m2_assembly(d: Deformation, gamma: Cycle, i13: complex) -> complex:
    """Numeric second-order coefficient sum_{i<j} W(a_i, a_j)(t0) I_ij at
    t0 = gamma.t.

    I_ij are the moment integrals over the real oval gamma, I_13 given by
    the caller (it is integrals.cauchy_suite's phi1_dphi3); under the
    order-2 vanishing the sum must be zero.  (The collapsed combination
    int log(t/(y^2-1)) dy/(y-1) and I_13 vanish on their own: see
    integrals.cauchy_suite.)
    """
    m2 = mv(2, d)
    if not m2.is_zero():
        raise ValueError(f"assembly check expects mv(2) = 0, got {m2}")
    t0 = gamma.t
    a1, a2, a3 = d.coefficients()
    return (wronskian(a1, a2).evaluate(t0) * moment_integral(gamma, 1, 2)
            + wronskian(a1, a3).evaluate(t0) * i13
            + wronskian(a2, a3).evaluate(t0) * moment_integral(gamma, 2, 3))


def m3_center_prediction(gamma: Cycle, A, lam, lambda1) -> complex:
    """-lam*lambda1 / (t0 A'(t0)^2) * int_gamma dphi2 dphi3 over the real
    oval gamma, t0 = gamma.t.  Times resolved_sign(3) it predicts the
    order-3 jet coefficient of center_family(A, c1, lambda1, lam) along
    gamma through an independent code path."""
    A = RatFunc(A)
    t0 = gamma.t
    ap = A.diff().evaluate(t0)
    i23 = iterated_integral(gamma, [eta(2), eta(3)])
    pre = m3_tilde_coefficient(A, lam, lambda1).evaluate(t0)
    return pre / ap * i23
