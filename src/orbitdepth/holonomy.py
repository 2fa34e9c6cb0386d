"""Poincare return maps of the perturbed foliation dF + eps * omega = 0.

omega = a1(F) dx/(x+1) + a2(F) dy/(y-1) + a3(F) dx/(x-1) = P dx + Q dy.
A leaf of the perturbed foliation satisfies

    (F_x + eps P) dx + (F_y + eps Q) dy = 0,

so along a segment whose independent coordinate w follows the base path
the dependent coordinate u has an explicit slope, and integrated along the
leaf the equation reads F(w, u) = F(start) - eps J with J = int omega.
Transport starts at the exact curve point over the base point, follows
every segment of a cycle, and the return value is F at the endpoint.

Each segment runs on the Chebyshev-Lobatto panels of `integrals`, with
every leaf of an eps grid in one array (a scalar eps is the n = 1 case).
A fixed point on the level relation alternates u <- the root of
(w^2 - 1)(u^2 - 1) = F(start) - eps J nearest the last iterate (the base
curve to begin with) and J <- the running int of omega; each doubling of a
segment's panels starts from the previous count's J, and the panels
double until two counts agree on every leaf's endpoint and J.  The
endpoint carried on is that of the differential form, u(0) + int slope dw,
not the root, so the displacement check F(end) - t = -eps int omega in
`holonomy_displacement` compares two independently integrated quantities.
A chart switch needs no slide: the next segment's independent path is
shifted by the leaf's offset delta from the base path at its start,
w + delta (1 - s), so every leaf ends on the base fiber.

The return map P(t, eps) - t = c1 eps + c2 eps^2 + c3 eps^3 + ... has its
coefficients computed two independent ways.

Jets (`melnikov_jet`, Francoise's recursion for the successive derivatives
of a first return map): on each segment the leaf's dependent coordinate is
u0 + eps u1 + eps^2 u2, with u0 the base segment's own curve point.  Order j
is a linear ODE u_j' = g_dep u_j + r_j, r_j the eps^j part of the slope with
u_j set to 0, and 1/F_dep solves its homogeneous part (F_dep = dF/d(dep) on
the base curve; the unperturbed leaf at level t + tau lies at
u0 + tau / F_dep to first order), so
u_j = (F_dep(0) u_j(0) + int F_dep r_j) / F_dep in closed form.  The eps^j
coefficient J_j of int omega gives c_{j+1} = -J_j.  Everything runs on the
Chebyshev-Lobatto panels of `integrals`, and the panels double until the
coefficients are stable.  Chart switches shift the next segment's path as
the transport does, with the leaf's O(eps) offset as delta, so the leaf
starts on it with the new dependent coordinate (the old independent one)
exactly on the base curve.

Fits (`melnikov_fit`, the direct path): symmetric eps / -eps transports,
with odd and even parts fitted separately against (eps, eps^3, eps^5) and
(eps^2, eps^4, eps^6), and half-grid refits as a stability diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .curves import Cycle, CycleFactory, Segment, curve_f, nearest_root, real_oval
from .integrals import (
    _NODES,
    QuadratureError,
    _cumulative,
    _double_until_stable,
    _panel_nodes,
    _segment_panels,
    _split_panels,
    eta,
    iterated_integral,
    moment_integral,
)
from .melnikov import Deformation, center_family, classify, m3_tilde_coefficient, Kind
from .ratfunc import RatFunc, wronskian
from .words import Gen, Word

FIX_RTOL = 1e-15  # the level fixed point settles when J moves less than this, relative
FIX_MAX_ITERATIONS = 60
SEGMENT_ATOL = 1e-13  # endpoints and int omega agree between two panel counts
SEGMENT_MAX_ROUNDS = 6
DEFAULT_EPS_GRID = tuple(1e-3 * 2 ** j for j in range(6))

# Fitted coefficients of order mu equal (-1)^mu times the nested-Wronskian
# and double-integral predictions: the transport here expands the return map
# of dF + eps omega = 0 in eps, and along its leaves dF = -eps omega, so the
# order-1 displacement is -eps int omega while the classical normalization
# counts +int omega; the two expansions differ by eps -> -eps.  Calibrated
# once (order 2 over [d2, z] fixes the even sign, order 3 over v_3 and the
# center family the odd one) and consistent across every cross-check.
def resolved_sign(order: int) -> int:
    return -1 if order % 2 else 1


RESOLVED_HOLONOMY_SIGN = resolved_sign(3)  # odd orders; kept for reports


class TransportError(RuntimeError):
    pass


def _coefficient_callables(d: Deformation):
    return d.a1.callable(), d.a2.callable(), d.a3.callable()


class LeafField:
    """Right-hand sides of the leaf equation for a fixed deformation, one
    leaf per entry of the eps array."""

    def __init__(self, d: Deformation, eps: np.ndarray):
        self.a1, self.a2, self.a3 = _coefficient_callables(d)
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


def _segment_leaves(seg: Segment, field: LeafField, x: np.ndarray, y: np.ndarray,
                    npan: int, j: np.ndarray):
    """Every leaf through (x, y) over one segment on npan collocation panels.

    The fixed point on F(w, u) = F(x, y) - eps J starts from the running
    int omega `j` at the nodes (leaves, panels, nodes) and stops when no
    leaf's J moves by more than FIX_RTOL of the largest |J|; TransportError,
    naming the segment and the slowest leaf's eps, past FIX_MAX_ITERATIONS.
    Returns the dependent coordinate at s = 1 of the differential form,
    u(0) + int slope dw, and the converged j.
    """
    w0, u0 = (x, y) if seg.chart == "x" else (y, x)
    h = 1.0 / npan
    s = _panel_nodes(npan)
    delta = (w0 - seg.independent(0.0))[:, None, None]
    w = seg.independent(s) + delta * (1.0 - s)
    dw = seg.independent_derivative(s) - delta
    a = w * w - 1.0
    level = curve_f(w0, u0)[:, None, None]
    u = np.broadcast_to(seg.dependent(s, key=npan), w.shape)
    for _ in range(FIX_MAX_ITERATIONS):
        u = nearest_root(a, level - field.eps * j, u)
        slope, form = field.slope_and_form(*((w, u) if seg.chart == "x" else (u, w)), seg.chart)
        j, prev = _cumulative(form * dw, h), j
        change = np.abs(j - prev).max(axis=(1, 2))
        if np.all(change <= FIX_RTOL * np.abs(j).max()):
            return u0 + _cumulative(slope * dw, h)[:, -1, -1], j
    i = int(np.argmax(change))
    eps = field.eps.ravel()[i]
    raise TransportError(
        f"level fixed point on {seg!r} did not settle in {FIX_MAX_ITERATIONS} iterations "
        f"at eps = {eps.real if eps.imag == 0 else eps} (last change {change[i]:.3g})")


def _segment_transport(seg: Segment, field: LeafField, x: np.ndarray, y: np.ndarray):
    """_segment_leaves with the panels of the segment doubling, each count
    starting from the last one's J on the half panels, until the endpoints
    and int omega of every leaf agree to SEGMENT_ATOL between two
    consecutive counts; QuadratureError past SEGMENT_MAX_ROUNDS.

    Not integrals._double_until_stable: this test is absolute, and each
    count is warm-started from the last one's J."""
    prev, delta = None, np.inf
    j = np.zeros((x.size, _segment_panels(seg, 0), _NODES.size), complex)
    for rounds in range(SEGMENT_MAX_ROUNDS):
        if rounds:
            j = _split_panels(j)
        end, j = _segment_leaves(seg, field, x, y, _segment_panels(seg, rounds), j)
        cur = end, j[:, -1, -1]
        if prev is not None:
            delta = max(np.abs(c - p).max() for c, p in zip(cur, prev))
            if delta <= SEGMENT_ATOL:
                return cur
        prev = cur
    raise QuadratureError(f"leaf transport on {seg!r} did not stabilize to {SEGMENT_ATOL:g} "
                          f"in {SEGMENT_MAX_ROUNDS} panel rounds (last delta {delta:.3g})")


def _like(eps, values):
    """A Python complex for a scalar eps, the array of leaves for a grid."""
    return complex(np.ravel(values)[0]) if np.ndim(eps) == 0 else values


def transport(cycle: Cycle, d: Deformation, eps):
    """Endpoints (x, y) and omega-quadratures of the perturbed leaves over
    the cycle's base chain, one leaf per entry of eps (scalars for a scalar
    eps).  Every segment carries the whole grid as one array."""
    grid = np.atleast_1d(np.asarray(eps, dtype=complex))
    n = grid.size
    if not cycle.segments:
        p = cycle.base_point
        return tuple(_like(eps, np.full(n, v, complex)) for v in (p.x, p.y, 0.0))
    _check_closing_chart(cycle)
    field = LeafField(d, grid[:, None, None])
    start = cycle.segments[0].start_point()
    x, y = np.full(n, start.x, complex), np.full(n, start.y, complex)
    jtot = np.zeros(n, complex)
    for seg in cycle.segments:
        dep1, dj = _segment_transport(seg, field, x, y)
        jtot += dj
        w1 = np.full(n, seg.independent(1.0), complex)
        x, y = (w1, dep1) if seg.chart == "x" else (dep1, w1)
    return _like(eps, x), _like(eps, y), _like(eps, jtot)


def holonomy(w: Word, t0: complex, eps, d: Deformation,
             factory: Optional[CycleFactory] = None):
    """Return-map image F(endpoint) of t0 along the word's cycle."""
    factory = factory or CycleFactory(t0)
    cycle = factory.cycle_of_word(w)
    return holonomy_along(cycle, d, eps)


def holonomy_along(cycle: Cycle, d: Deformation, eps):
    x, y, _ = transport(cycle, d, eps)
    return curve_f(x, y)


def holonomy_displacement(cycle: Cycle, d: Deformation, eps):
    """P(t0, eps) - t0 computed as -eps * int omega along each trajectory.

    Exactly equal to F(endpoint) - t0 (dF = -eps omega on the leaf) but free
    of the cancellation between two O(t0) values, so small coefficients fit
    cleanly; the direct difference cross-checks it to roundoff, leaf by leaf.
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
# An eps-series is an array whose axis 0 is the power of eps, truncated
# after JET_TERMS coefficients; the other axes are the panel nodes.

JET_TERMS = 3  # eps^0..eps^2 of int omega give c1..c3
JET_TOL = 1e-10


def _mul(a, b):
    out = a * b[0]
    for i in range(1, len(a)):
        out[i:] += a[:-i] * b[i]
    return out


def _recip(a):
    out = np.empty_like(a)
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        out[k] = -out[0] * (a[1:k + 1] * out[k - 1::-1]).sum(axis=0)
    return out


def _plus(a, c):
    """a + c for a constant c."""
    out = a.copy()
    out[0] = out[0] + c
    return out


def _eps_times(a):
    return np.concatenate([np.zeros_like(a[:1]), a[:-1]])


def _poly_at(coeffs, z):
    out = np.zeros_like(z)
    for c in coeffs:
        out = _plus(_mul(out, z), c)
    return out


def _rat_at(dense, z):
    """A rational function, given by RatFunc.dense(), at the series z."""
    num, den = dense
    if len(den) == 1:
        return _poly_at(num, z) / den[0]
    return _mul(_poly_at(num, z), _recip(_poly_at(den, z)))


def _leaf_series(chart: str, w, dw, dep, dense):
    """eps-series of (d(dep)/ds, omega(tangent)) on the leaf through (w, dep)
    while the independent coordinate moves at dw (all three are series)."""
    x, y = (w, dep) if chart == "x" else (dep, w)
    xx, yy = _plus(_mul(x, x), -1.0), _plus(_mul(y, y), -1.0)
    f = _mul(xx, yy)
    a1, a2, a3 = (_rat_at(c, f) for c in dense)
    p = _mul(a1, _recip(_plus(x, 1.0))) + _mul(a3, _recip(_plus(x, -1.0)))
    q = _mul(a2, _recip(_plus(y, -1.0)))
    fx, fy = 2.0 * _mul(x, yy), 2.0 * _mul(y, xx)
    f_ind, f_dep, p_ind, p_dep = (fx, fy, p, q) if chart == "x" else (fy, fx, q, p)
    slope = -_mul(f_ind + _eps_times(p_ind), _recip(f_dep + _eps_times(p_dep)))
    return _mul(slope, dw), _mul(p_ind + _mul(p_dep, slope), dw)


def _segment_jet(seg: Segment, npan: int, dense, offset: np.ndarray, dep0: np.ndarray):
    """Carry the leaf's jet over one segment on npan collocation panels.

    The independent coordinate follows the base path shifted by
    offset * (1 - s), so the leaf ends on the base fiber; dep0 is the jet of
    the dependent coordinate at s = 0 minus the base value.  Returns the jet
    of the dependent coordinate at s = 1 (minus the base) and of int omega.
    """
    h = 1.0 / npan
    s = _panel_nodes(npan)
    w = offset[:, None, None] * (1.0 - s)
    w[0] = seg.independent(s)
    dw = np.broadcast_to(-offset[:, None, None], w.shape).copy()
    dw[0] = seg.independent_derivative(s)
    u = np.zeros_like(w)
    u[0] = seg.dependent(s, key=npan)
    f_dep = 2.0 * u[0] * (w[0] * w[0] - 1.0)  # dF/d(dep): F is symmetric in x, y
    for j in range(1, JET_TERMS):
        # r_j: the eps^j coefficient of the slope while u_j is still 0
        r = _leaf_series(seg.chart, w[:j + 1], dw[:j + 1], u[:j + 1], dense)[0][j]
        u[j] = (f_dep[0, 0] * dep0[j] + _cumulative(f_dep * r, h)) / f_dep
    form = _leaf_series(seg.chart, w, dw, u, dense)[1]
    end = u[:, -1, -1].copy()
    end[0] = 0.0
    return end, _cumulative(form, h)[:, -1, -1]


def _switch_chart(dep: np.ndarray):
    """(offset, dep0) at a chart switch: the leaf's dependent jet becomes the
    offset of the new independent coordinate, and the new dependent
    coordinate (the old independent one) starts on the base curve."""
    return dep, np.zeros_like(dep)


def _cycle_jet(cycle: Cycle, dense, rounds: int) -> np.ndarray:
    chart = cycle.segments[0].chart
    dep = np.zeros(JET_TERMS, complex)
    jtot = np.zeros(JET_TERMS, complex)
    for seg in cycle.segments:
        offset = np.zeros(JET_TERMS, complex)
        if seg.chart != chart:
            offset, dep = _switch_chart(dep)
            chart = seg.chart
        dep, dj = _segment_jet(seg, _segment_panels(seg, rounds), dense, offset, dep)
        jtot += dj
    return -jtot


def jet_along(cycle: Cycle, d: Deformation) -> Tuple[complex, complex, complex]:
    """(c1, c2, c3) of P(t, eps) - t = c1 eps + c2 eps^2 + c3 eps^3 + ...
    along the cycle: c_{j+1} = -(eps^j coefficient of int omega).

    The leaf starts on the base curve over the first segment's start and
    returns to the same fiber, which needs the first and last segments in
    one chart.  Panels double until every coefficient is stable to JET_TOL,
    by the loop of integrals.iterated_integral; QuadratureError if they
    never are.
    """
    if not cycle.segments:
        return 0j, 0j, 0j
    _check_closing_chart(cycle)
    dense = [a.dense() for a in d.coefficients()]
    c = _double_until_stable(lambda rounds: _cycle_jet(cycle, dense, rounds),
                             JET_TOL, "Melnikov jet")
    return tuple(complex(v) for v in c)


def melnikov_jet(w: Word, t0: complex, d: Deformation,
                 factory: Optional[CycleFactory] = None) -> Tuple[complex, complex, complex]:
    """(c1, c2, c3) of the return map along the word's cycle, from eps-jets."""
    return jet_along((factory or CycleFactory(t0)).cycle_of_word(w), d)


# ---------------------------------------------------------------------------
# eps-power fits.


@dataclass
class MelnikovFit:
    t0: complex
    eps_grid: Tuple[float, ...]
    c1: complex
    c2: complex
    c3: complex
    zero_flags: Dict[int, bool]
    stability: Dict[int, float]  # relative half-grid spread per order
    samples: List[Tuple[complex, complex]] = field(default_factory=list)

    def is_zero(self, j: int) -> bool:
        return self.zero_flags[j]

    def stable(self, j: int, rel: float = 5e-3) -> bool:
        return self.stability[j] <= rel


def _fit_powers(eps: np.ndarray, vals: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    cols = np.stack([eps ** p for p in powers], axis=1)
    scale = np.abs(cols).max(axis=0)
    sol, *_ = np.linalg.lstsq(cols / scale, vals, rcond=None)
    return sol / scale


def melnikov_fit(w: Word, t0: complex, d: Deformation,
                 eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
                 factory: Optional[CycleFactory] = None,
                 zero_rel: float = 1e-7, zero_abs: float = 1e-9) -> MelnikovFit:
    """Fit holonomy(t0, eps) - t0 = c1 eps + c2 eps^2 + c3 eps^3 + ...

    Uses +-eps pairs so odd and even parts are fitted independently; at
    least 5 grid points, geometrically spaced.  A coefficient is flagged
    zero when its contribution at the top of the grid is below `zero_rel`
    times the dominant contribution or below the absolute floor `zero_abs`
    (exact centers leave only noise, with no dominant term to compare
    against); half-grid refits give the stability figure.
    """
    if len(eps_grid) < 5:
        raise ValueError("need at least 5 grid points")
    factory = factory or CycleFactory(t0)
    cycle = factory.cycle_of_word(w)
    eps = np.asarray(sorted(eps_grid), dtype=float)
    vals = holonomy_displacement(cycle, d, np.concatenate([eps, -eps]))
    plus, minus = vals[:len(eps)], vals[len(eps):]
    odd = (plus - minus) / 2.0
    even = (plus + minus) / 2.0

    def both_fits(sel, nterms):
        o = _fit_powers(eps[sel], odd[sel], (1, 3, 5, 7)[:nterms])
        e = _fit_powers(eps[sel], even[sel], (2, 4, 6, 8)[:nterms])
        out = {1: o[0], 2: e[0]}
        out[3] = o[1] if nterms > 1 else 0.0
        return out

    nfull = 4 if len(eps) >= 6 else 3
    full = both_fits(slice(None), nfull)
    half = len(eps) // 2
    lo = both_fits(slice(0, max(3, len(eps) - half)), 3)
    hi = both_fits(slice(min(half, len(eps) - 3), len(eps)), 3)

    emax = eps[-1]
    contributions = {j: abs(full[j]) * emax ** j for j in (1, 2, 3)}
    dominant = max(max(contributions.values()), 1e-300)
    threshold = max(zero_rel * dominant, zero_abs)
    zero_flags = {j: contributions[j] <= threshold for j in (1, 2, 3)}
    stability = {}
    for j in (1, 2, 3):
        ref = abs(full[j])
        if ref == 0 or zero_flags[j]:
            stability[j] = 0.0
        else:
            stability[j] = max(abs(lo[j] - full[j]), abs(hi[j] - full[j])) / ref
    return MelnikovFit(
        t0=t0,
        eps_grid=tuple(eps),
        c1=full[1],
        c2=full[2],
        c3=full[3],
        zero_flags=zero_flags,
        stability=stability,
        samples=[(e, v) for e, v in zip(eps, plus)] + [(-e, v) for e, v in zip(eps, minus)],
    )


# ---------------------------------------------------------------------------
# Named cross-checks.


@dataclass
class CheckReport:
    name: str
    computed: complex
    expected: complex
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def m2_assembly_check(d: Deformation, t0: float,
                      tol: float = 1e-7) -> List[CheckReport]:
    """Numeric second-order coefficient sum_{i<j} W(a_i, a_j)(t0) I_ij.

    I_ij are the moment integrals over the real oval; under the order-2
    vanishing the sum must be zero, and the collapsed combination
    int log(t/(y^2-1)) dy/(y-1) vanishes independently.
    """
    kind = classify(d).kind
    if kind not in (Kind.LENGTH3, Kind.INTEGRABLE_CANDIDATE, Kind.SYMMETRIC_CENTER):
        raise ValueError(f"assembly check expects an order-2-free deformation, got {kind}")
    gamma = real_oval(t0)
    i12 = moment_integral(gamma, 1, 2)
    i13 = moment_integral(gamma, 1, 3)
    i23 = moment_integral(gamma, 2, 3)
    a1, a2, a3 = d.coefficients()
    w = {
        (1, 2): wronskian(a1, a2).evaluate(t0),
        (1, 3): wronskian(a1, a3).evaluate(t0),
        (2, 3): wronskian(a2, a3).evaluate(t0),
    }
    total = w[(1, 2)] * i12 + w[(1, 3)] * i13 + w[(2, 3)] * i23
    from .integrals import cauchy_suite

    collapsed = cauchy_suite(t0)["log_t_over_y2m1_dphi2"]
    return [
        CheckReport("order-2 assembly", total, 0.0, abs(total), tol),
        CheckReport("moment integral phi1 dphi3", i13, 0.0, abs(i13), 1e-8),
        CheckReport("collapsed log combination", collapsed, 0.0, abs(collapsed), 1e-8),
    ]


def m3_center_prediction(A, lam, t0: float, lambda1=1) -> complex:
    """-lam*lambda1 / (t0 A'(t0)^2) * int_gamma dphi2 dphi3."""
    A = RatFunc(A)
    ap = A.diff().evaluate(t0)
    gamma = real_oval(t0)
    i23 = iterated_integral(gamma, [eta(2), eta(3)])
    pre = m3_tilde_coefficient(A, lam, lambda1).evaluate(t0)
    return pre / ap * i23


def m3_center_crosscheck(A, c1, lambda1, lam, t0: float,
                         rel_tol: float = 5e-3) -> CheckReport:
    """Order-3 jet coefficient of the center family along the oval against
    the closed prefactor times the numeric double integral (both through
    independent code paths; the resolved global sign relates them)."""
    d = center_family(A, c1, lambda1, lam)
    c3 = melnikov_jet(Word.gen(Gen.G), t0, d)[2]
    predicted = RESOLVED_HOLONOMY_SIGN * m3_center_prediction(A, lam, t0, lambda1)
    if predicted == 0:
        return CheckReport("order-3 center cross-check", c3, predicted, abs(c3), 1e-9)
    err = abs(c3 - predicted) / abs(predicted)
    return CheckReport("order-3 center cross-check", c3, predicted, err, rel_tol)
