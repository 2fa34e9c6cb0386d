"""Quadrature of (iterated) 1-forms along cycles.

Forms are linear combinations of the logarithmic differentials
eta_i = df_i/f_i with f = (x+1, y-1, x-1, y+1); a moment integral
phi_i dphi_j is the length-2 iterated integral of (eta_i, eta_j) with the
inner accumulator seeded by the starting log value.

Each segment is cut into panels (12 per arc, 6 per line) and every panel
uses a degree-32 Chebyshev-Lobatto collocation rule whose
cumulative-integration matrix gives the inner partial integrals of an
iterated integral in the same sweep; leaf transport and the eps-jets of
`holonomy` run on the same rule.  Panel counts double until the
whole-cycle answer is stable, so analytic integrands converge spectrally;
a pole-clearance check runs first.

A degree-n panel converges like rho^-n, rho the Bernstein-ellipse
parameter of the nearest singularity (Trefethen, Approximation Theory and
Approximation Practice, ch. 8).  The saddle loops are circles of radius
sqrt(t)/2 = 0.3 around x = +-1 at t = 0.36, and the branch points
x = +-sqrt(1 - t) = +-0.8 lie 0.1 from them; at degree 16 the v_3 jet
needed four panel rounds to settle, at degree 32 the first doubling
already agrees to its tolerance.  Each segment keeps the dependent
coordinate at the nodes (`Segment.dependent` with the panel count as key),
since a cycle passes the same paths many times.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .curves import Cycle, CycleFactory, Segment, real_oval, vanishing_loop
from .words import Word, commutator

TWO_PI_I = 2j * cmath.pi

_CHEB_N = 32


def _chebyshev_cumulative(n: int):
    """Nodes u_k in [0,1] (ascending) and matrix Q with
    (Q g)[k] ~= integral_0^{u_k} g(u) du for g sampled at the nodes."""
    k = np.arange(n + 1)
    xi = -np.cos(np.pi * k / n)  # ascending -1 .. 1
    # Vandermonde of Chebyshev polynomials at the nodes
    V = np.cos(np.outer(np.arccos(xi), k))
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
    Q = 0.5 * (P @ np.linalg.inv(V))  # 0.5: du = dxi / 2
    u = (xi + 1.0) / 2.0
    return u, Q


_NODES, _QMAT = _chebyshev_cumulative(_CHEB_N)


def _chebyshev_halves(n: int) -> np.ndarray:
    """H[k] interpolates values at the nodes of a panel onto the nodes of
    its k-th half (k = 0, 1)."""
    xi = -np.cos(np.pi * np.arange(n + 1) / n)
    inv_v = np.linalg.inv(np.cos(np.outer(np.arccos(xi), np.arange(n + 1))))
    return np.stack([np.cos(np.outer(np.arccos((xi + c) / 2.0), np.arange(n + 1))) @ inv_v
                     for c in (-1.0, 1.0)])


_HALVES = _chebyshev_halves(_CHEB_N)


def _split_panels(g: np.ndarray) -> np.ndarray:
    """Values at the nodes of npan panels (axes -2, -1) interpolated onto the
    nodes of the 2 npan half panels."""
    halves = np.stack([g @ m.T for m in _HALVES], axis=-2)
    return halves.reshape(g.shape[:-2] + (2 * g.shape[-2], g.shape[-1]))


class PoleOnPathError(RuntimeError):
    pass


class QuadratureError(RuntimeError):
    pass


class Form:
    """A 1-form pulled back to segments; values() consumes frame arrays."""

    def values(self, x, y, dxds, dyds):
        raise NotImplementedError

    def pole_clearance(self, x, y) -> float:
        return np.inf


@dataclass(frozen=True)
class EtaCombo(Form):
    """sum_i c_i eta_i over the basis f_1 = x+1, f_2 = y-1, f_3 = x-1,
    f_4 = y+1."""

    coeffs: Tuple[Tuple[int, complex], ...]

    def values(self, x, y, dxds, dyds):
        out = np.zeros(np.shape(x), dtype=complex)
        for i, c in self.coeffs:
            if c == 0:
                continue
            if i == 1:
                out = out + c * dxds / (x + 1.0)
            elif i == 2:
                out = out + c * dyds / (y - 1.0)
            elif i == 3:
                out = out + c * dxds / (x - 1.0)
            elif i == 4:
                out = out + c * dyds / (y + 1.0)
            else:
                raise ValueError(f"eta index {i} out of range")
        return out

    def pole_clearance(self, x, y) -> float:
        dists = []
        for i, c in self.coeffs:
            if c == 0:
                continue
            f = {1: x + 1.0, 2: y - 1.0, 3: x - 1.0, 4: y + 1.0}[i]
            dists.append(np.min(np.abs(f)))
        return min(dists) if dists else np.inf


def eta(i: int, scale: complex = 1.0) -> EtaCombo:
    return EtaCombo(((i, scale),))


@dataclass(frozen=True)
class XdY(Form):
    """x dy, used for the orientation certificate."""

    def values(self, x, y, dxds, dyds):
        return x * dyds


MIN_POLE_CLEARANCE = 5e-2


def _segment_panels(seg: Segment, rounds: int) -> int:
    from .curves import Arc

    base = 12 if isinstance(seg.path, Arc) else 6
    return base * (1 << rounds)


def _cumulative(g, h: float):
    """Running integral of g over consecutive panels of width h: g has the
    panels on axis -2 and the nodes on axis -1 (any leading axes), and the
    result holds int_0^s g at every node, the within-panel _QMAT rule plus
    the totals of the panels before."""
    within = h * (g @ _QMAT.T)
    totals = within[..., -1]
    before = np.concatenate((np.zeros_like(totals[..., :1]),
                             np.cumsum(totals[..., :-1], axis=-1)), axis=-1)
    return within + before[..., None]


def _panel_nodes(npan: int) -> np.ndarray:
    """Parameters s of the collocation nodes of npan equal panels of [0, 1],
    one row per panel."""
    return (np.arange(npan)[:, None] + _NODES) * (1.0 / npan)


def _sweep(cycle: Cycle, forms: Sequence[Form], inits: Sequence[complex],
           rounds: int) -> complex:
    prefixes = [complex(v) for v in inits]
    for seg in cycle.segments:
        npan = _segment_panels(seg, rounds)
        x, y, dxds, dyds = seg.frame(_panel_nodes(npan), key=npan)
        acc = None
        for j, form in enumerate(forms):
            g = form.values(x, y, dxds, dyds)
            if j > 0:
                g = g * acc
            acc = prefixes[j] + _cumulative(g, 1.0 / npan)
            prefixes[j] = acc[-1, -1]
    return complex(prefixes[-1])


_CLEARANCE_S = np.linspace(0.0, 1.0, 129)


def _check_clearance(cycle: Cycle, forms: Sequence[Form]):
    for seg in cycle.segments:
        x, y, _, _ = seg.frame(_CLEARANCE_S, key="clearance")
        for form in forms:
            c = form.pole_clearance(x, y)
            if c < MIN_POLE_CLEARANCE:
                raise PoleOnPathError(
                    f"pole within {c:.3g} of segment {seg!r}"
                )


_MAX_ROUNDS = 5


def _double_until_stable(sweep, tol: float, what: str):
    """sweep(rounds) for rounds = 0, 1, ... (panel counts doubling) until
    two consecutive results agree, max|cur - prev| <= tol * max(1, max|cur|);
    the last result, or QuadratureError after _MAX_ROUNDS."""
    prev = None
    for rounds in range(_MAX_ROUNDS):
        cur = sweep(rounds)
        if prev is not None:
            delta = np.max(np.abs(cur - prev))
            if delta <= tol * max(1.0, np.max(np.abs(cur))):
                return cur
        prev = cur
    raise QuadratureError(f"{what} did not stabilize to {tol:g} (last delta {delta:.3g})")


def iterated_integral(cycle: Cycle, forms: Sequence[Form],
                      inits: Optional[Sequence[complex]] = None,
                      tol: float = 1e-10) -> complex:
    """Iterated integral of the ordered forms along the cycle.

    The first form is accumulated first (innermost); with this convention
    the commutator identity int_{[s1,s2]} w1 w2 = det(int_{s_i} w_j) holds.
    `inits` seeds the inner accumulators (the log starting values of moment
    integrals); the outermost seed is forced to zero.
    """
    if not 1 <= len(forms) <= 4:
        raise ValueError("iterated integrals support lengths 1..4")
    if inits is None:
        inits = [0.0] * len(forms)
    inits = list(inits)
    inits[-1] = 0.0
    _check_clearance(cycle, forms)
    return _double_until_stable(lambda rounds: _sweep(cycle, forms, inits, rounds),
                                tol, "iterated integral")


def integrate_form(cycle: Cycle, form: Form, tol: float = 1e-10) -> complex:
    """Plain line integral with the same panel machinery."""
    return iterated_integral(cycle, [form], tol=tol)


def moment_integral(cycle: Cycle, i: int, j: int, tol: float = 1e-10) -> complex:
    """int phi_i dphi_j with phi_i = log f_i continued from the cycle start."""
    x0, y0 = cycle.segments[0].start_point().x, cycle.segments[0].start_point().y
    f0 = {1: x0 + 1.0, 2: y0 - 1.0, 3: x0 - 1.0, 4: y0 + 1.0}[i]
    init = cmath.log(f0)
    return iterated_integral(cycle, [eta(i), eta(j)], inits=[init, 0.0], tol=tol)


# ---------------------------------------------------------------------------
# Named checks.

PAIRING_EXPECTED = {
    (1, 1): 0.0, (1, 2): 0.0, (1, 3): TWO_PI_I,
    (2, 1): 0.0, (2, 2): TWO_PI_I, (2, 3): -TWO_PI_I,
    (3, 1): TWO_PI_I, (3, 2): -TWO_PI_I, (3, 3): 0.0,
}

# Periods of the based sum d0+d1+d2+d3 pair to zero with eta_1..eta_3
# (the orbit classes are orthogonal to them), forcing the loop-0 row.
PAIRING_LOOP0 = {1: -TWO_PI_I, 2: 0.0, 3: 0.0}


def pairing_table(t: complex, tol: float = 1e-10) -> Dict[Tuple[int, int], complex]:
    """Integrals of eta_1..eta_3 over the saddle loops 1..3 (and loop 0)."""
    out = {}
    for i in (0, 1, 2, 3):
        loop = vanishing_loop(i, t)
        for j in (1, 2, 3):
            out[(i, j)] = iterated_integral(loop, [eta(j)], tol=tol)
    return out


def oval_orientation_certificate(t: float) -> float:
    """int_gamma x dy; positive certifies the counterclockwise orientation."""
    gamma = real_oval(t)
    return iterated_integral(gamma, [XdY()]).real


def cauchy_suite(t: float, tol: float = 1e-10) -> Dict[str, complex]:
    """The three vanishing integrals over the real oval.

    * phi1 dphi3: log(x+1) against dx/(x-1) (x-holomorphic integrand);
    * log(t/(y^2-1)) dy/(y-1): the collapsed order-2 combination, with
      d log(t/(y^2-1)) = -(eta2 + eta4);
    * dphi2 dphi2: iterated square of a single logarithmic form.
    """
    gamma = real_oval(t)
    out = {}
    out["phi1_dphi3"] = moment_integral(gamma, 1, 3, tol=tol)
    c0 = cmath.log(-complex(t))  # log of t/(y^2-1) at the start point y = 0
    out["log_t_over_y2m1_dphi2"] = iterated_integral(
        gamma,
        [EtaCombo(((2, -1.0), (4, -1.0))), eta(2)],
        inits=[c0, 0.0],
        tol=tol,
    )
    out["dphi2_dphi2"] = iterated_integral(gamma, [eta(2), eta(2)], tol=tol)
    return out


def v2_double_integral(t: complex, tol: float = 1e-9,
                       factory: Optional[CycleFactory] = None) -> complex:
    """int over the cycle of [x, z] of dphi2 dphi3; equals 4 pi^2."""
    from .words import X_ELT, Z_ELT

    factory = factory or CycleFactory(t)
    cyc = factory.cycle_of_word(commutator(X_ELT, Z_ELT))
    return iterated_integral(cyc, [eta(2), eta(3)], tol=tol)


def shuffle_defect(cycle: Cycle, f1: Form, f2: Form, tol: float = 1e-10) -> float:
    """|int f1 f2 + int f2 f1 - (int f1)(int f2)| for a closed based cycle."""
    a = iterated_integral(cycle, [f1, f2], tol=tol)
    b = iterated_integral(cycle, [f2, f1], tol=tol)
    p = iterated_integral(cycle, [f1], tol=tol)
    q = iterated_integral(cycle, [f2], tol=tol)
    return abs(a + b - p * q)


def period_determinant(w1: Word, w2: Word, t: complex, i: int, j: int,
                       factory: Optional[CycleFactory] = None,
                       tol: float = 1e-9) -> complex:
    """det [[int_{w1} eta_i, int_{w1} eta_j], [int_{w2} eta_i, int_{w2} eta_j]]."""
    factory = factory or CycleFactory(t)

    def periods(w):
        cycle = factory.cycle_of_word(w)
        return [iterated_integral(cycle, [eta(k)], tol=tol) for k in (i, j)]

    (a, b), (c, d) = periods(w1), periods(w2)
    return a * d - b * c


def determinant_defect(w1: Word, w2: Word, t: complex, i: int, j: int,
                       factory: Optional[CycleFactory] = None,
                       tol: float = 1e-9) -> float:
    """|int_{[w1,w2]} eta_i eta_j - period_determinant|."""
    factory = factory or CycleFactory(t)
    comm_cycle = factory.cycle_of_word(commutator(w1, w2))
    lhs = iterated_integral(comm_cycle, [eta(i), eta(j)], tol=tol)
    return abs(lhs - period_determinant(w1, w2, t, i, j, factory, tol))
