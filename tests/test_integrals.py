import cmath
import random
import re

import numpy as np
import pytest

import orbitdepth.holonomy as holonomy
import orbitdepth.integrals as integrals
from orbitdepth.curves import CycleFactory, Line, Segment, Cycle, nearest_root, real_oval, vanishing_loop
from orbitdepth.integrals import (
    _CHEB_N,
    _CLEARANCE_S,
    _NODES,
    _QMAT,
    _cumulative,
    _integral,
    _node_geometry,
    _panel_nodes,
    _pole_distances,
    _segment_panels,
    _tail,
    MIN_POLE_CLEARANCE,
    PAIRING_EXPECTED,
    EtaCombo,
    PoleOnPathError,
    XdY,
    QuadratureError,
    cauchy_suite,
    eta,
    iterated_integral,
    log_basis,
    moment_integral,
    oval_orientation_certificate,
    pairing_table,
    period_determinant,
    shuffle_defect,
    v2_double_integral,
)
from orbitdepth.melnikov import FLAGSHIP
from orbitdepth.reporting import Config, run_suite
from orbitdepth.words import D1, D2, D3, DELTA, X_ELT, Z_ELT, Gen, commutator, v_k
from support import determinant_defect, random_word

SEED = 20259
T0 = 0.36
TWO_PI_I = 2j * np.pi


def test_cumulative_matches_the_panel_loop():
    # the vectorized running integral against a prefix carried panel by panel
    npan = 6
    h = 1.0 / npan
    s = _panel_nodes(npan)
    g = np.stack([np.exp(2j * s), 1.0 / (s + 0.5)])
    ref = np.empty_like(g)
    prefix = np.zeros(2, complex)
    for p in range(npan):
        ref[:, p] = prefix[:, None] + h * (g[:, p] @ _QMAT.T)
        prefix = ref[:, p, -1]
    assert np.max(np.abs(_cumulative(g, h) - ref)) <= 1e-14
    exact = np.stack([(np.exp(2j * s) - 1.0) / 2j, np.log(2.0 * s + 1.0)])
    assert np.max(np.abs(_cumulative(g, h) - exact)) <= 1e-13


def test_cumulative_takes_one_width_per_panel():
    # two segments of [0, 1] on 6 and 12 panels side by side integrate as
    # the first one, then the second one from the first one's total
    g1, g2 = np.exp(2j * _panel_nodes(6)), 1.0 / (_panel_nodes(12) + 0.5)
    both = _cumulative(np.concatenate([g1, g2]), np.repeat([1.0 / 6, 1.0 / 12], [6, 12]))
    first = _cumulative(g1, 1.0 / 6)
    assert np.array_equal(both[:6], first)
    assert np.max(np.abs(both[6:] - (first[-1, -1] + _cumulative(g2, 1.0 / 12)))) <= 1e-14
    # the integral over [0, 1] alone is the running integral's last value
    g = np.stack([np.concatenate([g1, g2]), np.concatenate([g2[::2], g1 ** 2, g1])])
    h = np.repeat([1.0 / 6, 1.0 / 12], [6, 12])
    assert np.max(np.abs(_integral(g, h) - _cumulative(g, h)[:, -1, -1])) <= 1e-14
    assert abs(_integral(g1, 1.0 / 6) - first[-1, -1]) <= 1e-14


def test_panel_rule_is_exact_on_polynomials_up_to_its_degree():
    # guards the inverse Chebyshev-Vandermonde matrix behind _QMAT
    for m in range(_CHEB_N + 1):
        g = _NODES ** m
        assert np.max(np.abs(_QMAT @ g - _NODES ** (m + 1) / (m + 1))) <= 1e-13, m


def test_tail_reads_the_last_four_chebyshev_coefficients():
    # T_k at the nodes has the single coefficient 1 and the largest value 1
    xi = 2.0 * _NODES - 1.0
    for k in range(_CHEB_N + 1):
        tail = _tail(np.cos(k * np.arccos(xi))[None, :])
        assert abs(tail[0] - (k > _CHEB_N - 4)) <= 1e-13, k
    # one value per panel, the worst over leading axes; a zero panel passes
    g = np.zeros((2, 3, _NODES.size))
    g[1, 2] = np.cos(_CHEB_N * np.arccos(xi))
    g[0, 0] = np.exp(xi)
    assert np.array_equal(_tail(g) > 1e-10, [False, False, True])


def test_pairing_table():
    for t in (0.25, T0):
        tab = pairing_table(t)
        for (i, j), v in tab.items():
            assert abs(v - PAIRING_EXPECTED[(i, j)]) <= 1e-9, (i, j, v)


def test_based_loops_same_periods():
    fac = CycleFactory(T0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            bare = iterated_integral(vanishing_loop(i, T0), [eta(j)])
            based = iterated_integral(fac.based_loop(i), [eta(j)])
            assert abs(bare - based) < 1e-10


def test_oval_periods_vanish():
    gamma = real_oval(T0)
    for j in (1, 2, 3):
        assert abs(iterated_integral(gamma, [eta(j)])) < 1e-10


def test_orientation():
    assert oval_orientation_certificate(real_oval(T0)) > 0


def test_period_additivity():
    rng = random.Random(SEED)
    fac = CycleFactory(T0)
    saddle_gens = [Gen.D0, Gen.D1, Gen.D2, Gen.D3]
    for _ in range(20):
        u = random_word(rng, 3, saddle_gens)
        v = random_word(rng, 3, saddle_gens)
        w = u * v  # reduced product
        for j in (1, 2, 3, 4):
            lhs = iterated_integral(fac.cycle_of_word(w), [eta(j)]) if w.letters else 0.0
            rhs = (iterated_integral(fac.cycle_of_word(u), [eta(j)]) if u.letters else 0.0) \
                + (iterated_integral(fac.cycle_of_word(v), [eta(j)]) if v.letters else 0.0)
            assert abs(lhs - rhs) < 1e-10


def test_v2_double_integral():
    val = v2_double_integral(CycleFactory(T0))
    assert abs(val - 4 * np.pi ** 2) / (4 * np.pi ** 2) < 1e-6


def test_cauchy_suite():
    for name, v in cauchy_suite(real_oval(T0)).items():
        assert abs(v) <= 1e-8, name


def test_shuffle():
    fac = CycleFactory(T0)
    for i in (1, 2, 3):
        cyc = fac.based_loop(i)
        assert shuffle_defect(cyc, eta(2), eta(3)) < 1e-8
        assert shuffle_defect(cyc, eta(1), eta(2)) < 1e-8
    gamma = real_oval(T0)
    assert shuffle_defect(gamma, eta(2), eta(3)) < 1e-8


def test_determinant_identity():
    fac = CycleFactory(T0)
    for (w1, w2, i, j) in [
        (X_ELT, Z_ELT, 2, 3),
        (D1, D2, 2, 3),
        (D2, D3, 1, 2),
        (D1 * D3, D2, 3, 2),
    ]:
        assert determinant_defect(fac, w1, w2, i, j) < 1e-6
    # det [[int_x eta_2, int_x eta_3], [int_z eta_2, int_z eta_3]] = 4 pi^2
    assert abs(period_determinant(fac, X_ELT, Z_ELT, 2, 3) - 4 * np.pi ** 2) < 1e-8


def test_moment_integral_constant_drop():
    # the starting log constant multiplies a vanishing period on the oval
    gamma = real_oval(T0)
    i12 = moment_integral(gamma, 1, 2)
    shifted = iterated_integral(gamma, [eta(1), eta(2)],
                                inits=[cmath.log(gamma.base_point.x + 1) + 10.0, 0.0])
    assert abs(i12 - shifted) < 1e-8


def test_pole_clearance():
    z0 = 0.9 + 0.01j
    seed = complex(nearest_root(z0 * z0 - 1.0, T0, 1.0))
    seg = Segment("x", Line(z0, 1.1 + 0.01j), T0, dep_seed=seed)
    cyc = Cycle([seg], T0, seg.start_point())
    with pytest.raises(PoleOnPathError):
        iterated_integral(cyc, [eta(3)])  # pole at x = 1 sits 0.01 from the path


def test_log_basis_and_its_forms_reject_an_index_outside_1_to_4():
    x, y = np.array([0.5 + 0.25j]), np.array([0.25 - 0.75j])
    assert [complex(log_basis(i, x, y)[0]) for i in (1, 2, 3, 4)] == [
        1.5 + 0.25j, -0.75 - 0.75j, -0.5 + 0.25j, 1.25 - 0.75j]
    form = EtaCombo(((5, 1.0),))
    for call in (lambda: log_basis(0, x, y), lambda: form.values(x, y, x, y),
                 lambda: form.pole_clearance((1.0, 1.0, 1.0, 1.0))):
        with pytest.raises(ValueError, match="eta index . out of range"):
            call()


def test_iterated_length_checks():
    gamma = real_oval(T0)
    with pytest.raises(ValueError):
        iterated_integral(gamma, [])
    with pytest.raises(ValueError):
        iterated_integral(gamma, [eta(2)] * 5)


def test_iterated_powers_oracle():
    # same-form iterated integrals collapse to period^n / n!
    loop = vanishing_loop(2, T0)
    p = iterated_integral(loop, [eta(2)])
    for n, fact in ((2, 2), (3, 6), (4, 24)):
        v = iterated_integral(loop, [eta(2)] * n)
        assert abs(v - p ** n / fact) < 1e-9


def test_delta_word_periods_are_row_sums():
    fac = CycleFactory(T0)
    cyc = fac.cycle_of_word(DELTA)
    for j in (1, 2, 3):
        total = sum(
            iterated_integral(vanishing_loop(i, T0), [eta(j)]) for i in range(4)
        )
        val = iterated_integral(cyc, [eta(j)])
        assert abs(val - total) < 1e-9
        assert abs(val) < 1e-9  # the orbit classes pair to zero


# ---------------------------------------------------------------------------
# Refinement by Chebyshev tails


INTEGRAL_ORACLE_CASES = {
    "x_z": (lambda: [v2_double_integral(CycleFactory(T0))], 1e-9),
    "cauchy": (lambda: list(cauchy_suite(real_oval(T0)).values()), 1e-10),
    "pairing": (lambda: [v for t in (0.25, T0) for v in pairing_table(t).values()], 1e-10),
}


@pytest.mark.parametrize("case", INTEGRAL_ORACLE_CASES)
def test_settled_integrals_match_a_uniform_sweep_two_counts_finer(uniform, case):
    values, tol = INTEGRAL_ORACLE_CASES[case]
    settled = values()
    uniform(2)
    for a, u in zip(settled, values()):
        assert abs(a - u) <= tol * max(1.0, abs(u)), (case, a, u)


def near_pole_cycle(distance=1.1 * MIN_POLE_CLEARANCE):
    """One x-chart line of length 1.4 passing `distance` from the pole x = 1
    of eta_3, and int_line eta_3 in closed form."""
    z0, z1 = 1.0 + distance - 0.7j, 1.0 + distance + 0.7j
    seg = Segment("x", Line(z0, z1), T0, complex(nearest_root(z0 * z0 - 1.0, T0, 1.0)))
    return Cycle([seg], T0, seg.start_point()), cmath.log((z1 - 1.0) / (z0 - 1.0))


def swept_panel_counts(monkeypatch, forms, tol=1e-10):
    """The panel counts the near-pole line is swept at, with its value."""
    counts = []

    def panel_nodes(npan):
        counts.append(npan)
        return _panel_nodes(npan)

    monkeypatch.setattr(integrals, "_panel_nodes", panel_nodes)
    cyc, _ = near_pole_cycle()
    return counts, iterated_integral(cyc, forms, tol=tol)


def test_panels_split_near_a_pole_just_outside_the_clearance(monkeypatch):
    # a degree-32 panel 0.117 wide fails its tails 0.055 from the pole and
    # passes at half the width; the outer integrand of a length-2 integral
    # carries the inner one's tail with it
    _, p = near_pole_cycle()
    for forms, exact in (([eta(3)], p), ([eta(3), eta(3)], p * p / 2)):
        counts, value = swept_panel_counts(monkeypatch, forms)
        assert counts == [6, 12]
        assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact))


def test_the_stop_rule_reads_tol(monkeypatch):
    # the near-pole line's tail is 1.1e-9 at 6 panels and 7e-14 at 12
    _, p = near_pole_cycle()
    for tol, swept in ((1e-8, [6]), (1e-10, [6, 12]), (1e-13, [6, 12, 24])):
        counts, value = swept_panel_counts(monkeypatch, [eta(3)], tol)
        assert counts == swept, tol
        assert abs(value - p) <= tol * max(1.0, abs(p)), tol


def test_an_estimator_that_always_accepts_is_caught(monkeypatch, uniform):
    # the mutant keeps the near-pole line at its base count, which the test
    # above refuses, and lets the v_2 jet stop one count short of JET_TOL
    # (tests/test_holonomy.py checks that jet against the same oracle)
    def accept(g):
        return np.zeros(g.shape[-2])

    monkeypatch.setattr(integrals, "_tail", accept)
    monkeypatch.setattr(holonomy, "_tail", accept)
    assert swept_panel_counts(monkeypatch, [eta(3)])[0] == [6]
    cycle = CycleFactory(T0).cycle_of_word(v_k(2))
    jet = np.array(holonomy.jet_along(cycle, FLAGSHIP))
    uniform(2)
    finer = np.array(holonomy.jet_along(cycle, FLAGSHIP))
    assert np.max(np.abs(jet - finer)) > holonomy.JET_TOL * max(1.0, np.max(np.abs(finer)))


def test_a_segment_whose_tails_never_pass_is_named(monkeypatch):
    cyc, _ = near_pole_cycle()
    seg = cyc.segments[0]
    # at most one count per segment: the near-pole line fails at its base count
    monkeypatch.setattr(integrals, "SEGMENT_MAX_ROUNDS", 1)
    with pytest.raises(QuadratureError, match=rf"iterated integral: Chebyshev tail \S+ on "
                                              rf"{re.escape(repr(seg))} at 6 panels, above"):
        iterated_integral(cyc, [eta(3)])
    # an estimator that never passes runs a segment to the cap, 6 * 2^5 panels
    monkeypatch.setattr(integrals, "SEGMENT_MAX_ROUNDS", 6)
    monkeypatch.setattr(integrals, "_tail", lambda g: np.ones(g.shape[-2]))
    with pytest.raises(QuadratureError, match=r"tail 1 on .* at 192 panels"):
        iterated_integral(cyc, [eta(3)])


# ---------------------------------------------------------------------------
# The reference: one segment at a time


def reference_segment_sweep(seg, forms, prefixes, rounds):
    """The iterated integrals' prefixes at the segment's end from those at
    its start, and the worst tail of the integrands on its panels."""
    npan = _segment_panels(seg, rounds)
    x, y, dxds, dyds = seg.chart_frame(*_node_geometry(seg, npan))
    out, tails, acc = [], [], None
    for j, form in enumerate(forms):
        g = form.values(x, y, dxds, dyds)
        if j > 0:
            g = g * acc
        acc = prefixes[j] + _cumulative(g, 1.0 / npan)
        out.append(complex(acc[-1, -1]))
        tails.append(_tail(g))
    return out, [np.max(tails)]


def reference_iterated_integral(cycle, forms, inits, tol=1e-10):
    """iterated_integral with every segment settled and swept on its own, a
    segment met again in the same direction starting at its settled rounds."""
    inits = list(inits)
    inits[-1] = 0.0
    prefixes = [complex(v) for v in inits]
    settled = {}
    for seg in cycle.segments:
        prefixes = integrals._settle(
            [seg], lambda r: reference_segment_sweep(seg, forms, prefixes, r[0]),
            "iterated integral", tol, settled)
    return prefixes[-1]


REFERENCE_CYCLES = {
    "gamma": lambda: real_oval(T0),
    "x_z": lambda: CycleFactory(T0).cycle_of_word(commutator(X_ELT, Z_ELT)),
    "v3": lambda: CycleFactory(T0).cycle_of_word(v_k(3)),
    "delta2": lambda: vanishing_loop(2, T0),
}

REFERENCE_FORMS = {
    1: ([eta(2)], [0.0]),
    2: ([eta(1), eta(2)], [cmath.log(0.2), 0.0]),
    3: ([eta(2), eta(3), EtaCombo(((1, 0.5), (4, -1.0)))], [0.3, -0.2j, 0.0]),
}


@pytest.mark.parametrize("length", REFERENCE_FORMS)
@pytest.mark.parametrize("case", REFERENCE_CYCLES)
def test_block_sweep_matches_the_sweep_one_segment_at_a_time(settled_rounds, case, length):
    # the same values to roundoff, and every segment settled at the same
    # count.  The floor grows by 1e-15 per segment from 1e-14: the integrals
    # of length 1 and 2 over v_3 vanish by cancellation over 96 segments, to
    # about 3e-14, and the two sweeps sum them in different orders
    cycle = REFERENCE_CYCLES[case]()
    forms, inits = REFERENCE_FORMS[length]
    value, rounds = settled_rounds(lambda: iterated_integral(cycle, forms, inits))
    ref, ref_rounds = settled_rounds(lambda: reference_iterated_integral(cycle, forms, inits))
    floor = max(1e-14, 1e-15 * len(cycle.segments))
    assert abs(value - ref) <= max(1e-12 * abs(ref), floor), (case, length, value, ref)
    assert rounds == ref_rounds and len(rounds) == len(cycle.segments)


def test_pole_distances_are_computed_once_per_segment_for_both_directions(monkeypatch):
    # the based loop runs its tail out and back: 9 segments over 5 paths
    cycle = CycleFactory(T0).based_loop(2)
    grids = []
    dependent = Segment.dependent

    def counted(seg, s):
        if s is _CLEARANCE_S:
            grids.append(seg.uid)
        return dependent(seg, s)

    monkeypatch.setattr(Segment, "dependent", counted)
    for forms in ([eta(1)], [eta(2), eta(3)], [EtaCombo(((2, -1.0), (4, -1.0))), XdY()]):
        iterated_integral(cycle, forms)
    uids = {seg.uid for seg in cycle.segments}
    assert len(cycle.segments) == 9 and sorted(grids) == sorted(uids)
    # both directions read the minima of |x+1|, |y-1|, |x-1|, |y+1| on the grid
    for seg in cycle.segments:
        x, y = seg.frame(_CLEARANCE_S)[:2]
        fresh = [np.min(np.abs(log_basis(i, x, y))) for i in (1, 2, 3, 4)]
        assert np.max(np.abs(np.subtract(_pole_distances(seg), fresh))) <= 1e-15
    # a form's clearance is the least distance over its nonzero terms
    distances = (0.4, 0.3, 0.2, 0.1)
    assert EtaCombo(((1, 2.0), (3, 0.0), (2, 1j))).pole_clearance(distances) == 0.3
    assert EtaCombo(((4, 0.0),)).pole_clearance(distances) == np.inf
    assert XdY().pole_clearance(distances) == np.inf


def swept_blocks(monkeypatch, run):
    """(sweeps, panels) of the block sweeps of run()'s iterated integrals."""
    calls = []
    block_sweep = integrals._block_sweep

    def counted(block, forms, prefixes, rounds):
        calls.append(sum(_segment_panels(seg, r) for seg, r in zip(block, rounds)))
        return block_sweep(block, forms, prefixes, rounds)

    monkeypatch.setattr(integrals, "_block_sweep", counted)
    run()
    return len(calls), sum(calls)


@pytest.mark.parametrize("run, sweeps, panels", [
    (lambda: iterated_integral(real_oval(T0), [eta(2), eta(3)]), 5, 48),
    (lambda: iterated_integral(CycleFactory(T0).cycle_of_word(commutator(X_ELT, Z_ELT)),
                               [eta(2), eta(3)]), 28, 576),
    (lambda: v2_double_integral(CycleFactory(T0)), 23, 396),
], ids=["gamma", "x_z", "v2_double_integral"])
def test_iterated_integrals_sweep_pinned_work(monkeypatch, run, sweeps, panels):
    # next to the jets' 5/48 (oval), 28/576 (v_2) and 39/912 (v_3): the
    # oval's 5 blocks pass at the base counts; at the default tol 1e-10 the
    # [x, z] cycle's 23 blocks take 5 reruns, since a segment met again in
    # the same direction starts at the rounds it settled at (one segment at
    # a time, by the same rule, takes 64 sweeps of 516 panels); at the word
    # checks' 1e-9 no segment refines
    assert swept_blocks(monkeypatch, run) == (sweeps, panels)


def test_resetting_the_prefixes_at_each_block_start_turns_checks_red(monkeypatch, tmp_path):
    # every block then integrates from zero, as if the cycle began there:
    # the integrals over the many blocks of the [x, z] cycle and of the oval
    # go wrong; the pairing table's one-segment loops and the sign of the
    # oval's area do not see it
    block_sweep = integrals._block_sweep
    monkeypatch.setattr(integrals, "_block_sweep", lambda block, forms, prefixes, rounds:
                        block_sweep(block, forms, [0j] * len(prefixes), rounds))
    _, records, _ = run_suite("all", Config(), str(tmp_path / "report.json"))
    assert len(records) == 131
    assert {r.id for r in records if not r.passed} == {
        "num.v2_double_integral", "num.determinant", "num.cauchy.phi1_dphi3",
        "num.cauchy.log_t_over_y2m1_dphi2", "num.cauchy.dphi2_dphi2", "num.center.order3",
        "num.m2.order-2_assembly", "num.m2.moment_integral_phi1_dphi3",
        "num.m2.collapsed_log_combination"}
