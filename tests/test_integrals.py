import cmath
import random

import numpy as np
import pytest

from orbitdepth.curves import CycleFactory, Line, Segment, Cycle, real_oval, vanishing_loop
from orbitdepth.integrals import (
    _CHEB_N,
    _NODES,
    _QMAT,
    _cumulative,
    _panel_nodes,
    _split_panels,
    PAIRING_EXPECTED,
    PAIRING_LOOP0,
    PoleOnPathError,
    cauchy_suite,
    determinant_defect,
    eta,
    integrate_form,
    iterated_integral,
    moment_integral,
    oval_orientation_certificate,
    pairing_table,
    period_determinant,
    shuffle_defect,
    v2_double_integral,
)
from orbitdepth.words import D1, D2, D3, X_ELT, Z_ELT, Gen, random_word

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


def test_split_panels_interpolates_onto_half_panels():
    s = _panel_nodes(6)
    halves = _split_panels(np.stack([np.exp(2j * s), 1.0 / (s + 0.5)]))
    fine = _panel_nodes(12)
    assert halves.shape == (2, 12, _NODES.size)
    assert np.max(np.abs(halves - np.stack([np.exp(2j * fine), 1.0 / (fine + 0.5)]))) <= 1e-13


def test_panel_rule_is_exact_on_polynomials_up_to_its_degree():
    # guards the inverse Chebyshev-Vandermonde matrices behind _QMAT and _HALVES
    halves = np.concatenate([_NODES / 2.0, 0.5 + _NODES / 2.0])
    for m in range(_CHEB_N + 1):
        g = _NODES ** m
        assert np.max(np.abs(_QMAT @ g - _NODES ** (m + 1) / (m + 1))) <= 1e-13, m
        assert np.max(np.abs(_split_panels(g[None, :]).ravel() - halves ** m)) <= 1e-13, m


def test_pairing_table():
    for t in (0.25, T0):
        tab = pairing_table(t)
        for (i, j), v in tab.items():
            expected = PAIRING_LOOP0[j] if i == 0 else PAIRING_EXPECTED[(i, j)]
            assert abs(v - expected) <= 1e-9, (i, j, v)


def test_based_loops_same_periods():
    fac = CycleFactory(T0)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            bare = integrate_form(vanishing_loop(i, T0), eta(j))
            based = integrate_form(fac.based_loop(i), eta(j))
            assert abs(bare - based) < 1e-10


def test_oval_periods_vanish():
    gamma = real_oval(T0)
    for j in (1, 2, 3):
        assert abs(integrate_form(gamma, eta(j))) < 1e-10


def test_orientation():
    assert oval_orientation_certificate(T0) > 0


def test_period_additivity():
    rng = random.Random(SEED)
    fac = CycleFactory(T0)
    saddle_gens = [Gen.D0, Gen.D1, Gen.D2, Gen.D3]
    for _ in range(20):
        u = random_word(rng, 3, saddle_gens)
        v = random_word(rng, 3, saddle_gens)
        w = u * v  # reduced product
        for j in (1, 2, 3, 4):
            lhs = integrate_form(fac.cycle_of_word(w), eta(j)) if w.letters else 0.0
            rhs = (integrate_form(fac.cycle_of_word(u), eta(j)) if u.letters else 0.0) \
                + (integrate_form(fac.cycle_of_word(v), eta(j)) if v.letters else 0.0)
            assert abs(lhs - rhs) < 1e-10


def test_v2_double_integral():
    val = v2_double_integral(T0)
    assert abs(val - 4 * np.pi ** 2) / (4 * np.pi ** 2) < 1e-6


def test_cauchy_suite():
    for name, v in cauchy_suite(T0).items():
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
        assert determinant_defect(w1, w2, T0, i, j, factory=fac) < 1e-6
    # det [[int_x eta_2, int_x eta_3], [int_z eta_2, int_z eta_3]] = 4 pi^2
    assert abs(period_determinant(X_ELT, Z_ELT, T0, 2, 3, factory=fac) - 4 * np.pi ** 2) < 1e-8


def test_moment_integral_constant_drop():
    # the starting log constant multiplies a vanishing period on the oval
    gamma = real_oval(T0)
    i12 = moment_integral(gamma, 1, 2)
    shifted = iterated_integral(gamma, [eta(1), eta(2)],
                                inits=[cmath.log(gamma.base_point.x + 1) + 10.0, 0.0])
    assert abs(i12 - shifted) < 1e-8


def test_pole_clearance():
    from orbitdepth.curves import nearest_root

    z0 = 0.9 + 0.01j
    seed = complex(nearest_root(z0 * z0 - 1.0, T0, 1.0))
    seg = Segment("x", Line(z0, 1.1 + 0.01j), T0, dep_seed=seed)
    cyc = Cycle([seg], T0, seg.start_point())
    with pytest.raises(PoleOnPathError):
        integrate_form(cyc, eta(3))  # pole at x = 1 sits 0.01 from the path


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
    from orbitdepth.words import DELTA

    cyc = fac.cycle_of_word(DELTA)
    for j in (1, 2, 3):
        total = sum(
            integrate_form(vanishing_loop(i, T0), eta(j)) for i in range(4)
        )
        val = integrate_form(cyc, eta(j))
        assert abs(val - total) < 1e-9
        assert abs(val) < 1e-9  # the orbit classes pair to zero
