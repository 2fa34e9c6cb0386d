import numpy as np
import pytest

import orbitdepth.holonomy as holonomy_module
from orbitdepth.curves import Cycle, CycleFactory, curve_f, oval_connector
from orbitdepth.holonomy import (
    DEFAULT_EPS_GRID,
    TransportError,
    resolved_sign,
    holonomy,
    holonomy_along,
    holonomy_displacement,
    jet_along,
    m2_assembly_check,
    m3_center_crosscheck,
    m3_center_prediction,
    melnikov_fit,
    melnikov_jet,
    transport,
)
from orbitdepth.integrals import QuadratureError
from orbitdepth.melnikov import FLAGSHIP, center_family, deformation, mv
from orbitdepth.reporting import Config, numeric_suite
from orbitdepth.words import D2, Gen, Word, Z_ELT, commutator, v_k

T0 = 0.36
GAMMA = Word.gen(Gen.G)
TWO_PI_I = 2j * np.pi


@pytest.fixture(scope="module")
def factory():
    return CycleFactory(T0)


@pytest.fixture(scope="module")
def v3_jet(factory):
    return melnikov_jet(v_k(3), T0, FLAGSHIP, factory=factory)


def close_to(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def test_unperturbed_identity(factory):
    for w in (GAMMA, D2, v_k(2)):
        h = holonomy(w, T0, 0.0, FLAGSHIP, factory=factory)
        assert abs(h - T0) < 1e-12


def test_real_system_real_return(factory):
    h = holonomy(GAMMA, T0, 0.01, FLAGSHIP, factory=factory)
    assert h.imag == 0.0
    assert h != T0
    eps = np.array(DEFAULT_EPS_GRID)
    grid = holonomy(GAMMA, T0, np.concatenate([eps, -eps]), FLAGSHIP, factory=factory)
    assert np.all(grid.imag == 0.0)
    assert np.all(grid != T0)


@pytest.mark.parametrize("w", [GAMMA, v_k(2)], ids=["gamma", "v2"])
def test_grid_matches_scalar_calls(factory, w):
    # one stacked solve per segment must reproduce each leaf transported alone
    cyc = factory.cycle_of_word(w)
    eps = np.array([0.004, -0.004, 0.02, -0.02])
    x, y, j = transport(cyc, FLAGSHIP, eps)
    disp = holonomy_displacement(cyc, FLAGSHIP, eps)
    for i, e in enumerate(eps):
        xs, ys, js = transport(cyc, FLAGSHIP, e)
        assert max(abs(x[i] - xs), abs(y[i] - ys), abs(j[i] - js)) < 1e-11
        assert abs(disp[i] - holonomy_displacement(cyc, FLAGSHIP, e)) < 1e-11


def test_scalar_eps_returns_python_complex(factory):
    cyc = factory.cycle_of_word(GAMMA)
    values = transport(cyc, FLAGSHIP, 0.01) + (
        holonomy_along(cyc, FLAGSHIP, 0.01), holonomy_displacement(cyc, FLAGSHIP, 0.01))
    assert all(type(v) is complex for v in values)


def test_corrupted_level_names_eps(factory, monkeypatch):
    cyc = factory.cycle_of_word(GAMMA)
    shifted = Cycle(cyc.segments, cyc.t + 1e-6, cyc.base_point, label="shifted")
    with pytest.raises(TransportError, match=r"eps = 0\.004"):
        holonomy_displacement(shifted, FLAGSHIP, np.array([0.004, 0.02]))
    # the check is per leaf: a mismatch on the last leaf alone is caught
    monkeypatch.setattr(holonomy_module, "curve_f",
                        lambda x, y: curve_f(x, y) + np.array([0.0, 1e-6]))
    with pytest.raises(TransportError, match=r"eps = 0\.02"):
        holonomy_displacement(cyc, FLAGSHIP, np.array([0.004, 0.02]))


def test_perturbed_slope_turns_the_displacement_check_red(factory, monkeypatch):
    # the endpoint comes from the slope and the displacement from the form,
    # so an error in the slope alone is caught by the 1e-10 comparison
    cyc = factory.cycle_of_word(GAMMA)
    slope_and_form = holonomy_module.LeafField.slope_and_form

    def perturbed(self, x, y, chart):
        slope, form = slope_and_form(self, x, y, chart)
        return slope * (1.0 + 1e-8), form

    monkeypatch.setattr(holonomy_module.LeafField, "slope_and_form", perturbed)
    with pytest.raises(TransportError, match="displacement mismatch"):
        holonomy_displacement(cyc, FLAGSHIP, np.array([0.004, 0.02]))


def test_unsettled_fixed_point_names_eps(factory, monkeypatch):
    cyc = factory.cycle_of_word(GAMMA)
    monkeypatch.setattr(holonomy_module, "FIX_MAX_ITERATIONS", 1)
    with pytest.raises(TransportError, match=r"Segment.* eps = 0\.02 "):
        transport(cyc, FLAGSHIP, 0.02)
    # with two iterations the eps = 0 leaf has settled and the other is named
    monkeypatch.setattr(holonomy_module, "FIX_MAX_ITERATIONS", 2)
    with pytest.raises(TransportError, match=r"eps = 0\.02 "):
        transport(cyc, FLAGSHIP, np.array([0.0, 0.02]))


def test_unstable_transport_raises(factory, monkeypatch):
    # one panel count can never be compared with another
    monkeypatch.setattr(holonomy_module, "SEGMENT_MAX_ROUNDS", 1)
    with pytest.raises(QuadratureError, match="did not stabilize"):
        transport(factory.cycle_of_word(GAMMA), FLAGSHIP, 0.02)


def test_transport_cycle_shapes(factory):
    oval = factory.cycle_of_word(GAMMA)
    with pytest.raises(ValueError, match="chart"):
        transport(Cycle(oval.segments[:-1], T0, oval.base_point), FLAGSHIP, 0.01)


def test_displacement_consistency(factory):
    cyc = factory.cycle_of_word(v_k(2))
    for eps in (0.004, 0.02):
        d = holonomy_displacement(cyc, FLAGSHIP, eps)
        direct = holonomy_along(cyc, FLAGSHIP, eps) - T0
        assert abs(d - direct) < 1e-11


def test_flagship_fit(factory):
    fit = melnikov_fit(GAMMA, T0, FLAGSHIP, factory=factory)
    assert fit.is_zero(1) and fit.is_zero(2)
    assert not fit.is_zero(3)
    assert fit.stable(3, 5e-3)
    assert fit.c3.real < 0 and abs(fit.c3.imag) < 1e-9
    assert close_to(fit.c3, melnikov_jet(GAMMA, T0, FLAGSHIP, factory=factory)[2], 5e-3)


def test_v2_fit_order2_vanishes(factory):
    fit = melnikov_fit(v_k(2), T0, FLAGSHIP, factory=factory)
    assert fit.is_zero(2)


def test_commutator_fit_matches_wronskian(factory):
    # leading order-2 coefficient along [d2, z] is (2 pi i)^2 W(beta2, beta3)
    w = commutator(D2, Z_ELT)
    fit = melnikov_fit(w, T0, FLAGSHIP, factory=factory)
    expected = resolved_sign(2) * TWO_PI_I ** 2 * (T0 ** 2)  # W(-t^2, t) = t^2
    assert abs(fit.c2 - expected) / abs(expected) < 5e-3
    # the direct transport and the jets agree order by order (c1 vanishes in both)
    jet = melnikov_jet(w, T0, FLAGSHIP, factory=factory)
    assert fit.is_zero(1) and abs(jet[0]) <= 1e-12
    assert close_to(fit.c2, jet[1], 5e-3) and close_to(fit.c3, jet[2], 5e-3)


def test_reversal_negates_leading(factory):
    w = commutator(D2, Z_ELT)
    f = melnikov_fit(w, T0, FLAGSHIP, factory=factory)
    g = melnikov_fit(w.inverse(), T0, FLAGSHIP, factory=factory)
    assert abs(g.c2 + f.c2) / abs(f.c2) < 5e-3


def test_base_point_robustness(factory):
    # conjugation by an oval arc (base point moved along the oval) leaves
    # the leading coefficient of a commutator word unchanged
    w = commutator(D2, Z_ELT)
    cycle = factory.cycle_of_word(w)
    conn = oval_connector(T0, 0.2)
    moved = Cycle(
        conn.segments + cycle.segments + conn.reverse().segments,
        T0,
        conn.base_point,
        label="rebased",
    )
    eps = np.array([1e-3 * 2 ** j for j in range(6)])
    base_vals = holonomy_displacement(cycle, FLAGSHIP, eps)
    moved_vals = holonomy_displacement(moved, FLAGSHIP, eps)
    c2_base = np.linalg.lstsq(
        np.stack([eps ** 2, eps ** 3, eps ** 4], axis=1), base_vals, rcond=None)[0][0]
    c2_moved = np.linalg.lstsq(
        np.stack([eps ** 2, eps ** 3, eps ** 4], axis=1), moved_vals, rcond=None)[0][0]
    assert abs(c2_moved - c2_base) / abs(c2_base) < 5e-3


def test_v3_sign_calibrated_value(factory, v3_jet):
    fit = melnikov_fit(v_k(3), T0, FLAGSHIP, factory=factory)
    sym = mv(3, FLAGSHIP).evaluate(T0)  # t0^2
    expected = resolved_sign(3) * TWO_PI_I ** 3 * sym
    assert abs(fit.c3 - expected) / abs(expected) < 5e-3
    assert close_to(fit.c3, v3_jet[2], 5e-3)


def test_center_exactness(factory):
    d0 = center_family("t", 1, 1, 0)
    cyc = factory.cycle_of_word(GAMMA)
    returns = holonomy_along(cyc, d0, np.array([0.01, 0.02, 0.05]))
    assert np.all(np.abs(returns - T0) <= 1e-10)


def test_center_crosscheck():
    rep = m3_center_crosscheck("t", 0, 1, 1, T0)
    assert rep.passed, (rep.computed, rep.expected, rep.error)


def test_center_witness_scalings(factory):
    f11 = melnikov_fit(GAMMA, T0, center_family("t", 0, 1, 1), factory=factory)
    f21 = melnikov_fit(GAMMA, T0, center_family("t", 0, 1, 2), factory=factory)
    f22 = melnikov_fit(GAMMA, T0, center_family("t", 0, 2, 2), factory=factory)
    assert abs(f21.c3 / f11.c3 - 2) < 2e-2   # linear in lam alone
    assert abs(f22.c3 / f11.c3 - 4) < 4e-2   # quadratic on the diagonal
    for fit, (lambda1, lam) in ((f11, (1, 1)), (f21, (1, 2)), (f22, (2, 2))):
        jet = melnikov_jet(GAMMA, T0, center_family("t", 0, lambda1, lam), factory=factory)
        assert close_to(fit.c3, jet[2], 5e-3)


def test_m2_assembly():
    reports = m2_assembly_check(FLAGSHIP, T0)
    for rep in reports:
        assert rep.passed, rep.name
    # the symmetric case is trivially zero (all Wronskian coefficients vanish)
    sym = m2_assembly_check(deformation(1, 0, 1), T0)
    assert all(r.passed for r in sym)
    with pytest.raises(ValueError):
        m2_assembly_check(deformation("t^2", "t^2+2t", "t"), T0)


def test_center_crosscheck_lambda_zero():
    rep = m3_center_crosscheck("t", 1, 1, 0, T0)
    assert rep.expected == 0 and rep.passed  # both sides vanish


def test_melnikov_fit_guards(factory):
    with pytest.raises(ValueError):
        melnikov_fit(GAMMA, T0, FLAGSHIP, eps_grid=[1e-3, 2e-3], factory=factory)


def test_center_fit_all_zero(factory):
    d0 = center_family("t", 1, 1, 0)
    fit = melnikov_fit(GAMMA, T0, d0, factory=factory)
    assert fit.is_zero(1) and fit.is_zero(2) and fit.is_zero(3)


# ---------------------------------------------------------------------------
# eps-jets against closed forms


def test_v3_jet_matches_closed_form(v3_jet):
    expected = resolved_sign(3) * TWO_PI_I ** 3 * mv(3, FLAGSHIP).evaluate(T0)
    assert close_to(v3_jet[2], expected, 1e-8)


def test_commutator_jet_matches_wronskian(factory):
    c2 = melnikov_jet(commutator(D2, Z_ELT), T0, FLAGSHIP, factory=factory)[1]
    assert close_to(c2, resolved_sign(2) * TWO_PI_I ** 2 * T0 ** 2, 1e-8)


@pytest.mark.parametrize("A, lambda1, lam", [("t", 1, 1), ("t^2+t", 1, 2)])
def test_center_jet_matches_prediction(factory, A, lambda1, lam):
    # A = t^2 + t makes a2 = 1/(2t + 1) a proper rational function
    c3 = melnikov_jet(GAMMA, T0, center_family(A, 0, lambda1, lam), factory=factory)[2]
    assert close_to(c3, resolved_sign(3) * m3_center_prediction(A, lam, T0, lambda1), 1e-8)


def test_flagship_jet_starts_at_order_3(factory):
    c1, c2, c3 = melnikov_jet(GAMMA, T0, FLAGSHIP, factory=factory)
    assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12
    assert abs(c3) > 0.1


def test_jet_cycle_shapes(factory):
    assert melnikov_jet(Word(), T0, FLAGSHIP, factory=factory) == (0j, 0j, 0j)
    oval = factory.cycle_of_word(GAMMA)  # charts y, x, x, y, y, x, x, y
    with pytest.raises(ValueError, match="chart"):
        jet_along(Cycle(oval.segments[:-1], T0, oval.base_point), FLAGSHIP)


def test_unstable_jet_raises(factory, monkeypatch):
    monkeypatch.setattr(holonomy_module, "_cycle_jet",
                        lambda cycle, dense, rounds: np.full(3, 1e-6 * rounds, complex))
    with pytest.raises(QuadratureError, match="did not stabilize"):
        melnikov_jet(GAMMA, T0, FLAGSHIP, factory=factory)


def test_v3_jet_settles_in_two_panel_rounds(factory, monkeypatch):
    # degree-32 panels resolve the branch points 0.1 from the saddle loops at
    # the base count: rounds 0 and 1 agree to JET_TOL, and no third round runs
    rounds = []
    cycle_jet = holonomy_module._cycle_jet

    def counted(cycle, dense, r):
        rounds.append(r)
        return cycle_jet(cycle, dense, r)

    monkeypatch.setattr(holonomy_module, "_cycle_jet", counted)
    jet_along(factory.cycle_of_word(v_k(3)), FLAGSHIP)
    assert rounds == [0, 1]


def test_dropping_the_chart_switch_offset_turns_checks_red(monkeypatch):
    monkeypatch.setattr(holonomy_module, "_switch_chart",
                        lambda dep: (np.zeros_like(dep), np.zeros_like(dep)))
    records = {r.id: r for r in numeric_suite(Config())}
    assert not records["num.v3_crosscheck"].passed
    assert not records["num.flagship.c3"].passed
