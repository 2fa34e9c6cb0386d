import re

import numpy as np
import pytest

import orbitdepth.holonomy as holonomy_module
import orbitdepth.integrals as integrals_module
from orbitdepth import reporting
from orbitdepth.curves import Cycle, CycleFactory, curve_f, nearest_root
from orbitdepth.holonomy import (
    FIX_MAX_ITERATIONS,
    FIX_RTOL,
    JET_TOL,
    SEGMENT_ATOL,
    WITNESS_EPS,
    WITNESS_ORDER_TOL,
    TransportError,
    resolved_sign,
    holonomy_along,
    holonomy_displacement,
    jet_along,
    m2_assembly,
    m3_center_prediction,
    remainder_orders,
    transport,
)
from orbitdepth.integrals import (
    _NODES,
    CAUCHY_TOL,
    QuadratureError,
    _cumulative,
    _node_geometry,
    _panel_nodes,
    _segment_panels,
    _tail,
    cauchy_suite,
)
from orbitdepth.melnikov import FLAGSHIP, center_family, deformation, mv
from orbitdepth.reporting import Config, numeric_suite, run_suite
from orbitdepth.words import D2, Gen, Word, Z_ELT, commutator, v_k
from support import oval_connector

T0 = 0.36
GAMMA = Word.gen(Gen.G)
TWO_PI_I = 2j * np.pi


@pytest.fixture(scope="module")
def factory():
    return CycleFactory(T0)


@pytest.fixture(scope="module")
def gamma(factory):
    return factory.cycle_of_word(GAMMA)


@pytest.fixture(scope="module")
def v3_jet(factory):
    return jet_along(factory.cycle_of_word(v_k(3)), FLAGSHIP)


def close_to(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def witnessed(cycle, d, jet):
    """The transported remainder past the jet is of order 4 at +-WITNESS_EPS."""
    return all(abs(order - 4) <= WITNESS_ORDER_TOL for order in remainder_orders(cycle, d, jet))


def test_unperturbed_identity(factory):
    for w in (GAMMA, D2, v_k(2)):
        h = holonomy_along(factory.cycle_of_word(w), FLAGSHIP, 0.0)
        assert abs(h - T0) < 1e-12


def test_real_system_real_return(gamma):
    h = holonomy_along(gamma, FLAGSHIP, 0.01)
    assert h.imag == 0.0
    assert h != T0
    eps = 1e-3 * 2.0 ** np.arange(6)
    grid = holonomy_along(gamma, FLAGSHIP, np.concatenate([eps, -eps]))
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


def test_non_finite_eps_is_refused_before_any_sweep(factory, monkeypatch):
    cyc = factory.cycle_of_word(GAMMA)
    monkeypatch.setattr(holonomy_module, "_block_transport",
                        lambda *args: pytest.fail("a leaf was transported"))
    for eps, name in ((np.nan, "nan"), (np.array([0.01, np.inf]), "inf"),
                      (complex(0.01, np.nan), r"\(0\.01\+nanj\)")):
        with pytest.raises(ValueError, match=rf"^eps = {name} is not finite$"):
            transport(cyc, FLAGSHIP, eps)


def test_unsettled_transport_names_the_segment(factory, monkeypatch):
    # every transported segment passes its tails at the base count, so only
    # an estimator that never passes runs one to the cap: 6 * 2^5 panels on
    # the first segment, a line
    cyc = factory.cycle_of_word(GAMMA)
    monkeypatch.setattr(holonomy_module, "_tail", lambda g: np.ones(g.shape[-2]))
    with pytest.raises(QuadratureError, match=rf"leaf transport: Chebyshev tail 1 on "
                                              rf"{re.escape(repr(cyc.segments[0]))} at 192 panels"):
        transport(cyc, FLAGSHIP, 0.02)


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
    cycle = factory.cycle_of_word(GAMMA)
    jet = jet_along(cycle, FLAGSHIP)
    assert jet[2].real < 0 and abs(jet[2].imag) < 1e-9
    assert witnessed(cycle, FLAGSHIP, jet)


def test_v2_fit_order2_vanishes(factory):
    cycle = factory.cycle_of_word(v_k(2))
    jet = jet_along(cycle, FLAGSHIP)
    assert abs(jet[1]) <= 1e-12
    assert witnessed(cycle, FLAGSHIP, jet)


def test_commutator_fit_matches_wronskian(factory):
    # leading order-2 coefficient along [d2, z] is (2 pi i)^2 W(beta2, beta3)
    cycle = factory.cycle_of_word(commutator(D2, Z_ELT))
    jet = jet_along(cycle, FLAGSHIP)
    expected = resolved_sign(2) * TWO_PI_I ** 2 * (T0 ** 2)  # W(-t^2, t) = t^2
    assert abs(jet[1] - expected) / abs(expected) < 5e-3
    assert abs(jet[0]) <= 1e-12
    # the direct transport witnesses all three jet coefficients
    assert witnessed(cycle, FLAGSHIP, jet)


def test_reversal_negates_leading(factory):
    w = commutator(D2, Z_ELT)
    f = jet_along(factory.cycle_of_word(w), FLAGSHIP)
    inverse = factory.cycle_of_word(w.inverse())
    g = jet_along(inverse, FLAGSHIP)
    assert abs(g[1] + f[1]) / abs(f[1]) < 5e-3
    assert witnessed(inverse, FLAGSHIP, g)


def rebased(factory):
    """The cycle of [d2, z] conjugated by an oval arc: based at y = 0.2."""
    cycle = factory.cycle_of_word(commutator(D2, Z_ELT))
    conn = oval_connector(T0, 0.2)
    return Cycle(conn.segments + cycle.segments + conn.reverse().segments, T0,
                 conn.base_point, label="rebased")


def test_base_point_robustness(factory):
    # conjugation by an oval arc (base point moved along the oval) leaves
    # the leading coefficient of a commutator word unchanged
    c2_base = jet_along(factory.cycle_of_word(commutator(D2, Z_ELT)), FLAGSHIP)[1]
    c2_moved = jet_along(rebased(factory), FLAGSHIP)[1]
    assert abs(c2_moved - c2_base) / abs(c2_base) < 5e-3


def test_v3_sign_calibrated_value(factory, v3_jet):
    sym = mv(3, FLAGSHIP).evaluate(T0)  # t0^2
    expected = resolved_sign(3) * TWO_PI_I ** 3 * sym
    assert abs(v3_jet[2] - expected) / abs(expected) < 5e-3
    assert witnessed(factory.cycle_of_word(v_k(3)), FLAGSHIP, v3_jet)


def test_center_exactness(factory):
    d0 = center_family("t", 1, 1, 0)
    cyc = factory.cycle_of_word(GAMMA)
    returns = holonomy_along(cyc, d0, np.array([0.01, 0.02, 0.05]))
    assert np.all(np.abs(returns - T0) <= 1e-10)


def center_record(gamma, *params):
    rec = reporting.Recorder()
    c3 = reporting.center_check(rec, gamma, *params)
    (record,) = rec.records
    return record, c3


def test_center_crosscheck(gamma):
    record, c3 = center_record(gamma, "t", 0, 1, 1)
    assert record.passed, record
    assert record.id == "num.center.order3" and record.computed == f"{c3:.6f}"


def test_center_witness_scalings(factory):
    cycle = factory.cycle_of_word(GAMMA)
    families = {(lambda1, lam): center_family("t", 0, lambda1, lam)
                for lambda1, lam in ((1, 1), (1, 2), (2, 2))}
    jets = {key: jet_along(cycle, d) for key, d in families.items()}
    c11 = jets[1, 1][2]
    assert abs(jets[1, 2][2] / c11 - 2) < 2e-2   # linear in lam alone
    assert abs(jets[2, 2][2] / c11 - 4) < 4e-2   # quadratic on the diagonal
    for key, d in families.items():
        assert witnessed(cycle, d, jets[key])


def test_m2_assembly(gamma):
    cs = cauchy_suite(gamma)
    i13 = cs["phi1_dphi3"]
    assert abs(m2_assembly(FLAGSHIP, gamma, i13)) <= 1e-7
    # the two vanishing integrals reported beside the assembly
    for name in ("phi1_dphi3", "log_t_over_y2m1_dphi2"):
        assert abs(cs[name]) <= CAUCHY_TOL, name
    # the symmetric case is trivially zero (all Wronskian coefficients vanish)
    assert abs(m2_assembly(deformation(1, 0, 1), gamma, i13)) <= 1e-7
    with pytest.raises(ValueError):
        m2_assembly(deformation("t^2", "t^2+2t", "t"), gamma, i13)


def test_center_crosscheck_lambda_zero(gamma):
    record, _ = center_record(gamma, "t", 1, 1, 0)
    # the prediction is 0, so the record compares |c3| with 1e-9; both vanish
    assert record.tolerance == 1e-9 and record.passed


def test_center_fit_all_zero(gamma):
    jet = jet_along(gamma, center_family("t", 1, 1, 0))
    assert all(abs(c) <= 1e-12 for c in jet)


# ---------------------------------------------------------------------------
# eps-jets against closed forms


def test_v3_jet_matches_closed_form(v3_jet):
    expected = resolved_sign(3) * TWO_PI_I ** 3 * mv(3, FLAGSHIP).evaluate(T0)
    assert close_to(v3_jet[2], expected, 1e-8)


def test_commutator_jet_matches_wronskian(factory):
    c2 = jet_along(factory.cycle_of_word(commutator(D2, Z_ELT)), FLAGSHIP)[1]
    assert close_to(c2, resolved_sign(2) * TWO_PI_I ** 2 * T0 ** 2, 1e-8)


@pytest.mark.parametrize("A, lambda1, lam", [("t", 1, 1), ("t^2+t", 1, 2)])
def test_center_jet_matches_prediction(gamma, A, lambda1, lam):
    # A = t^2 + t makes a2 = 1/(2t + 1) a proper rational function
    c3 = jet_along(gamma, center_family(A, 0, lambda1, lam))[2]
    assert close_to(c3, resolved_sign(3) * m3_center_prediction(gamma, A, lam, lambda1), 1e-8)


def test_flagship_jet_starts_at_order_3(gamma):
    c1, c2, c3 = jet_along(gamma, FLAGSHIP)
    assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12
    assert abs(c3) > 0.1


def test_a_coefficient_with_a_pole_at_the_level_fails_before_any_sweep(factory, monkeypatch):
    # 25 t - 9 vanishes at t = 0.36
    d = deformation("1/(25t-9)", 0, 1)
    cycle = factory.cycle_of_word(GAMMA)
    swept = []
    monkeypatch.setattr(integrals_module, "_settle", lambda *args: swept.append(args))
    for run in (lambda: jet_along(cycle, d), lambda: transport(cycle, d, 0.01)):
        with pytest.raises(ValueError, match=r"a1 = 1/\(25\*t - 9\) is not finite at the level "
                                             r"t = 0\.36"):
            run()
    assert swept == []


def test_remainder_orders_refuse_a_remainder_at_roundoff(factory):
    # at the symmetric center the return map is the identity and R is about
    # 1e-19; over the empty cycle it is 0
    cycle = factory.cycle_of_word(GAMMA)
    d = deformation(1, 0, 1)
    with pytest.raises(ValueError, match="below the floor 1e-14"):
        remainder_orders(cycle, d, jet_along(cycle, d))
    with pytest.raises(ValueError, match="below the floor"):
        remainder_orders(factory.cycle_of_word(Word()), FLAGSHIP, (0j, 0j, 0j))


def test_jet_cycle_shapes(factory):
    assert jet_along(factory.cycle_of_word(Word()), FLAGSHIP) == (0j, 0j, 0j)
    oval = factory.cycle_of_word(GAMMA)  # charts y, x, x, y, y, x, x, y
    with pytest.raises(ValueError, match="chart"):
        jet_along(Cycle(oval.segments[:-1], T0, oval.base_point), FLAGSHIP)


def test_unsettled_jet_names_the_segment(factory, monkeypatch):
    # with one count per segment the oval's jet still settles (no tail fails)
    # and the v_3 jet does not
    monkeypatch.setattr(integrals_module, "SEGMENT_MAX_ROUNDS", 1)
    jet_along(factory.cycle_of_word(GAMMA), FLAGSHIP)
    with pytest.raises(QuadratureError, match=r"Melnikov jet: Chebyshev tail \S+ on "
                                              r"Segment\(uid=\d+R?, chart=[xy]\) at (6|12) panels"):
        jet_along(factory.cycle_of_word(v_k(3)), FLAGSHIP)


def block_jet_calls(monkeypatch, cycle):
    """(block, rounds, tails) of every _block_jet call of the cycle's jet."""
    calls = []
    block_jet = holonomy_module._block_jet

    def recorded(block, rounds, *args):
        out = block_jet(block, rounds, *args)
        calls.append((block, list(rounds), out[1]))
        return out

    monkeypatch.setattr(holonomy_module, "_block_jet", recorded)
    jet_along(cycle, FLAGSHIP)
    return calls


@pytest.mark.parametrize("word, sweeps, most_rounds, refined, panels", [
    (GAMMA, 5, 0, 0, 48), (v_k(2), 28, 1, 14, 576), (v_k(3), 39, 1, 24, 912),
], ids=["gamma", "v2", "v3"])
def test_jets_refine_only_the_segments_whose_tails_fail(factory, monkeypatch, word, sweeps,
                                                         most_rounds, refined, panels):
    # doubling every panel until two whole-cycle jets agreed swept v_3 at
    # two counts (672 + 1344 = 2016 panels) and v_2 at three (2772); the
    # tails alone, every block from the base counts, swept 1128 panels in
    # 50 block sweeps for v_3 and 660 in 34 for v_2.  A segment met again
    # in the same direction now starts at the rounds it settled at; 24 of
    # v_3's 96 segments and 14 of v_2's 58 settle at one doubling, and the
    # oval's 8 segments at none
    cycle = factory.cycle_of_word(word)
    calls = block_jet_calls(monkeypatch, cycle)
    last, settled = {}, {}
    for block, rounds, tails in calls:
        before = last.get(id(block))
        if before is None:
            # a pair starts at the rounds of its last sweep, a new one at the base count
            assert rounds == [settled.get((seg.uid, seg.reversed), 0) for seg in block]
        else:
            # each rerun doubles exactly the segments that failed the last one
            assert rounds == [r + (t > JET_TOL) for r, t in zip(*before)]
        last[id(block)] = rounds, tails
        settled.update(((seg.uid, seg.reversed), r) for seg, r in zip(block, rounds))
    assert len(last) == len(integrals_module._blocks(cycle))
    assert len(calls) == sweeps
    assert all(np.all(tails <= JET_TOL) for _, tails in last.values())
    assert max(max(rounds) for rounds, _ in last.values()) == most_rounds
    assert sum(r > 0 for rounds, _ in last.values() for r in rounds) == refined
    assert sum(_segment_panels(seg, r) for block, rounds, _ in calls
               for seg, r in zip(block, rounds)) == panels


def test_dropping_the_chart_switch_offset_turns_checks_red(monkeypatch):
    # the jet's dependent coordinate still restarts on the base curve at a
    # switch, but the new independent path is no longer shifted by the offset
    block_jet = holonomy_module._block_jet
    monkeypatch.setattr(holonomy_module, "_block_jet", lambda block, rounds, taylor, offset, dep0:
                        block_jet(block, rounds, taylor, np.zeros_like(offset), dep0))
    records = {r.id: r for r in numeric_suite(Config())}
    assert not records["num.v3_crosscheck"].passed
    assert not records["num.flagship.c2"].passed
    assert not records["num.flagship.c3"].passed


@pytest.mark.parametrize("wrong, red", [
    (lambda c1, c2, c3: (c1, c2, 1.005 * c3), {"num.flagship.c3"}),
    (lambda c1, c2, c3: (c1, 1e-3, c3), {"num.flagship.c2", "num.flagship.c3"}),
], ids=["c3_off_by_half_a_percent", "c2_nonzero"])
def test_a_wrong_flagship_jet_turns_the_witness_red(monkeypatch, wrong, red):
    # the suite's flagship jet is the only one mutated; every other record stays green
    jet_along_ = reporting.jet_along

    def mutated(cycle, d):
        jet = jet_along_(cycle, d)
        return wrong(*jet) if d is FLAGSHIP and cycle.label == "gamma" else jet

    monkeypatch.setattr(reporting, "jet_along", mutated)
    records = numeric_suite(Config())
    assert {r.id for r in records if not r.passed} == red


# ---------------------------------------------------------------------------
# jets over blocks of same-chart segments


def word_cycle(w):
    return lambda factory: factory.cycle_of_word(w)


BLOCK_ORACLE_CASES = {
    "gamma": (word_cycle(GAMMA), FLAGSHIP),
    "v2": (word_cycle(v_k(2)), FLAGSHIP),
    "v3": (word_cycle(v_k(3)), FLAGSHIP),
    "d2_z": (word_cycle(commutator(D2, Z_ELT)), FLAGSHIP),
    "d2_z_inverse": (word_cycle(commutator(D2, Z_ELT).inverse()), FLAGSHIP),
    "rebased": (rebased, FLAGSHIP),
    "center_on_gamma": (word_cycle(GAMMA), center_family("t", 0, 1, 1)),
    # A = t^2 + t makes a2 = 1/(2t + 1) a proper rational function
    "rational_center_on_gamma": (word_cycle(GAMMA), center_family("t^2+t", 0, 1, 2)),
}


@pytest.mark.parametrize("case", BLOCK_ORACLE_CASES)
def test_blocked_jet_matches_the_jet_one_segment_at_a_time(factory, monkeypatch, uniform, case):
    # the jet uniform at rounds 0 and 1 over blocks of several segments,
    # and the settled jet, whose reruns mix base and doubled segments in one
    # block
    cycle_of, d = BLOCK_ORACLE_CASES[case]
    cycle = cycle_of(factory)

    def jets():
        out = []
        for r in (0, 1, None):
            uniform(r)
            out.append(jet_along(cycle, d))
        return out

    blocked = jets()
    # a cap of 0 panels makes every segment a block of its own
    monkeypatch.setattr(integrals_module, "_BLOCK_PANELS", 0)
    assert all(len(block) == 1 for block in integrals_module._blocks(cycle))
    for b, a in zip(blocked, jets()):
        assert np.all(np.abs(np.subtract(b, a)) <= 1e-12 * np.maximum(1.0, np.abs(a))), (case, b, a)


# The reference block jet: the full eps-series arithmetic, which forms every
# coefficient of every leaf quantity again at each order.  An eps-series is
# an array whose axis 0 is the power of eps; the other axes are the panel
# nodes.


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


def _leaf_series(chart, w, dw, dep, dense):
    """eps-series of (d(dep)/ds, omega(tangent)) on the leaf through (w, dep)
    while the independent coordinate moves at dw (all three are series)."""
    x, y = (w, dep) if chart == "x" else (dep, w)
    xx, yy = _plus(_mul(x, x), -1.0), _plus(_mul(y, y), -1.0)
    f, fx, fy = _mul(xx, yy), 2.0 * _mul(x, yy), 2.0 * _mul(y, xx)
    a1, a2, a3 = dense
    p = _mul(_rat_at(a1, f), _recip(_plus(x, 1.0))) + _mul(_rat_at(a3, f), _recip(_plus(x, -1.0)))
    q = _mul(_rat_at(a2, f), _recip(_plus(y, -1.0)))
    f_ind, f_dep, p_ind, p_dep = (fx, fy, p, q) if chart == "x" else (fy, fx, q, p)
    slope = -_mul(f_ind + _eps_times(p_ind), _recip(f_dep + _eps_times(p_dep)))
    return _mul(slope, dw), _mul(p_ind + _mul(p_dep, slope), dw)


def reference_block_jet(block, rounds, dense, offset, dep0):
    """_block_jet's result from the full series of every order."""
    terms = len(offset)
    npans = [_segment_panels(seg, r) for seg, r in zip(block, rounds)]
    h = np.repeat(1.0 / np.array(npans), npans)
    w, dw, u = np.zeros((3, terms, h.size, _NODES.size), complex)
    w[0], dw[0], u[0] = map(np.concatenate,
                            zip(*(_node_geometry(seg, n) for seg, n in zip(block, npans))))
    w[1:, :npans[0]] = offset[1:, None, None] * (1.0 - _panel_nodes(npans[0]))
    dw[1:, :npans[0]] = -offset[1:, None, None]
    f_dep = 2.0 * u[0] * (w[0] * w[0] - 1.0)
    chart = block[0].chart
    tail = np.zeros(h.size)
    for j in range(1, terms):
        g = f_dep * _leaf_series(chart, w[:j + 1], dw[:j + 1], u[:j + 1], dense)[0][j]
        u[j] = (f_dep[0, 0] * dep0[j] + _cumulative(g, h)) / f_dep
        tail = np.maximum(tail, _tail(g))
    form = _leaf_series(chart, w, dw, u, dense)[1]
    tail = np.maximum(tail, _tail(form))
    end = u[:, -1, -1].copy()
    end[0] = 0.0
    starts = np.cumsum([0] + npans[:-1])
    return (end, _cumulative(form, h)[:, -1, -1]), np.maximum.reduceat(tail, starts)


def compared_block_jets(monkeypatch, uniform, cycle, d, rounds, terms=None):
    """Run the jet at each of these uniform rounds with every _block_jet
    call checked against reference_block_jet on the same inputs; returns
    the number of blocks and of blocks entered at a chart switch.  The jet
    is jet_along's, or with `terms` the one of that many eps-orders."""
    dense = [a.dense() for a in d.coefficients()]
    block_jet = holonomy_module._block_jet
    counts = [0, 0]

    def checked(block, r, taylor, offset, dep0):
        out = block_jet(block, r, taylor, offset, dep0)
        (end, total), tails = out
        (ref_end, ref_total), ref_tails = reference_block_jet(block, r, dense, offset, dep0)
        for got, want in ((end, ref_end), (total, ref_total)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (got, want)
        # a tail is already relative to its panel's largest value
        assert np.all(np.abs(tails - ref_tails) <= 1e-12), (tails, ref_tails)
        counts[0] += 1
        counts[1] += bool(offset.any())
        return out

    monkeypatch.setattr(holonomy_module, "_block_jet", checked)
    for r in rounds:
        uniform(r)
        if terms is None:
            jet_along(cycle, d)
        else:
            holonomy_module._cycle_jet(cycle, holonomy_module._level_taylor(d, cycle.t, terms))
    return counts


@pytest.mark.parametrize("case", BLOCK_ORACLE_CASES)
def test_block_jet_matches_the_full_series_arithmetic(factory, monkeypatch, uniform, case):
    # each block's end jet, int omega jet and tails, at rounds 0 and 1
    cycle_of, d = BLOCK_ORACLE_CASES[case]
    cycle = cycle_of(factory)
    blocks, shifted = compared_block_jets(monkeypatch, uniform, cycle, d, (0, 1))
    assert blocks == 2 * len(integrals_module._blocks(cycle))
    assert shifted > 0


@pytest.mark.parametrize("terms", [4, 5])
@pytest.mark.parametrize("case", ["rebased", "rational_center_on_gamma"])
def test_block_jet_is_generic_in_the_jet_order(factory, monkeypatch, uniform, terms, case):
    # past order 2 the compositions a_i(F) take (F - t)^2 and higher powers;
    # the order comes from the Taylor rows alone
    cycle_of, d = BLOCK_ORACLE_CASES[case]
    compared_block_jets(monkeypatch, uniform, cycle_of(factory), d, (0,), terms)


def test_dropping_the_linear_dep_terms_turns_checks_red(monkeypatch):
    # u_j enters order j only linearly, through the eps^0 derivatives of
    # dep^2 - 1, of the slope and of its denominator: without those terms
    # every jet past order 1 is wrong
    monkeypatch.setattr(holonomy_module, "_dep_derivatives", lambda *args: (0.0, 0.0, 0.0))
    records = numeric_suite(Config())
    assert {r.id for r in records if not r.passed} == {
        "num.flagship.c2", "num.flagship.c3", "num.v3_crosscheck", "num.center.order3",
        "num.center.quadratic_scaling", "num.center.witness_scaling"}


def test_v3_blocks_respect_the_cap_and_the_charts(factory):
    cycle = factory.cycle_of_word(v_k(3))
    blocks = integrals_module._blocks(cycle)
    # every segment exactly once, in order (segments compare by identity)
    assert [seg for block in blocks for seg in block] == cycle.segments
    for block in blocks:
        assert len({seg.chart for seg in block}) == 1
        panels = sum(_segment_panels(seg, 0) for seg in block)
        assert panels <= integrals_module._BLOCK_PANELS or len(block) == 1
    assert len(blocks) == 34  # 96 segments in 9 chart runs


# ---------------------------------------------------------------------------
# the tail rule against uniform sweeps two counts finer

JET_ORACLE_CASES = {
    "gamma": (GAMMA, FLAGSHIP),
    "v2": (v_k(2), FLAGSHIP),
    "v3": (v_k(3), FLAGSHIP),
    "center_on_gamma": (GAMMA, center_family("t", 0, 1, 1)),
}


@pytest.mark.parametrize("case", JET_ORACLE_CASES)
def test_settled_jet_matches_a_uniform_sweep_two_counts_finer(factory, uniform, case):
    word, d = JET_ORACLE_CASES[case]
    cycle = factory.cycle_of_word(word)
    settled = np.array(jet_along(cycle, d))
    uniform(2)
    finer = np.array(jet_along(cycle, d))
    assert np.max(np.abs(settled - finer)) <= JET_TOL * max(1.0, np.max(np.abs(finer))), case


@pytest.mark.parametrize("word, sweeps, panels, rounds",
                         [(GAMMA, 5, 48, 2), (v_k(3), 42, 1236, 3)], ids=["gamma", "v3"])
def test_settled_transport_matches_a_uniform_sweep_two_counts_finer(factory, monkeypatch, uniform,
                                                                     word, sweeps, panels, rounds):
    # the witness's leaves; no segment of the oval refines, while at
    # SEGMENT_ATOL 24 of v_3's 96 segments double and 14 of them double
    # again (at JET_TOL none would go past one doubling), so v_3 is checked
    # one count past its finest segments.  A block whose segment fails is
    # swept again whole, and a segment met again in the same direction
    # starts at the rounds it settled at: v_3's 34 blocks take 42 sweeps of
    # 1236 panels, where one segment at a time takes 107 sweeps of 1140
    cycle = factory.cycle_of_word(word)
    eps = WITNESS_EPS * np.array([1.0, 0.5, -1.0, -0.5])
    swept = []
    block_panels = holonomy_module._block_panels

    def counted(block, rounds):
        out = block_panels(block, rounds)
        swept.append(sum(out[0]))
        return out

    monkeypatch.setattr(holonomy_module, "_block_panels", counted)
    settled = transport(cycle, FLAGSHIP, eps)
    assert (len(swept), sum(swept)) == (sweeps, panels)
    uniform(rounds)
    for a, u in zip(settled, transport(cycle, FLAGSHIP, eps)):
        assert np.max(np.abs(a - u)) <= SEGMENT_ATOL


# ---------------------------------------------------------------------------
# The reference transport: one segment at a time, each from the endpoint
# and level of the one before


def reference_segment_leaves(seg, field, x, y, npan, j):
    """Every leaf through (x, y) over one segment on npan panels, from the
    running int omega j: the dependent coordinate at s = 1, the converged j
    and the worst tail of the two integrands."""
    w0, u0 = (x, y) if seg.chart == "x" else (y, x)
    h = 1.0 / npan
    s = _panel_nodes(npan)
    base_w, base_dw, base_u = _node_geometry(seg, npan)
    delta = (w0 - seg.independent(0.0))[:, None, None]
    w = base_w + delta * (1.0 - s)
    dw = base_dw - delta
    a = w * w - 1.0
    level = curve_f(w0, u0)[:, None, None]
    u = np.broadcast_to(base_u, w.shape)
    for _ in range(FIX_MAX_ITERATIONS):
        u = nearest_root(a, level - field.eps * j, u)
        slope, form = field.slope_and_form(*((w, u) if seg.chart == "x" else (u, w)), seg.chart)
        g = form * dw
        j, prev = _cumulative(g, h), j
        if np.all(np.abs(j - prev).max(axis=(1, 2)) <= FIX_RTOL * np.abs(j).max()):
            slope = slope * dw
            tail = np.maximum(_tail(g), _tail(slope)).max()
            return u0 + _cumulative(slope, h)[:, -1, -1], j, tail
    raise TransportError(f"level fixed point on {seg!r} did not settle")


def reference_transport(cycle, d, eps):
    """transport's endpoints and int omega, each segment settled on its own,
    a segment met again in the same direction starting at its settled rounds."""
    n = eps.size
    field = holonomy_module.LeafField(d, eps[:, None, None])
    start = cycle.segments[0].start_point()
    x, y = np.full(n, start.x, complex), np.full(n, start.y, complex)
    jtot = np.zeros(n, complex)
    settled = {}
    for seg in cycle.segments:
        def sweep(rounds):
            npan = _segment_panels(seg, rounds[0])
            j = np.zeros((n, npan, _NODES.size), complex)
            end, j, tail = reference_segment_leaves(seg, field, x, y, npan, j)
            return (end, j[:, -1, -1]), [tail]

        dep1, dj = integrals_module._settle([seg], sweep, "leaf transport", SEGMENT_ATOL, settled)
        jtot += dj
        w1 = np.full(n, seg.independent(1.0), complex)
        x, y = (w1, dep1) if seg.chart == "x" else (dep1, w1)
    return x, y, jtot


TRANSPORT_ORACLE_CASES = {
    "gamma_witness": (lambda f: f.cycle_of_word(GAMMA), FLAGSHIP,
                      WITNESS_EPS * np.array([1.0, 0.5, -1.0, -0.5])),
    "gamma_center": (lambda f: f.cycle_of_word(GAMMA), center_family("t", 1, 1, 0),
                     np.array([0.01, 0.02, 0.05])),
    "delta1_witness": (lambda f: f.based_loop(1), FLAGSHIP,
                       WITNESS_EPS * np.array([1.0, 0.5, -1.0, -0.5])),
    "delta1_center": (lambda f: f.based_loop(1), center_family("t", 1, 1, 0),
                      np.array([0.01, 0.02, 0.05])),
}


@pytest.mark.parametrize("case", TRANSPORT_ORACLE_CASES)
def test_block_transport_matches_the_transport_one_segment_at_a_time(factory, settled_rounds,
                                                                      case):
    # the based loop's first x-line doubles once and its way back twice
    cycle_of, d, eps = TRANSPORT_ORACLE_CASES[case]
    cycle = cycle_of(factory)
    got, rounds = settled_rounds(lambda: transport(cycle, d, eps))
    want, ref_rounds = settled_rounds(lambda: reference_transport(cycle, d, eps))
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12, (case, a, b)
    assert rounds == ref_rounds and len(rounds) == len(cycle.segments)
    assert max(rounds) == (2 if "delta1" in case else 0)


def test_dropping_the_offset_ramp_of_a_transport_block_turns_checks_red(monkeypatch, tmp_path):
    # after a chart switch the leaf's independent coordinate then starts on
    # the base path, off the leaf: the endpoint integrated from the slope
    # no longer lies on the level that int omega gives, and the
    # displacement check stops the numeric suite at the flagship witness
    # (the jets lose the ramp too, but no jet raises)
    monkeypatch.setattr(holonomy_module, "_offset_ramp", lambda npans: (0.0, False))
    _, records, _ = run_suite("all", Config(), str(tmp_path / "report.json"))
    red = [r for r in records if not r.passed]
    assert [r.id for r in red] == ["numeric.error"]
    assert "TransportError: displacement mismatch at eps = 0.002" in red[0].computed
    assert not any(r.id.startswith("num.") for r in records)
    assert len(records) == 131 - 20 + 1
