"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail line and
runtime that every criterion prints.
"""

import random
import time

import numpy as np

from orbitdepth.words import (
    D0, D1, D2, D3, DELTA, G, X_ELT, Z_ELT,
    Gen, Word, format_rho_word, m_endo, mon0, mon1,
    parse_word, rewrite_to_rho_alphabet, v_k, var, var_iterate,
    variation_mod_k_identities,
)
from orbitdepth.magnus import (
    depth_lower_bound,
    leading_terms_agree_mod_orbit_ideal,
    magnus,
)
from orbitdepth.representation import (
    Representation,
    commutator_scalar,
    depth_certificate,
    verify_v_images,
)
from orbitdepth import Recorder
from orbitdepth.cli import main
from orbitdepth.ratfunc import (
    NonRationalAntiderivative,
    RatFunc,
    parse_rational,
    rational_antiderivative,
)
from orbitdepth.melnikov import FLAGSHIP, center_family, make_length3, mv, classify
from orbitdepth.curves import CycleFactory
from orbitdepth.integrals import (
    PAIRING_EXPECTED,
    cauchy_suite,
    eta,
    pairing_table,
    shuffle_defect,
    v2_double_integral,
)
from orbitdepth.holonomy import (
    WITNESS_ORDER_TOL,
    holonomy_along,
    jet_along,
    m2_assembly,
    m3_center_prediction,
    remainder_orders,
    resolved_sign,
)
from support import determinant_defect, random_word

SEED = 20259
T0 = 0.36
GAMMA = Word.gen(Gen.G)


def witnessed(cycle, d, jet):
    """Direct transport: the remainder past the jet is of order 4."""
    return all(abs(order - 4) <= WITNESS_ORDER_TOL for order in remainder_orders(cycle, d, jet))


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, name, ok):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{name}] {status} ({elapsed:.2f}s, budget {self.budget:g}s)")
        assert ok, name
        assert elapsed < self.budget, f"{name} exceeded its runtime budget"


def test_criterion_1_monodromy_identities():
    sw = Stopwatch(1.0)
    M0, M1 = mon0.images, mon1.images
    ok = (
        M1[Gen.G] == G
        and all(M1[g] == G * Word.gen(g) for g in list(Gen)[1:])
        and M0[Gen.G] == DELTA * G
        and M0[Gen.D0] == D0
        and M0[Gen.D1] == D0 * D1 * D0.inverse()
        and M0[Gen.D2] == (D0 * D1) * D2 * (D0 * D1).inverse()
        and M0[Gen.D3] == (D0 * D1 * D2) * D3 * (D0 * D1 * D2).inverse()
    )
    conj = D0 * D1
    rng = random.Random(SEED)
    ok = ok and all(
        m_endo(w) == conj.inverse() * mon0(w) * conj
        for w in (random_word(rng) for _ in range(100))
    )
    sw.done("criterion 1: monodromy identities", ok)


def test_criterion_1_long_words(capsys):
    sw = Stopwatch(0.5)
    ok = len(parse_word("d1^12000")) == 12000
    ok = ok and parse_word(" ".join(["d1 d2"] * 5000)) == (D1 * D2) ** 5000
    u = D1 * D2 * D1.inverse()
    ok = ok and parse_word("(d1 d2 d1')^5") == u * u * u * u * u == u ** 5
    # a power too long to expand is refused before it is expanded
    code = main(["orbit", "depth", "--word", "d1^1000000000"])
    ok = ok and code == 2 and capsys.readouterr().err.startswith("error: ")
    sw.done("criterion 1: long words and powers of high exponent", ok)


def test_criterion_2_variation_elements():
    sw = Stopwatch(30.0)
    # var^2(g) reduces, through the exact mod-K factorization, to v_2 whose
    # rho-alphabet form is [x, z]
    ok = all(ident.holds() for ident in variation_mod_k_identities(5))
    ok = ok and format_rho_word(rewrite_to_rho_alphabet(v_k(2))) == "x z x^-1 z^-1"
    # the variation step from v_2 agrees with v_3 through degree 3
    diff = (magnus(var(v_k(2)), 4) - magnus(v_k(3), 4)).lowest_degree()
    ok = ok and diff == 4
    # Magnus lowest degree of var^i(g) >= i and of v_i exactly i
    for i in range(2, 6):
        ok = ok and depth_lower_bound(v_k(i), i).depth == i
        rep = depth_lower_bound(var_iterate(i), i - 1)
        ok = ok and rep.depth is None  # nothing below degree i
    # leading Lie terms coincide modulo the orbit ideal (the exact necessary
    # condition for equality mod K)
    for i in range(2, 6):
        ok = ok and leading_terms_agree_mod_orbit_ideal(var_iterate(i), v_k(i), i)
    # headroom at the default truncation
    ok = ok and depth_lower_bound(v_k(6), 8).depth == 6
    sw.done("criterion 2: variation elements", ok)


def test_criterion_3_representation_certificates():
    sw = Stopwatch(120.0)
    ok = True
    rng = random.Random(SEED)
    for k in range(1, 6):
        rep = Representation(k)
        rec = Recorder()
        # exact identities rho_k(v_i) = I for i in 2..k+4 minus {k+2}
        verify_v_images(rec, k, rep)
        depth_certificate(rec, k, rep)
        ok = ok and all(r.passed for r in rec.records)
        # sampled oracle for the corner lemma: commutator_scalar raises unless
        # [rho(s), rho(v_{k+2})] is I + kappa (a^m c^-n - 1) E_1n
        for _ in range(10):
            commutator_scalar(k, random_word(rng, 16), rep)
    sw.done("criterion 3: representation certificates (exact, k = 1..5)", ok)


def test_criterion_4_wronskian_layer():
    sw = Stopwatch(1.0)
    t = RatFunc.t()
    d = make_length3("t", "t^2", 1, 1)
    ok = d.coefficients() == (t * t + 2 * t, t, t * t + t)
    ok = ok and mv(2, d).is_zero() and mv(3, d) == t * t
    ok = ok and all(mv(i, d).is_zero() for i in (4, 5, 6))
    # the constant-multiplier recursion for center families up to i = 6
    for params in [("t", 0, 1, 1), ("t^2+t", 0, 2, 3)]:
        cf = center_family(*params)
        cls = classify(cf)
        mult = cls.lambda2 / cls.lambda1
        for i in range(2, 6):
            ok = ok and mv(i + 1, cf) == mv(i, cf) * mult
        ok = ok and all(mv(i, cf).is_zero() for i in range(2, 7))
    sw.done("criterion 4: Wronskian layer", ok)


def test_criterion_4_antiderivatives_of_high_degree(capsys):
    sw = Stopwatch(2.0)
    t = RatFunc.t()
    ok = False
    try:
        rational_antiderivative(parse_rational("t^6000/(t+1)^2"))
    except NonRationalAntiderivative:
        ok = True
    ok = ok and rational_antiderivative(1 / (t + 1) ** 300) == (1 - (t + 1) ** -299) / 299
    code = main(["mel", "build", "--alpha1", "t+1", "--alpha2", "t^6002"])
    err = capsys.readouterr().err
    ok = ok and code == 2 and err.startswith("error: antiderivative ")
    ok = ok and err.rstrip().endswith("is not a rational function")
    sw.done("criterion 4: antiderivatives of high degree", ok)


def test_criterion_4_rational_function_of_high_degree_over_a_non_monic_denominator():
    sw = Stopwatch(0.3)
    ok = parse_rational("t^8000/(2t+1)^2") == RatFunc(((0,) * 8000 + (1,), (1, 4, 4)))
    sw.done("criterion 4: t^8000/(2t+1)^2 in lowest terms", ok)


def test_criterion_5_pairing_table():
    sw = Stopwatch(10.0)
    ok = True
    for t in (0.25, 0.36):
        tab = pairing_table(t)
        for key, v in tab.items():
            ok = ok and abs(v - PAIRING_EXPECTED[key]) <= 1e-9
    sw.done("criterion 5: pairing table at t = 0.25 and 0.36", ok)


def test_criterion_6_iterated_integrals():
    sw = Stopwatch(60.0)
    fac = CycleFactory(T0)
    val = v2_double_integral(fac)
    ok = abs(val - 4 * np.pi ** 2) / (4 * np.pi ** 2) <= 1e-6
    suite = cauchy_suite(fac.cycle_of_word(GAMMA))
    ok = ok and all(abs(v) <= 1e-8 for v in suite.values())
    ok = ok and shuffle_defect(fac.based_loop(2), eta(2), eta(3)) <= 1e-6
    ok = ok and determinant_defect(fac, X_ELT, Z_ELT, 2, 3) <= 1e-6
    ok = ok and determinant_defect(fac, D1, D2, 2, 3) <= 1e-6
    sw.done("criterion 6: iterated integrals (4 pi^2 and the vanishing suite)", ok)


def test_criterion_7_flagship_fit():
    sw = Stopwatch(60.0)
    cycle = CycleFactory(T0).cycle_of_word(GAMMA)
    jet = jet_along(cycle, FLAGSHIP)
    c1, c2, c3 = jet
    bound = 1e-7 * abs(c3) * 0.032
    ok = abs(c1) <= bound and abs(c2) <= bound
    # the terms c_j eps^j at eps = 0.032: orders 1 and 2 are below 1e-7 of
    # the largest (or 1e-9), order 3 is above
    terms = [abs(c) * 0.032 ** j for j, c in enumerate(jet, start=1)]
    floor = max(1e-7 * max(terms), 1e-9)
    ok = ok and terms[0] <= floor and terms[1] <= floor and terms[2] > floor
    ok = ok and witnessed(cycle, FLAGSHIP, jet)
    sw.done("criterion 7: flagship return-map jet, witnessed by transport "
            "(order 3 first nonzero)", ok)


def test_criterion_8_v3_holonomy_crosscheck():
    sw = Stopwatch(300.0)
    cycle = CycleFactory(T0).cycle_of_word(v_k(3))
    jet = jet_along(cycle, FLAGSHIP)
    symbolic = mv(3, FLAGSHIP).evaluate(T0)        # t0^2 = 0.1296
    expected = resolved_sign(3) * (2j * np.pi) ** 3 * symbolic
    ok = abs(jet[2] - expected) / abs(expected) <= 5e-3
    ok = ok and abs(abs(jet[2]) - 8 * np.pi ** 3 * T0 ** 2) / abs(expected) <= 5e-3
    ok = ok and witnessed(cycle, FLAGSHIP, jet)
    sw.done("criterion 8: order-3 coefficient over v3 = -(2 pi i)^3 t0^2 "
            f"(sign {resolved_sign(3)})", ok)


def test_criterion_9_center_checks():
    sw = Stopwatch(300.0)
    cyc = CycleFactory(T0).cycle_of_word(GAMMA)
    d0 = center_family("t", 1, 1, 0)
    ok = all(abs(holonomy_along(cyc, d0, e) - T0) <= 1e-10
             for e in (0.01, 0.02, 0.05))
    jets = {}
    for lambda1, lam in ((1, 1), (2, 2), (1, 2)):
        d = center_family("t", 0, lambda1, lam)
        jets[lambda1, lam] = jet = jet_along(cyc, d)
        ok = ok and witnessed(cyc, d, jet)
    # order-3 coefficient against the closed prediction (lambda = 1)
    c11 = jets[1, 1][2]
    pred = resolved_sign(3) * m3_center_prediction(cyc, "t", 1, 1)
    ok = ok and abs(c11 - pred) / abs(pred) <= 5e-3
    # quadratic scaling holds when both integrability witnesses double;
    # doubling lam alone doubles the coefficient (prefactor -lam*lambda1)
    ok = ok and abs(jets[2, 2][2] / c11 - 4) <= 4 * 1e-2
    ok = ok and abs(jets[1, 2][2] / c11 - 2) <= 2e-2
    sw.done("criterion 9: center checks (exactness, prediction, scaling)", ok)


def test_criterion_10_m2_assembly():
    sw = Stopwatch(60.0)
    gamma = CycleFactory(T0).cycle_of_word(GAMMA)
    suite = cauchy_suite(gamma)
    ok = abs(m2_assembly(FLAGSHIP, gamma, suite["phi1_dphi3"])) <= 1e-7
    # the two vanishing integrals reported beside the assembly
    ok = ok and all(abs(suite[k]) <= 1e-8 for k in ("phi1_dphi3", "log_t_over_y2m1_dphi2"))
    sw.done("criterion 10: numeric order-2 assembly vanishes", ok)
