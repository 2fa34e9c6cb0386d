import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.integrals.rationaltools import ratint

import orbitdepth.melnikov as melnikov
from orbitdepth.ratfunc import (
    NonRationalAntiderivative,
    RatFunc,
    parse_rational,
    rational_antiderivative,
    wronskian,
)
from orbitdepth.melnikov import (
    FLAGSHIP,
    Deformation,
    DependentCoefficients,
    Kind,
    beta_periods,
    center_family,
    classify,
    deformation,
    hierarchy_collapse_check,
    m3_tilde_coefficient,
    make_length3,
    mv,
    mv_chain,
)

SEED = 20259
T = RatFunc.t()


def random_ratfunc(rng):
    num = sum(RatFunc(rng.randint(-3, 3)) * T ** k for k in range(rng.randint(1, 3)))
    den = RatFunc(1) + (T ** 2 if rng.random() < 0.3 else RatFunc(0))
    return num / den


def test_parse_and_arithmetic():
    f = parse_rational("t^2+2t")
    assert f == T * T + 2 * T
    g = parse_rational("(t^2+1)/(t-2)")
    assert g * (T - 2) == T * T + 1
    assert parse_rational("t/2 + 1/2").evaluate(3.0) == pytest.approx(2.0)
    # only QQ(t): no second variable, no floats, no irrationals
    for text in ("sin(t)", "x+t", "0.5*t", "sqrt(2)*t"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        f / RatFunc(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc(0) ** -1
    assert (1 - T) ** -1 == parse_rational("1/(1-t)") == -1 / (T - 1)


def test_wronskian_identities():
    assert wronskian(T, T * T) == T * T
    assert wronskian(T, T).is_zero()
    assert wronskian(RatFunc(1), T * T) == 2 * T
    rng = random.Random(SEED)
    for _ in range(20):
        f, g, h = (random_ratfunc(rng) for _ in range(3))
        assert wronskian(f, g) == -wronskian(g, f)
        assert wronskian(f, g + h) == wronskian(f, g) + wronskian(f, h)
        # product rule in the second slot carries the extra f' g h term
        assert wronskian(f, g * h) == g * wronskian(f, h) + h * wronskian(f, g) + f.diff() * g * h


def test_equal_implies_same_hash():
    rng = random.Random(SEED)
    pairs = [(RatFunc(1), 1), (RatFunc(Fraction(1, 2)), Fraction(1, 2)),
             (RatFunc(0), 0), (-T / (2 - 2 * T), T / (2 * T - 2)),
             (parse_rational("(t^2-1)/(t-1)"), T + 1)]
    for _ in range(20):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        pairs.append((f * g / g if not g.is_zero() else f, f))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


def test_rational_antiderivative():
    assert rational_antiderivative(T) == T * T / 2
    assert rational_antiderivative(RatFunc(1) / (T * T)) == -1 / T
    assert rational_antiderivative(2 * T / (T * T + 1) ** 2) == T * T / (T * T + 1)
    # the last one has a nonzero rational part next to its atan part
    for text in ("1/t", "1/(t^2+1)", "(t^3+1)/(t^2+1)^2"):
        with pytest.raises(NonRationalAntiderivative):
            rational_antiderivative(parse_rational(text))
    rng = random.Random(SEED)
    for _ in range(20):
        g = random_ratfunc(rng) / (T - rng.choice((1, 2, -3))) ** rng.randint(0, 2)
        F = rational_antiderivative(g.diff())  # g - g(0): g is finite at 0
        assert (F - g).is_constant() and F.evaluate(0) == 0
    # where F(0) is infinite, the polynomial part of F has no constant term:
    # a numerator N over D- = t^2 + t with no t^2 term would give g - 1
    g = T + 1 / (T * T + T)
    assert rational_antiderivative(g.diff()) == g
    for _ in range(20):
        g = rng.choice((1, -2, 3)) * T ** rng.randint(1, 2) + rng.randint(-3, 3)
        for root in rng.sample((0, 1, -2), 2):  # double poles of f = g' or worse
            g += rng.randint(1, 3) / (T - root) ** rng.randint(1, 3)
        f = g.diff()
        F = rational_antiderivative(f)
        assert F.diff() == f and (F - g).is_constant()
        if F.den[0]:  # F(0) is finite
            assert F.evaluate(0) == 0
        else:
            num, den = (sp.Poly(p[::-1], sp.Symbol("t")) for p in (F.num, F.den))
            assert sp.quo(num, den).eval(0) == 0


def test_beta_periods():
    assert beta_periods(FLAGSHIP) == (T, -T * T, T)
    assert beta_periods(deformation("1", "0", "1")) == (RatFunc(0), -RatFunc(1), RatFunc(0))
    a = T + 1
    assert beta_periods(deformation(a, a, a)) == (a, RatFunc(0), RatFunc(0))


def test_mv_flagship():
    assert mv(2, FLAGSHIP).is_zero()
    assert mv(3, FLAGSHIP) == T * T
    for i in (4, 5, 6):
        assert mv(i, FLAGSHIP).is_zero()
    with pytest.raises(ValueError):
        mv(1, FLAGSHIP)


def test_make_length3():
    d = make_length3("t", "t^2", 1, 1)
    assert d.coefficients() == (T * T + 2 * T, T, T * T + T)
    d = make_length3("t", "t^3", 0, 1)
    assert d.coefficients() == (T ** 3 / 2 + T, T, T ** 3 / 2)
    with pytest.raises(DependentCoefficients):
        make_length3("t", "t", 1, 1)
    with pytest.raises(NonRationalAntiderivative):
        make_length3("t^2", "t^3", 0, 1)
    with pytest.raises(ValueError):
        make_length3("t", "t^2", 0, 0)
    with pytest.raises(ValueError):
        make_length3("2", "t", 0, 1)
    # postconditions on a less obvious input
    d = make_length3("t^2+1", "t", 2, Fraction(3, 2))
    assert mv(2, d).is_zero() and not mv(3, d).is_zero()


def test_classify():
    assert classify(FLAGSHIP).kind is Kind.LENGTH3
    assert classify(deformation(1, 0, 1)).kind is Kind.SYMMETRIC_CENTER
    assert classify(deformation("t", "t", "t")).kind is Kind.SYMMETRIC_CENTER
    cls = classify(deformation("t", "1", "t-1"))
    assert cls.kind is Kind.INTEGRABLE_CANDIDATE
    assert cls.lambda1 == RatFunc(1) and cls.lambda2 == RatFunc(1)
    assert classify(deformation("t^2", "t^2+2t", "t")).kind is Kind.ORDER2_NONZERO
    # invariance under global scaling
    for c in (Fraction(3), Fraction(-1, 7)):
        for d, kind in [(FLAGSHIP, Kind.LENGTH3),
                        (deformation("t", "1", "t-1"), Kind.INTEGRABLE_CANDIDATE)]:
            scaled = Deformation(*(a * c for a in d.coefficients()))
            assert classify(scaled).kind is kind


def test_center_family():
    d = center_family("t", 1, 1, 0)
    assert d.coefficients() == (RatFunc(1), RatFunc(1), RatFunc(0))
    d = center_family("t", 0, 1, 1)
    assert d.coefficients() == (T, RatFunc(1), T - 1)
    with pytest.raises(ValueError):
        center_family("3", 1, 1, 0)
    for (A, c1, l1, lam) in [("t", 1, 2, 3), ("t^2+t", 0, Fraction(1, 2), 2)]:
        d = center_family(A, c1, l1, lam)
        cls = classify(d)
        assert cls.kind is Kind.INTEGRABLE_CANDIDATE
        assert cls.lambda1 == RatFunc(Fraction(l1))
        assert cls.lambda2 == RatFunc(Fraction(lam) * Fraction(l1))
        a1, a2, a3 = d.coefficients()
        assert a1 - a3 == a2 * cls.lambda1
        assert wronskian(a1, a3) == a2 * cls.lambda2


def test_m3_tilde_coefficient():
    assert m3_tilde_coefficient("t", 1) == -1 / T
    assert m3_tilde_coefficient("t", 0).is_zero()
    # -lam*lambda1/(t A'); with both witnesses 2 the quoted -lam^2 form is
    # recovered on the diagonal
    assert m3_tilde_coefficient("t^2/2", 2) == -2 / (T * T)
    assert m3_tilde_coefficient("t^2/2", 2, 2) == -4 / (T * T)
    with pytest.raises(ValueError):
        m3_tilde_coefficient("5", 1)


def test_hierarchy_collapse():
    assert hierarchy_collapse_check(deformation("t", "1", "t-1"))
    assert hierarchy_collapse_check(deformation(1, 0, 1))
    assert hierarchy_collapse_check(center_family("t^2+t", 0, 2, 3))
    # a nonzero mv(3) or mv(2) is a red verdict, not an error
    assert hierarchy_collapse_check(FLAGSHIP) is False
    assert hierarchy_collapse_check(make_length3("t^2+1", "t", 2, 1)) is False
    assert hierarchy_collapse_check(deformation("t^2", "t^2+2t", "t")) is False


def test_hierarchy_collapse_mutant_chain(monkeypatch):
    cf = center_family("t^2+t", 0, 2, 3)
    # a chain that reports mv(3) = t turns a collapsing deformation red
    monkeypatch.setattr(melnikov, "mv_chain", lambda n, d: [RatFunc(0), T])
    assert hierarchy_collapse_check(cf) is False
    monkeypatch.undo()
    assert hierarchy_collapse_check(cf)
    # and so does a family member with a3 moved off the family
    assert hierarchy_collapse_check(Deformation(cf.a1, cf.a2, cf.a3 + 1)) is False


def test_kind_holds_the_four_branches():
    # the collapse lemma leaves no fifth kind: an mv(2) = mv(3) = 0
    # deformation that is not symmetric has constant witnesses
    assert [k.value for k in Kind] == [
        "LENGTH3", "SYMMETRIC_CENTER", "INTEGRABLE_CANDIDATE", "ORDER2_NONZERO"]


def test_integrability_candidate_without_a_rational_hamiltonian():
    # a2 = t is 1/A' for A = log t, so center_family cannot build this candidate
    d = deformation("t", "t", "0")
    cls = classify(d)
    assert cls.kind is Kind.INTEGRABLE_CANDIDATE
    assert cls.lambda1 == RatFunc(1) and cls.lambda2 == RatFunc(0)
    assert hierarchy_collapse_check(d)
    with pytest.raises(NonRationalAntiderivative):
        rational_antiderivative(1 / d.a2)


# ---------------------------------------------------------------------------
# Antiderivatives on fixed inputs: polynomial parts next to linear and
# irreducible-quadratic factors of multiplicity up to 4 in f = g'.  The
# names keep the Hermite reduction these inputs were first written for.

HERMITE_PRIMITIVES = (
    "t^3 + 1/(t-1)",
    "(t^2+3)/(t+2)^3",
    "t/(t^2+1)^3",
    "(2t-1)/((t-1)^2 (t^2+t+1)^2) + t^2/2",
    "1/((t+1)^3 (t^2+2)) - 3t",
    "(t^4-t)/((t-3)^3 (t^2+1)^3) + 5t^2 - 1/2",
)


def _coefficients(f):
    """The nonzero coefficients of numerator and denominator, highest first."""
    return [c for p in (f.num, f.den) for c in reversed(p) if c]


@pytest.mark.parametrize("text", HERMITE_PRIMITIVES)
def test_hermite_reduction_inverts_diff(text):
    g = parse_rational(text)
    f = g.diff()
    F = rational_antiderivative(f)
    assert F.diff() == f
    assert (F - g).is_constant()
    # sympy's own rational integration, used here only as a reference
    assert (F - RatFunc(str(ratint(sp.sympify(str(f)), sp.Symbol("t"))))).is_constant()
    assert all(type(c) is int for c in _coefficients(F))


@pytest.mark.parametrize("text", HERMITE_PRIMITIVES)
@pytest.mark.parametrize("residual", ["1/(t-2)", "-3/(2t)", "1/(t^2+1)", "(t-1)/(2t^2+2)"])
def test_hermite_reduction_rejects_a_residue(text, residual):
    with pytest.raises(NonRationalAntiderivative):
        rational_antiderivative(parse_rational(text).diff() + parse_rational(residual))


def test_hermite_reduction_is_exact():
    F = rational_antiderivative(1 / (T + 2) ** 2)
    assert F == T / (2 * T + 4)
    assert F.num[0] == 0 and type(F.num[0]) is int
    assert _coefficients(F) == [1, 2, 4]
    assert all(type(c) is int for c in _coefficients(F))
    # F(0) = -3^-40 has no exact float, and none that sympy rounds back
    big = 3 ** 40
    F = rational_antiderivative(1 / (T + big) ** 2)
    assert F == T / (big * T + big * big) and F.num[0] == 0


# ---------------------------------------------------------------------------
# The Wronskian chain against the nested definition.


def nested_mv(i, d, swap=False):
    """mv(i) by the nested definition; swap exchanges beta2 and beta3."""
    b1, b2, b3 = beta_periods(d)
    if swap:
        b2, b3 = b3, b2
    inner = b3
    for _ in range(i - 2):
        inner = wronskian(b2, inner)
    return wronskian(b1, inner)


RAW = deformation("t^2", "t^2+2t", "t")
CHAIN_CASES = {
    "flagship": lambda: FLAGSHIP,
    "length3": lambda: make_length3("t^2+1", "t", 2, Fraction(3, 2)),
    "center": lambda: center_family("t^2+t", 1, Fraction(1, 2), 2),
    "raw": lambda: RAW,
}


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_mv_chain_matches_nested_definition(case):
    d = CHAIN_CASES[case]()
    chain = mv_chain(7, d)
    assert chain == [nested_mv(i, d) for i in range(2, 8)]
    assert [mv(i, d) for i in range(2, 8)] == chain


def test_mv_chain_comparison_can_fail():
    assert not mv(2, RAW).is_zero()
    assert mv_chain(7, RAW) != [nested_mv(i, RAW, swap=True) for i in range(2, 8)]


def test_mv_chain_work(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append(1)
        return wronskian(f, g)

    monkeypatch.setattr(melnikov, "wronskian", counted)
    for n in range(2, 8):
        calls.clear()
        mv_chain(n, FLAGSHIP)
        assert len(calls) == 2 * n - 3  # no inner Wronskian after the last mv
    calls.clear()
    d = center_family("t^2+t", 0, 2, 3)
    assert len(calls) == 3  # its postcondition: the chain to mv(3)
    calls.clear()
    assert hierarchy_collapse_check(d)
    assert len(calls) == 3  # the chain to mv(3), and nothing more
    calls.clear()
    assert classify(make_length3("t", "t^2", 1, 1)).kind is Kind.LENGTH3
    assert len(calls) == 3 + 3  # make_length3's chain to mv(3), then classify's
    with pytest.raises(ValueError):
        mv_chain(1, FLAGSHIP)


# ---------------------------------------------------------------------------
# Canonical form in ZZ(t).


def test_canonical_form():
    a, b = 1 / (1 - T), -1 / (T - 1)
    assert a == b and hash(a) == hash(b)
    half = RatFunc(3) / RatFunc(-6)
    assert half == Fraction(-1, 2) and hash(half) == hash(Fraction(-1, 2))
    assert _coefficients(half) == [-1, 2]
    rng = random.Random(SEED)
    samples = [a, half, T / (-2 * T - 3), RatFunc(Fraction(-4, 6)) * T, 1 / (2 - T) ** 3,
               parse_rational("(1-t^2)/(3-6t)")]
    for _ in range(20):
        f, g = random_ratfunc(rng), random_ratfunc(rng)
        samples += [f - g, f * g, wronskian(f, g)] + ([f / g] if not g.is_zero() else [])
    for f in samples:
        assert f.den[-1] > 0
        assert all(type(c) is int for c in _coefficients(f))
