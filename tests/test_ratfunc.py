"""RatFunc against sympy, which the package does not use: sympy is only the
test oracle here.  Seeded random small-coefficient rational functions check
the arithmetic against sympy's ZZ(t) field (whose elements `sympy.cancel`
reduces with the same polynomial gcd, without the cost of Expr trees), the
canonical form, and the printed form through `sympy.sympify`; fixed strings
check the parser."""

import random
from math import gcd

import numpy as np
import pytest
import sympy as sp
from sympy.polys.fields import field

from orbitdepth.ratfunc import RatFunc, parse_rational, wronskian

SEED = 20259
SAMPLES = 200
t = sp.Symbol("t")
K, KT = field("t", sp.ZZ)
T = RatFunc.t()


def random_function(rng):
    """The same random rational function as a RatFunc and as an element of K."""
    def poly():
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        return (sum((c * T ** k for k, c in enumerate(coeffs)), RatFunc(0)),
                sum((c * KT ** k for k, c in enumerate(coeffs)), K(0)))
    (num, num_k), (den, den_k) = poly(), poly()
    while den.is_zero():
        den, den_k = poly()
    scale = rng.choice((1, 1, 2, -3))
    return num / (den * scale), num_k / (den_k * scale)


def oracle_pair(value):
    """A K element or a sympy Expr, cancelled by sympy and put in RatFunc's
    canonical form: coefficients constant term first, content 1, positive
    leading denominator coefficient."""
    if isinstance(value, sp.Expr):
        value = K.from_expr(sp.cancel(value))
    num, den = ([int(c) for c in reversed(p.to_dense())] for p in (value.numer, value.denom))
    g = gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    return tuple(c // g for c in num), tuple(c // g for c in den)


def assert_canonical(f):
    num, den = f.num, f.den
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0 and (not num or num[-1])
    assert gcd(*num, *den) == 1
    if num:
        g = sp.gcd(sp.Poly(list(reversed(num)), t), sp.Poly(list(reversed(den)), t))
        assert g.degree() == 0
    else:
        assert den == (1,)


def samples():
    rng = random.Random(SEED)
    return [(random_function(rng), random_function(rng)) for _ in range(SAMPLES)]


def test_arithmetic_matches_sympy():
    for (f, fe), (g, ge) in samples():
        results = [(f + g, fe + ge), (f - g, fe - ge), (f * g, fe * ge),
                   (f.diff(), fe.diff(KT)),
                   (wronskian(f, g), fe * ge.diff(KT) - fe.diff(KT) * ge)]
        if not g.is_zero():
            results.append((f / g, fe / ge))
        for value, expr in results:
            assert (value.num, value.den) == oracle_pair(expr), (value, expr)
            assert_canonical(value)


def as_expr(f):
    """f as a sympy Expr, built from its coefficients."""
    num, den = (sum((c * t ** k for k, c in enumerate(p)), sp.Integer(0))
                for p in (f.num, f.den))
    return num / den


def test_printed_form_reads_back():
    for (f, fe), (g, _) in samples():
        assert sp.cancel(sp.sympify(str(f)) - fe.as_expr()) == 0
        for h in (f, f * g, f - g):
            text = str(h)
            assert sp.cancel(sp.sympify(text) - as_expr(h)) == 0, text
            assert parse_rational(text) == h, text


ACCEPTED = {
    "t^2+2t": t ** 2 + 2 * t,
    "t**2 + 2*t": t ** 2 + 2 * t,
    "2t": 2 * t,
    "2(t+1)": 2 * t + 2,
    "(t+1)(t-1)": t ** 2 - 1,
    "(t^2+1)/(t-2)": (t ** 2 + 1) / (t - 2),
    "3*t**2/2 - 1/2": sp.Rational(3, 2) * t ** 2 - sp.Rational(1, 2),
    "-t^-2": -1 / t ** 2,
    "t^(-1) + 3": 1 / t + 3,
    "+t - -1": t + 1,
    " ( 1 - t^2 ) / ( 3 - 6t ) ": (1 - t ** 2) / (3 - 6 * t),
    "2t^2/3 - (t+1)**2": sp.Rational(2, 3) * t ** 2 - (t + 1) ** 2,
    "(t^2-1)/(t-1)": t + 1,
    "0": sp.Integer(0),
}

REJECTED = ("x+t", "0.5*t", "sqrt(2)*t", "sin(t)", "", "t^t", "t^(1/2)", "t^2.5",
            "1/0", "1/(t-t)", "0^-1", "(t+1", "t+", "t**", "t!", "2 ** t", "t^^2",
            "t^1000000000", "(t+1)^-5000", "9^999999999", "((t^100)^100)^100",
            pytest.param("(" * 1000 + "t" + ")" * 1000, id="deep parentheses"),
            pytest.param("-" * 5000 + "t", id="deep signs"))


@pytest.mark.parametrize("text", ACCEPTED)
def test_parser_accepts(text):
    f = parse_rational(text)
    assert (f.num, f.den) == oracle_pair(ACCEPTED[text])
    assert RatFunc(text) == f


def test_parser_high_powers():
    f = parse_rational("t^-99999 + 1")
    assert f.num == (1,) + (0,) * 99998 + (1,) and f.den == (0,) * 99999 + (1,)
    assert parse_rational("(t+1)^7") == (T + 1) ** 3 * (T + 1) ** 4


@pytest.mark.parametrize("text", REJECTED)
def test_parser_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def plain_horner(f, tval):
    """The evaluator as Horner from 0 on both polynomials, one division."""
    num, den = f.dense()
    pn = pd = 0j
    for c in num:
        pn = pn * tval + c
    for c in den:
        pd = pd * tval + c
    return pn / pd


def test_callable_matches_plain_horner_bit_for_bit():
    # starting from the leading coefficient and skipping a denominator of 1
    # change no value, on scalars and on the arrays of the leaf transport
    rng = random.Random(SEED)
    points = np.array([0.36, -0.7 + 0.2j, 1.5 - 2.0j, 0.0])
    fixed = [RatFunc(0), RatFunc(3), RatFunc("t^2+2t"), RatFunc("t/2"), RatFunc("1/(2t+1)")]
    for f in fixed + [random_function(rng)[0] for _ in range(SAMPLES)]:
        evaluate = f.callable()
        for tval in (0.25, -1.5 + 0.5j):
            try:
                want = plain_horner(f, tval)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    evaluate(tval)
                continue
            assert evaluate(tval) == want, (f, tval)
        with np.errstate(all="ignore"):
            assert np.array_equal(np.broadcast_to(evaluate(points), points.shape),
                                  plain_horner(f, points), equal_nan=True), f
