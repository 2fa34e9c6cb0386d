"""Exact univariate rational functions in t over the rationals.

Thin wrapper over one element of sympy's ZZ(t) field
(`sympy.polys.fields`), which is the field of rational functions with
rational coefficients: a fraction constant such as 1/2 is a numerator 1 over
a denominator 2.  Field elements stay in canonical form: numerator and
denominator are coprime integer polynomials with Python int coefficients and
the denominator has a positive leading coefficient, so equality is
structural and every operation stays exact.  Over ZZ no operation has to
clear coefficient denominators first, as QQ(t) does on every cancel.
Antiderivatives come from Hermite reduction on polynomials of `QQ[t]`
(`rational_antiderivative`).  Used for the Melnikov coefficients a_i(t),
the beta periods and the Wronskian hierarchy.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)
from sympy.polys.fields import FracElement, field
from sympy.polys.rings import PolyElement, ring

T = sp.Symbol("t")
K, _T = field("t", sp.ZZ)
_QQT, _Q = ring("t", sp.QQ)  # where Hermite reduction divides

_TRANSFORMS = standard_transformations + (
    convert_xor,
    implicit_multiplication_application,
)


def _to_field(value) -> FracElement:
    if isinstance(value, RatFunc):
        return value.value
    if isinstance(value, FracElement) and value.field == K:
        return value
    if isinstance(value, int):
        return K(value)
    if isinstance(value, Fraction):
        return K(sp.QQ(value.numerator, value.denominator))
    if isinstance(value, str):
        return parse_rational(value).value
    if isinstance(value, sp.Expr):
        if value.has(sp.Float):  # K.from_expr would read 0.5 as 1/2
            raise ValueError(f"not a rational function of t: {value!r}")
        try:
            f = K.from_expr(value)
        except ValueError:
            raise ValueError(f"not a rational function of t: {value!r}") from None
        # from_expr leaves 1/(1-t) with the denominator -t + 1
        return K.new(f.numer, f.denom)
    raise TypeError(f"cannot interpret {value!r} as a rational function")


class RatFunc:
    """Rational function in t with exact rational coefficients."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = _to_field(value)

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc(_T)

    def __add__(self, other):
        return RatFunc(self.value + _to_field(other))

    __radd__ = __add__

    def __sub__(self, other):
        return RatFunc(self.value - _to_field(other))

    def __rsub__(self, other):
        return RatFunc(_to_field(other) - self.value)

    def __mul__(self, other):
        return RatFunc(self.value * _to_field(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RatFunc(self.value / _to_field(other))

    def __rtruediv__(self, other):
        return RatFunc(_to_field(other) / self.value)

    def __neg__(self):
        return RatFunc(-self.value)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0:  # K's own negative powers can leave a negative denominator
            return RatFunc(K.one / self.value ** -n)
        return RatFunc(self.value ** n)

    def __eq__(self, other) -> bool:
        try:
            o = _to_field(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.value == o

    def __hash__(self):
        # a constant equals the int or Fraction of its value: hash like it
        if self.is_constant():
            return hash(Fraction(int(self.value.numer.LC), int(self.value.denom.LC)))
        return hash(self.value)

    def diff(self) -> "RatFunc":
        return RatFunc(self.value.diff(_T))

    def is_zero(self) -> bool:
        return self.value.numer.is_zero

    def is_constant(self) -> bool:
        return self.value.numer.is_ground and self.value.denom.is_ground

    def evaluate(self, t0):
        """Numeric evaluation (works for complex t0)."""
        return self.callable()(t0)

    def dense(self):
        """Complex coefficients of numerator and denominator, highest first."""
        return tuple([complex(c) for c in p.to_dense()]
                     for p in (self.value.numer, self.value.denom))

    def callable(self):
        """Fast complex-scalar evaluator (Horner on both polynomials)."""
        num, den = self.dense()

        def f(tval):
            pn = 0j
            for c in num:
                pn = pn * tval + c
            pd = 0j
            for c in den:
                pd = pd * tval + c
            return pn / pd

        return f

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        return str(self.value.as_expr())


def parse_rational(text: str) -> RatFunc:
    """Parse expressions like 't^2+2t' or '(t^2+1)/(t-2)'."""
    try:
        expr = parse_expr(text, local_dict={"t": T}, transformations=_TRANSFORMS)
    except Exception as exc:  # sympy raises various subclasses
        raise ValueError(f"cannot parse rational function {text!r}: {exc}") from exc
    return RatFunc(expr)


class NonRationalAntiderivative(ValueError):
    """The antiderivative has logarithmic (or worse) parts."""


def _from_qqt(num: PolyElement, den: PolyElement) -> FracElement:
    """num / den, two polynomials of QQ[t], as a canonical element of K."""
    cn, num = num.clear_denoms()
    cd, den = den.clear_denoms()
    return K.new(num.set_ring(K.ring) * cd, den.set_ring(K.ring) * cn)


def rational_antiderivative(f: RatFunc) -> RatFunc:
    """Antiderivative with zero constant term at t = 0 when that value is
    finite, otherwise the bare antiderivative; fails if any residue of f is
    nonzero (which would force logarithms).

    After polynomial division, Mack's linear Hermite reduction (Bronstein,
    Symbolic Integration I, sec. 2.2) writes the proper part A/D as g' + h
    with g proper and h = A*/D* proper over the squarefree part D* of D.
    Every pole of a nonzero such h has a nonzero residue, so the
    antiderivative is rational iff A* = 0.  Each step peels one power off
    the repeated factors D- = gcd(D, D'): it solves
    B (-D* D-'/D-) + C D-* = A with deg B < deg D-* (D-* the squarefree part
    of D-, coprime to the first factor), adds B/D- to g and continues with
    A = C - B' D*/D-*.
    """
    num, den = (p.set_ring(_QQT) for p in (f.value.numer, f.value.denom))
    quotient, a = num.quo(den), num.rem(den)
    F = _from_qqt(_QQT.from_dict({(k + 1,): c / (k + 1) for (k,), c in quotient.items()}),
                  _QQT.one)
    d_minus = den.gcd(den.diff(_Q))
    d_star = den.quo(d_minus)
    while d_minus.degree() > 0:
        d_minus2 = d_minus.gcd(d_minus.diff(_Q))
        d_minus_star = d_minus.quo(d_minus2)
        u = -(d_star * d_minus.diff(_Q)).quo(d_minus)
        s, _ = u.half_gcdex(d_minus_star)  # s u = 1 mod D-*: the gcd is 1
        b = (s * a).rem(d_minus_star)
        c = (a - b * u).quo(d_minus_star)
        a = c - b.diff(_Q) * d_star.quo(d_minus_star)
        F += _from_qqt(b, d_minus)
        d_minus = d_minus2
    if a:
        raise NonRationalAntiderivative(
            f"antiderivative of {f} is not a rational function"
        )
    at0 = F.denom(0)
    if at0:
        F -= sp.QQ(F.numer(0), at0)  # QQ: two ints under / would give a float
    return RatFunc(F)


def wronskian(f: RatFunc, g: RatFunc) -> RatFunc:
    """W(f, g) = f g' - f' g."""
    return f * g.diff() - f.diff() * g


def linearly_independent(f: RatFunc, g: RatFunc) -> bool:
    """Linear independence over the constants (Wronskian criterion)."""
    if f.is_zero() or g.is_zero():
        return False
    return not wronskian(f, g).is_zero()
