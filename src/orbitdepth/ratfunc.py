"""Exact univariate rational functions in t over the rationals.

Thin wrapper over one element of sympy's QQ(t) field
(`sympy.polys.fields`).  Field elements stay in canonical form: numerator
and denominator are coprime integer polynomials and the denominator has a
positive leading coefficient, so equality is structural and every operation
stays exact.  Used for the Melnikov coefficients a_i(t), the beta periods
and the Wronskian hierarchy.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp
from sympy.integrals.rationaltools import ratint_ratpart
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)
from sympy.polys.fields import FracElement, field

T = sp.Symbol("t")
K, _T = field("t", sp.QQ)

_TRANSFORMS = standard_transformations + (
    convert_xor,
    implicit_multiplication_application,
)


def _to_field(value) -> FracElement:
    if isinstance(value, RatFunc):
        return value.value
    if isinstance(value, FracElement) and value.field == K:
        return value
    if isinstance(value, (int, Fraction)):
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


def rational_antiderivative(f: RatFunc) -> RatFunc:
    """Antiderivative with zero constant term at t = 0 when that value is
    finite, otherwise the bare antiderivative; fails if any residue of f is
    nonzero (which would force logarithms).

    After polynomial division, Hermite (Horowitz-Ostrogradsky) reduction
    writes the proper part as A' + B with B of squarefree denominator; every
    pole of a nonzero such B has a nonzero residue (Bronstein, Symbolic
    Integration I, ch. 2), so the antiderivative is rational iff B = 0.
    """
    num, den = (sp.Poly(p.as_expr(), T, domain=sp.QQ)
                for p in (f.value.numer, f.value.denom))
    quotient, rest = num.div(den)
    rational, logarithmic = ratint_ratpart(rest, den, T)
    if logarithmic != 0:
        raise NonRationalAntiderivative(
            f"antiderivative of {f} is not a rational function"
        )
    F = RatFunc(quotient.integrate().as_expr() + rational).value
    at0 = F.denom(0)
    if at0:
        F -= F.numer(0) / at0
    return RatFunc(F)


def wronskian(f: RatFunc, g: RatFunc) -> RatFunc:
    """W(f, g) = f g' - f' g."""
    return f * g.diff() - f.diff() * g


def linearly_independent(f: RatFunc, g: RatFunc) -> bool:
    """Linear independence over the constants (Wronskian criterion)."""
    if f.is_zero() or g.is_zero():
        return False
    return not wronskian(f, g).is_zero()
