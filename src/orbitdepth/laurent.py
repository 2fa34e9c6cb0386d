"""Exact bivariate Laurent polynomials in the representation parameters (a, c).

Coefficients are exact Python integers or fractions; monomials a^m c^n with
m, n of either sign are dict keys, so all ring identities are literal
dictionary equalities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

Monomial = Tuple[int, int]


class LaurentPoly2:
    """Sparse Laurent polynomial sum_{m,n} coeff * a^m c^n."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, object] | None = None):
        self.terms = {}
        if terms:
            for mn, c in terms.items():
                if c:
                    self.terms[mn] = c

    @staticmethod
    def const(c) -> "LaurentPoly2":
        return LaurentPoly2({(0, 0): c} if c else {})

    @staticmethod
    def monomial(m: int, n: int, c=1) -> "LaurentPoly2":
        return LaurentPoly2({(m, n): c} if c else {})

    @staticmethod
    def zero() -> "LaurentPoly2":
        return LaurentPoly2()

    @staticmethod
    def one() -> "LaurentPoly2":
        return LaurentPoly2({(0, 0): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly2.const(other)
        return isinstance(other, LaurentPoly2) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly2.const(other)
        out = dict(self.terms)
        for mn, c in other.terms.items():
            v = out.get(mn, 0) + c
            if v:
                out[mn] = v
            else:
                out.pop(mn, None)
        res = LaurentPoly2()
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly2":
        res = LaurentPoly2()
        res.terms = {mn: -c for mn, c in self.terms.items()}
        return res

    def __sub__(self, other) -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly2.const(other)
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly2()
            res = LaurentPoly2()
            res.terms = {mn: c * other for mn, c in self.terms.items()}
            return res
        out: Dict[Monomial, object] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                key = (m1 + m2, n1 + n2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        res = LaurentPoly2()
        res.terms = out
        return res

    __rmul__ = __mul__

    def unit_inverse(self) -> "LaurentPoly2":
        """Inverse of a unit of Z[a^+-1, c^+-1], i.e. of +-a^m c^n."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible as Laurent units")
        ((m, n), c), = self.terms.items()
        if c not in (1, -1):
            raise ValueError(f"coefficient {c} is not a unit of the integers")
        return LaurentPoly2.monomial(-m, -n, int(c))

    def evaluate(self, a, c):
        """Exact evaluation; a, c are Fractions (or floats/complex)."""
        total = 0
        for (m, n), coeff in self.terms.items():
            total += coeff * a ** m * c ** n
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, n), c in sorted(self.terms.items()):
            s = str(c)
            if m:
                s += f"*a^{m}" if m != 1 else "*a"
            if n:
                s += f"*c^{n}" if n != 1 else "*c"
            parts.append(s)
        return " + ".join(parts)


A_PARAM = LaurentPoly2.monomial(1, 0)
C_PARAM = LaurentPoly2.monomial(0, 1)
A_INV = LaurentPoly2.monomial(-1, 0)
C_INV = LaurentPoly2.monomial(0, -1)
