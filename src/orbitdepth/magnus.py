"""Truncated Magnus expansion and lower-central-series depth certificates.

A word maps into the ring of noncommutative integer polynomials in the five
indeterminates X_g, X_d0..X_d3 via g -> 1 + X_g, g^-1 -> 1 - X_g + X_g^2 - ...
truncated at degree N.  The lowest nonzero degree of magnus(w) - 1 equals the
lower-central-series level of w: depth j means w lies in L_j but not L_{j+1}
(classical Magnus theorem), so degree detection is an exact membership
certificate as long as j <= N.

Monomials are packed into integers base (rank+1), and a series is stored
by degree: parts[d] is the int -> int dictionary of its degree-d terms, so
series arithmetic never recomputes a degree from a monomial.  Multiplying
on the right by a letter is a recurrence over the parts, with no geometric
series, and `magnus` applies it in place to one series, letter by letter:

    y = x (1 + X_g):       y_d = x_d + x_{d-1} X_g    (degrees N down to 1)
    y (1 + X_g) = x:       y_d = x_d - y_{d-1} X_g    (the letter g^-1; 1 up to N)

Running the letter g from the top degree down means each parts[d] still
adds the old parts[d-1]; running g^-1 from degree 1 up means each parts[d]
subtracts the new one.  No degree is copied.

The orbit ideal check decides membership in the Lie ideal generated by X_g,
D and the leading terms of v_2, v_3, ... in the free Lie algebra on the
three letters d0, d1, d2, through the quotient map that kills X_g and D
(35 rows at degree 5, where the five-letter ideal has 611); the comment
above `bracket` states the lemma.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional

from .words import GEN_NAMES, Gen, Word, v_k

NGENS = 5
_BASE = NGENS + 1

MONO_ONE = 0


def mono_append(mono: int, g: int) -> int:
    return mono * _BASE + (g + 1)


def mono_degree(mono: int) -> int:
    d = 0
    while mono:
        mono //= _BASE
        d += 1
    return d


def mono_letters(mono: int) -> tuple:
    out = []
    while mono:
        out.append(mono % _BASE - 1)
        mono //= _BASE
    return tuple(reversed(out))


def mono_format(mono: int) -> str:
    return "*".join(f"X[{GEN_NAMES[Gen(g)]}]" for g in mono_letters(mono)) or "1"


def _acc(out: Dict[int, int], m: int, c: int) -> None:
    """out[m] += c, dropping the entry when it cancels to zero."""
    v = out.get(m, 0) + c
    if v:
        out[m] = v
    else:
        out.pop(m, None)


class TruncatedSeries:
    """Sparse noncommutative polynomial truncated at total degree N.

    parts[d] maps each packed monomial of degree d to its nonzero
    coefficient, so N = len(parts) - 1.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: List[Dict[int, int]]):
        self.parts = parts

    @property
    def degree(self) -> int:
        return len(self.parts) - 1

    @staticmethod
    def one(degree: int) -> "TruncatedSeries":
        return TruncatedSeries([{MONO_ONE: 1}] + [{} for _ in range(degree)])

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.parts == other.parts

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = []
        for p, q in zip(self.parts, other.parts):
            p = dict(p)
            for m, c in q.items():
                _acc(p, m, -c)
            out.append(p)
        return TruncatedSeries(out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = min(self.degree, other.degree)
        out: List[Dict[int, int]] = [{} for _ in range(N + 1)]
        for d1, p in enumerate(self.parts[:N + 1]):
            for d2, q in enumerate(other.parts[:N + 1 - d1]):
                shift, part = _BASE ** d2, out[d1 + d2]
                for m1, c1 in p.items():
                    base = m1 * shift
                    for m2, c2 in q.items():
                        _acc(part, base + m2, c1 * c2)
        return TruncatedSeries(out)

    def mul_letter(self, g: int, e: int) -> "TruncatedSeries":
        """Multiply on the right by the image of g^e (e = +-1), in place.

        Mutates and returns self.  For g, y_d = x_d + x_{d-1} X_g runs from
        the top degree down, so each step still reads the old x_{d-1}; for
        g^-1, y_d = x_d - y_{d-1} X_g runs from degree 1 up, so each step
        reads the new y_{d-1}.
        """
        parts, letter = self.parts, g + 1
        for d in range(len(parts) - 1, 0, -1) if e == 1 else range(1, len(parts)):
            part = parts[d]
            get = part.get
            for m, c in parts[d - 1].items():
                m = m * _BASE + letter
                c = get(m, 0) + e * c
                if c:
                    part[m] = c
                else:
                    del part[m]
        return self

    def homogeneous_part(self, d: int) -> Dict[int, int]:
        return dict(self.parts[d])

    def lowest_degree(self) -> Optional[int]:
        """Lowest degree with a nonzero coefficient; None if zero."""
        return next((d for d, p in enumerate(self.parts) if p), None)

    def drop_constant(self) -> "TruncatedSeries":
        return TruncatedSeries([{}] + self.parts[1:])

    def __repr__(self):
        n = sum(map(len, self.parts))
        return f"TruncatedSeries(degree={self.degree}, terms={n})"


def magnus(w: Word, degree: int) -> TruncatedSeries:
    """Magnus image of w truncated at total degree `degree`."""
    if degree < 1:
        raise ValueError("truncation degree must be >= 1")
    out = TruncatedSeries.one(degree)
    for g, e in w.letters:
        out.mul_letter(g, e)
    return out


@dataclass
class DepthReport:
    """Lowest nonzero Magnus degree of a word at a given truncation."""

    word: Word
    truncation: int
    depth: Optional[int]  # None means no nonzero term up to the truncation
    is_identity: bool
    leading_part: Dict[int, int]

    def describe(self) -> str:
        if self.is_identity:
            return "identity (depth infinite)"
        if self.depth is None:
            return f"depth >= {self.truncation + 1}"
        return f"depth {self.depth}"


def depth_lower_bound(w: Word, degree: int) -> DepthReport:
    """Depth certificate: w in L_j, not in L_{j+1}, when j <= degree."""
    if w.is_identity():
        return DepthReport(w, degree, None, True, {})
    series = magnus(w, degree).drop_constant()
    j = series.lowest_degree()
    if j is None:
        return DepthReport(w, degree, None, False, {})
    return DepthReport(w, degree, j, False, series.homogeneous_part(j))


def graded_triviality_check(w: Word, endo, degree: int) -> bool:
    """Whether endo fixes the lower-central class of w (no g letters allowed).

    True iff endo(w) w^-1 sits strictly deeper than w, i.e. the induced map
    on L_j cap <d0..d3> / L_{j+1} cap <d0..d3> fixes the class of w.
    """
    if Gen.G in w.generators_used():
        raise ValueError("graded check is defined on the subgroup without g")
    if w.is_identity():
        return True
    rw = depth_lower_bound(w, degree)
    if rw.depth is None:
        raise ValueError(f"truncation {degree} too small to see the depth of w")
    moved = endo(w) * w.inverse()
    rm = depth_lower_bound(moved, degree)
    if rm.is_identity:
        return True
    return rm.depth is None or rm.depth > rw.depth


# ---------------------------------------------------------------------------
# Leading Lie terms and the graded ideal spanned by the orbit generators.
#
# The degree-d part I_d of the Lie ideal generated by homogeneous elements
# p_1, p_2, ... (in the free Lie algebra on letters a) is spanned by
# [X_a, I_{d-1}] together with the p_i of degree d, so the ideal is built one
# degree at a time as an integer echelon basis: each new bracket is reduced
# fraction-free against the basis before it is kept.  Leading terms of
# elements of K = [orbit, group] all lie in the ideal I of the free Lie
# algebra L on the five letters generated by X_g, D = lead(v_1) =
# X_d0 + X_d1 + X_d2 + X_d3 and lead(v_2), lead(v_3), ..., so "leading terms
# agree modulo the ideal" is an exact necessary condition for equality
# modulo K.
#
# I is decided in the free Lie algebra on d0, d1, d2 instead.  For a
# subspace W of degree-1 elements of L(V), the ideal generated by W is the
# kernel of L(V) -> L(V/W) (Reutenauer, *Free Lie Algebras*;
# Magnus-Karrass-Solitar, ch. 5).  With W = <X_g, D> and V/W identified with
# <X_d0, X_d1, X_d2>, that map is the Lie map
#
#     pi:  X_g -> 0,   X_d3 -> -(X_d0 + X_d1 + X_d2),   X_di -> X_di (i < 3),
#
# so ker pi lies in I, and pi(I) is the ideal J of L(d0, d1, d2) generated
# by pi(lead v_j), j >= 2, because pi is onto.  Hence I = pi^-1(J): if x in
# L has pi(x) in J = pi(I), pick y in I with pi(y) = pi(x); then x - y lies
# in ker pi, inside I.  pi is graded, so x in I_d iff pi(x) in J_d for a
# degree-d Lie element x.  The target of the check is one: when
# magnus(u) - magnus(v) starts at degree d, its degree-d part is the leading
# term of u v^-1, which lies in L_d of the lower central series.  (pi is
# also an algebra map on all tensors, but a tensor outside L can reach J
# without lying in I.)


def bracket(p: Dict[int, int], q: Dict[int, int]) -> Dict[int, int]:
    """Lie bracket [p, q] = pq - qp of homogeneous tensor components."""
    out: Dict[int, int] = {}
    sp = _BASE ** mono_degree(next(iter(p), MONO_ONE))
    sq = _BASE ** mono_degree(next(iter(q), MONO_ONE))
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _acc(out, m1 * sq + m2, c1 * c2)
            _acc(out, m2 * sp + m1, -c1 * c2)
    return out


def generator_vector(g: int) -> Dict[int, int]:
    return {mono_append(MONO_ONE, g): 1}


# pi on the packed letters (generator + 1); unlisted letters are fixed
_PI_LETTER = {Gen.G + 1: (), Gen.D3 + 1: tuple((g + 1, -1) for g in (Gen.D0, Gen.D1, Gen.D2))}
QUOTIENT_GENS = (Gen.D0, Gen.D1, Gen.D2)


def project(p: Dict[int, int]) -> Dict[int, int]:
    """pi(p) for a homogeneous tensor p: X_g -> 0, X_d3 -> -(X_d0+X_d1+X_d2).

    The letters are substituted one position at a time over the whole
    dictionary, so equal partial images merge before the next position.
    """
    for j in range(mono_degree(next(iter(p), MONO_ONE))):
        shift, out = _BASE ** j, {}
        for m, c in p.items():
            letter = m // shift % _BASE
            for image, sign in _PI_LETTER.get(letter, ((letter, 1),)):
                _acc(out, m + (image - letter) * shift, sign * c)
        p = out
    return p


def _reduce(basis: Dict[int, Dict[int, int]], row: Dict[int, int]) -> Dict[int, int]:
    """Primitive remainder of `row` against an echelon `basis`; {} if in its span.

    `basis` maps each pivot (the least monomial of a row) to its row.  Each
    step clears the pivot p of the row with row := a*row - b*lead, where
    a/b = lead[p]/row[p] in lowest terms, so every coefficient stays an
    integer.
    """
    row = dict(row)
    while row:
        p = min(row)
        lead = basis.get(p)
        if lead is None:
            g = gcd(*row.values())
            return {m: c // g for m, c in row.items()}
        g = gcd(lead[p], row[p])
        a, b = lead[p] // g, row[p] // g
        if a != 1:
            for m in row:
                row[m] *= a
        for m, c in lead.items():
            _acc(row, m, -b * c)
    return {}


def _echelon(rows) -> Dict[int, Dict[int, int]]:
    """Integer echelon basis of the span of `rows`, keyed by pivot."""
    basis: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = _reduce(basis, row)
        if r:
            basis[min(r)] = r
    return basis


def lie_ideal_span(seeds: list, degree: int, gens=range(NGENS)) -> Dict[int, Dict[int, int]]:
    """Echelon basis of the degree-`degree` part of the Lie ideal of `seeds`.

    `seeds` are homogeneous Lie elements in the letters `gens`.  I_d is the
    echelon basis of the brackets [X_a, b], a in `gens`, b in I_{d-1}, plus
    the seeds of degree d.  The basis maps each pivot to its row.
    """
    basis: Dict[int, Dict[int, int]] = {}
    for d in range(1, degree + 1):
        rows = [bracket(generator_vector(g), b) for b in basis.values() for g in gens]
        basis = _echelon(rows + [s for s in seeds if s and mono_degree(min(s)) == d])
    return basis


def in_span(basis: Dict[int, Dict[int, int]], target: Dict[int, int]) -> bool:
    """Exact integer membership of target in the span of an echelon basis."""
    return not _reduce(basis, target)


def orbit_leading_ideal_span(degree: int) -> Dict[int, Dict[int, int]]:
    """Echelon basis of J_degree, the orbit ideal's image under pi.

    J is generated in the free Lie algebra on d0, d1, d2 by pi(lead v_j),
    j = 2 .. degree-1 (pi kills the other two seeds, X_g and lead(v_1) = D).
    A K element whose Magnus expansion starts at `degree` has its leading
    term x in I_degree, that is pi(x) in this span.
    """
    seeds = [project(depth_lower_bound(v_k(j), j).leading_part) for j in range(2, degree)]
    return lie_ideal_span(seeds, degree, QUOTIENT_GENS)


def leading_terms_agree_mod_orbit_ideal(u: Word, v: Word, degree: int) -> bool:
    """Exact check that magnus(u) - magnus(v) below `degree`+1 is explained
    by the orbit ideal: the two expansions must agree below `degree` and
    their degree-`degree` difference must lie in I_degree, decided as
    pi(difference) in J_degree."""
    su = magnus(u, degree).drop_constant()
    sv = magnus(v, degree).drop_constant()
    diff = su - sv
    low = diff.lowest_degree()
    if low is None:
        return True
    if low < degree:
        return False
    target = project(diff.homogeneous_part(degree))
    return in_span(orbit_leading_ideal_span(degree), target)
