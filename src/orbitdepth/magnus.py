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
series:

    y = x (1 + X_g):       y_d = x_d + x_{d-1} X_g
    y (1 + X_g) = x:       y_d = x_d - y_{d-1} X_g    (the letter g^-1)
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
        """Multiply on the right by the image of g^e (e = +-1).

        y = x (1 + X_g) gives y_d = x_d + x_{d-1} X_g, and y = x (1 + X_g)^-1,
        that is y (1 + X_g) = x, gives y_d = x_d - y_{d-1} X_g.
        """
        x, letter = self.parts, g + 1
        out = [dict(x[0])]
        for d in range(1, len(x)):
            part = dict(x[d])
            for m, c in (x if e == 1 else out)[d - 1].items():
                _acc(part, m * _BASE + letter, e * c)
            out.append(part)
        return TruncatedSeries(out)

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
        out = out.mul_letter(g, e)
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
# p_1, p_2, ... (in the free Lie algebra on the five generators) is spanned
# by [X_a, I_{d-1}] for a = 0..4 together with the p_i of degree d, so the
# ideal is built one degree at a time as an integer echelon basis: each new
# bracket is reduced fraction-free against the basis before it is kept.
# Leading terms of elements of K = [orbit, group] all lie in that ideal for
# p in {X_g, lead(v_1), ...}, so "leading terms agree modulo the ideal" is an
# exact necessary condition for equality modulo K.


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


def lie_ideal_span(seeds: list, degree: int) -> list:
    """Basis of the degree-`degree` part of the Lie ideal generated by `seeds`.

    `seeds` are homogeneous Lie elements.  I_d is the echelon basis of the
    brackets [X_a, b], b in I_{d-1}, plus the seeds of degree d.
    """
    basis: Dict[int, Dict[int, int]] = {}
    for d in range(1, degree + 1):
        rows = [bracket(generator_vector(g), b) for b in basis.values() for g in range(NGENS)]
        basis = _echelon(rows + [s for s in seeds if s and mono_degree(min(s)) == d])
    return list(basis.values())


def in_span(vectors: list, target: Dict[int, int]) -> bool:
    """Exact integer membership of target in the span of sparse vectors."""
    return not _reduce(_echelon(vectors), target)


def orbit_leading_ideal_span(degree: int) -> list:
    """Basis of the leading terms available from the orbit generators at `degree`.

    Seeds are X_g and the leading Lie terms of v_1 .. v_{degree-1}; a K
    element whose Magnus expansion starts at `degree` has its leading term in
    this span.
    """
    seeds = [generator_vector(Gen.G)]
    for j in range(1, degree):
        seeds.append(depth_lower_bound(v_k(j), j).leading_part)
    return lie_ideal_span(seeds, degree)


def leading_terms_agree_mod_orbit_ideal(u: Word, v: Word, degree: int) -> bool:
    """Exact check that magnus(u) - magnus(v) below `degree`+1 is explained
    by the orbit ideal: the two words must both have depth >= `degree` and
    their degree-`degree` difference must lie in the ideal span."""
    su = magnus(u, degree).drop_constant()
    sv = magnus(v, degree).drop_constant()
    diff = su - sv
    low = diff.lowest_degree()
    if low is None:
        return True
    if low < degree:
        return False
    target = diff.homogeneous_part(degree)
    return in_span(orbit_leading_ideal_span(degree), target)
