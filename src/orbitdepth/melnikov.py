"""Exact Wronskian calculus for Melnikov leading terms.

A deformation is the 1-form a1(F) dx/(x+1) + a2(F) dy/(y-1) + a3(F) dx/(x-1).
Its periods over the saddle classes give

    beta1 = a2,  beta2 = a2 - a3,  beta3 = a1 - a3

(each times 2 pi i, tracked separately as metadata), and the leading
Melnikov term over the orbit element v_i is the nested Wronskian

    mv(2) = W(beta1, beta3),
    mv(i) = W(beta1, W(beta2, ... W(beta2, beta3) ...))   (i-2 inner beta2).

The inner Wronskians of mv(i) are those of mv(i-1) plus one more, so
`mv_chain` walks them once and returns the whole list mv(2), ..., mv(n);
`classify`, `make_length3` and `hierarchy_collapse_check` each take their
terms from one such chain.  By the collapse lemma (proved at
`hierarchy_collapse_check`) mv(2) = mv(3) = 0 forces mv(i) = 0 at every
order, so the check is the chain to mv(3) and nothing more.
Everything here is exact rational-function arithmetic in `ratfunc`'s
ZZ(t), whose numerators and denominators are tuples of Python ints; the
numeric layer restores the (2 pi i)^i factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .ratfunc import (
    RatFunc,
    linearly_independent,
    rational_antiderivative,
    wronskian,
)

# (2 pi i)^i factors are omitted from every RatFunc here; the numeric layer
# multiplies them back in.


class DependentCoefficients(ValueError):
    """alpha2 is a constant multiple of alpha1."""


@dataclass(frozen=True)
class Deformation:
    """Coefficient triple of the 1-form, plus how it was constructed."""

    a1: RatFunc
    a2: RatFunc
    a3: RatFunc
    provenance: str = "raw"

    def coefficients(self) -> Tuple[RatFunc, RatFunc, RatFunc]:
        return self.a1, self.a2, self.a3


def deformation(a1, a2, a3, provenance: str = "raw") -> Deformation:
    return Deformation(RatFunc(a1), RatFunc(a2), RatFunc(a3), provenance)


FLAGSHIP = deformation("t^2+2t", "t", "t^2+t", provenance="pert3(t, t^2, 1, 1)")


def beta_periods(d: Deformation) -> Tuple[RatFunc, RatFunc, RatFunc]:
    """(beta1, beta2, beta3) = (a2, a2 - a3, a1 - a3), 2 pi i dropped."""
    return d.a2, d.a2 - d.a3, d.a1 - d.a3


def mv_chain(n: int, d: Deformation) -> List[RatFunc]:
    """[mv(2), ..., mv(n)] from one walk down the inner Wronskians.

    The beta periods are taken once and each inner W(beta2, .) is computed
    once: 2n - 3 Wronskians in all, where separate `mv(i)` calls for
    i = 2..n would take n(n - 1)/2.
    """
    if n < 2:
        raise ValueError("mv is defined for i >= 2")
    b1, b2, b3 = beta_periods(d)
    inner = b3
    out = [wronskian(b1, inner)]
    for _ in range(n - 2):
        inner = wronskian(b2, inner)
        out.append(wronskian(b1, inner))
    return out


def mv(i: int, d: Deformation) -> RatFunc:
    """Nested-Wronskian leading coefficient over v_i ((2 pi i)^i omitted)."""
    return mv_chain(i, d)[-1]


def make_length3(alpha1, alpha2, c0, lam) -> Deformation:
    """Deformation with order-2 term identically zero and order-3 term not.

    a3 = alpha1 * int_0^t alpha2/alpha1^2 + c0 alpha1, a1 = a3 + alpha1,
    a2 = lam * alpha1; requires alpha1 nonconstant, alpha2 linearly
    independent from alpha1, lam nonzero, and a rational antiderivative.
    int_0^t is `rational_antiderivative`: the antiderivative that is 0 at
    t = 0, or, where it has a pole there (as alpha1(0) = 0 can give), the
    one whose polynomial part has zero constant term.  Another constant
    would shift a3 by a multiple of alpha1, as c0 does.
    """
    alpha1 = RatFunc(alpha1)
    alpha2 = RatFunc(alpha2)
    lam = Fraction(lam)
    c0 = Fraction(c0)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if alpha1.is_constant():
        raise ValueError("alpha1 must be nonconstant")
    if not linearly_independent(alpha1, alpha2):
        raise DependentCoefficients(
            "alpha2 must be linearly independent from alpha1"
        )
    primitive = rational_antiderivative(alpha2 / (alpha1 * alpha1))
    a3 = alpha1 * primitive + alpha1 * c0
    a1 = a3 + alpha1
    a2 = alpha1 * lam
    d = Deformation(a1, a2, a3, provenance=f"pert3({alpha1}, {alpha2}, {c0}, {lam})")
    m2, m3 = mv_chain(3, d)
    assert m2.is_zero(), "construction must kill the order-2 term"
    assert not m3.is_zero(), "construction must keep the order-3 term"
    return d


class Kind(Enum):
    LENGTH3 = "LENGTH3"
    SYMMETRIC_CENTER = "SYMMETRIC_CENTER"
    INTEGRABLE_CANDIDATE = "INTEGRABLE_CANDIDATE"
    ORDER2_NONZERO = "ORDER2_NONZERO"


@dataclass(frozen=True)
class Classification:
    kind: Kind
    lambda1: Optional[RatFunc] = None
    lambda2: Optional[RatFunc] = None


def classify(d: Deformation) -> Classification:
    """Decision tree on the Wronskian hierarchy.

    a2 = 0 or a1 - a3 = 0 -> symmetric center (mirror symmetry in y or x);
    mv(2) != 0 -> order-2 leading term; mv(3) != 0 -> length-3; otherwise
    an integrability candidate with witnesses lambda1 = (a1-a3)/a2 and
    lambda2 = W(a1,a3)/a2.  Both are constants by the collapse lemma (see
    `hierarchy_collapse_check`): mv(2) = 0 gives beta3 = lambda1 beta1, and
    W(a1, a3) = W(beta2, beta3) - mv(2) is a constant times beta1 = a2 once
    mv(3) = 0.  So the four kinds exhaust the deformations.
    """
    a1, a2, a3 = d.coefficients()
    if a2.is_zero() or (a1 - a3).is_zero():
        return Classification(Kind.SYMMETRIC_CENTER)
    m2, m3 = mv_chain(3, d)
    if not m2.is_zero():
        return Classification(Kind.ORDER2_NONZERO)
    if not m3.is_zero():
        return Classification(Kind.LENGTH3)
    return Classification(Kind.INTEGRABLE_CANDIDATE, (a1 - a3) / a2, wronskian(a1, a3) / a2)


def center_family(A, c1, lambda1, lam) -> Deformation:
    """The collapsing family mv(2) = mv(3) = 0: a2 = 1/A', a1 = a2 (lam A +
    c1), a3 = a2 (lam A + c1 - lambda1); lam = 0 gives a Hamiltonian
    (center-preserving) deformation with Hamiltonian A(F) + eps * phi.

    The family exhausts the integrability candidates only in terms of A':
    deformation("t", "t", "0") is one (lambda1 = 1, lambda2 = 0), but its
    A' = 1/a2 = 1/t has no rational A (A = log t), so no rational A builds it.
    """
    A = RatFunc(A)
    c1 = Fraction(c1)
    lambda1 = Fraction(lambda1)
    lam = Fraction(lam)
    Ap = A.diff()
    if Ap.is_zero():
        raise ValueError("A must be nonconstant")
    a2 = RatFunc(1) / Ap
    shifted = A * lam + c1
    a1 = a2 * shifted
    a3 = a2 * (shifted - lambda1)
    d = Deformation(
        a1, a2, a3, provenance=f"center({A}, {c1}, {lambda1}, {lam})"
    )
    assert hierarchy_collapse_check(d), "construction must collapse the hierarchy"
    return d


def m3_tilde_coefficient(A, lam, lambda1=1) -> RatFunc:
    """Prefactor -lam*lambda1 / (t A'(t)) of the reparametrized order-3 term.

    The order-3 coefficient of the return map in the t chart is this divided
    by A'(t) once more, times the numeric double integral of dphi2 dphi3
    over the oval.  The constant is -lambda2 = -lam*lambda1: expanding
    dphi = (c1/lam) alpha + dphi2 - lambda1 dphi3 leaves -lambda1 times the
    dphi2 dphi3 integral, and the return-map jets, witnessed by direct
    transport, confirm the -lam*lambda1 scaling exactly (the widely quoted
    -lam^2 form agrees only on the diagonal lambda1 = lam; see the ratio
    checks in the tests).
    """
    A = RatFunc(A)
    lam = Fraction(lam)
    lambda1 = Fraction(lambda1)
    Ap = A.diff()
    if Ap.is_zero():
        raise ValueError("A must be nonconstant")
    return RatFunc(-lam * lambda1) / (RatFunc.t() * Ap)


def hierarchy_collapse_check(d: Deformation, i_max: int = 6) -> bool:
    """Whether mv(i) = 0 for every i, decided as mv(2) = mv(3) = 0.

    The collapse lemma: mv(2) = mv(3) = 0 forces mv(i) = 0 for every i.
    Proof.  Write w_2 = beta3 and w_{i+1} = W(beta2, w_i), so that mv(i) =
    W(beta1, w_i).  If beta1 = 0, every mv(i) vanishes.  Otherwise, a
    Wronskian of two rational functions vanishes exactly when they are
    linearly dependent over the constants, so mv(2) = 0 gives beta3 =
    lambda beta1 and mv(3) = 0 gives w_3 = mu beta1, with lambda, mu
    constants.  If lambda = 0, then beta3 = 0 and every w_i vanishes.  If
    not, W(beta2, beta1) = w_3 / lambda = (mu/lambda) beta1, so by induction
    every w_i is a constant times beta1 and mv(i) = W(beta1, c beta1) = 0.
    The converse is trivial, so one chain to mv(3) decides the collapse at
    every order.
    """
    # i_max no longer changes the result; it stays because perfbench/workloads.py
    # passes it (6, positionally), and can go when the benchmark is next changed
    m2, m3 = mv_chain(3, d)
    return m2.is_zero() and m3.is_zero()
