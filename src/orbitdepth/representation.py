"""Exact matrix representations rho_k separating v_{k+2} from the rest.

rho_k sends the free basis (g, D, x, d2, z) to (I, I, A, B, C), the
(k+1) x (k+1) matrices

    A = diag(a, 1, ..., 1),  B = I + N,  C = diag(1, ..., 1, c),

with N the single nilpotent Jordan block (ones on the superdiagonal).  The
paper's 2^k x 2^k matrices, built from A_0 = a, B_0 = 1, C_0 = c by
A_{k+1} = diag(A_k, I), B_{k+1} = [[B_k, I], [0, B_k]], C_{k+1} = diag(I, C_k),
have rows and columns indexed by subsets of {1..k}, and their entry at
S ⊆ T depends only on (|S|, |T|).  The map Phi(X)(S, T) = (|T|-|S|)!
X(|S|, |T|) from upper-triangular (k+1) x (k+1) matrices into the incidence
algebra of the Boolean lattice (Stanley, Enumerative Combinatorics I, §3.6)
is an injective algebra map sending A, B, C onto them.  So rho_k(w) = I in
one form exactly when it is in the other, and Phi(E_{0,k}) is k! times the
2^k corner.

A matrix is a `RepMatrix`: one int64 coefficient matrix per live monomial
a^m c^n (`laurent` holds the graded product and its overflow guard); the
same type at size 1 x 1 holds the Laurent scalars.  Every matrix here is
upper triangular with monomial diagonal, so its exact inverse is a short
product of powers of a nilpotent matrix.

The certificate content: rho_k(v_i) = I for i != k+2, and rho_k(v_{k+2})
is I plus the single corner entry kappa = (1/c-1)(1-a) at (0, k).  By the
corner lemma (see `depth_certificate`) the commutator of any rho_k(s) with
that image is I plus a corner kappa (a^m c^-n - 1), so all of rho_k(K) has
corners in kappa times the ideal of Laurent polynomials vanishing at
(a, c) = (1, 1), and rho_k(v_{k+2}), whose corner is kappa * 1, lies
outside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Tuple

import numpy as np

from .laurent import Graded, laurent_str, product
from .words import (
    RHO_NAMES,
    RhoGen,
    Word,
    exponent_sums_rho,
    rewrite_to_rho_alphabet,
    rho_to_delta_alphabet,
    v_k,
)

DEFAULT_K_MAX = 8


class LevelRangeError(ValueError):
    pass


def _check_level(k: int, k_max: int = DEFAULT_K_MAX):
    if not 1 <= k <= k_max:
        raise LevelRangeError(f"level k={k} outside 1..{k_max}")


class RepMatrix:
    """Square matrix over Z[a^+-1, c^+-1], stored by grade.

    `entries` maps a monomial (m, n) to the n x n int64 coefficient matrix
    of a^m c^n, zero matrices dropped (see `laurent`).  A 1 x 1 RepMatrix is
    a Laurent scalar and prints as its polynomial; multiplying by one, or by
    an int, scales.  An int added or compared stands for that multiple of
    the identity.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Graded | None = None):
        self.n = n
        self.entries = {}
        for g, x in (entries or {}).items():
            x = np.asarray(x, dtype=np.int64)
            if x.any():
                self.entries[g] = x

    @staticmethod
    def monomial(m: int, n: int, coeff: int = 1, size: int = 1) -> "RepMatrix":
        """coeff * a^m c^n times the size x size identity."""
        return RepMatrix(size, {(m, n): coeff * np.eye(size, dtype=np.int64)})

    @staticmethod
    def identity(n: int) -> "RepMatrix":
        return RepMatrix.monomial(0, 0, 1, n)

    @staticmethod
    def zero(n: int) -> "RepMatrix":
        return RepMatrix(n)

    def _lift(self, other, size: int):
        return RepMatrix.monomial(0, 0, other, size) if isinstance(other, int) else other

    def __eq__(self, other) -> bool:
        other = self._lift(other, self.n)
        return (
            isinstance(other, RepMatrix)
            and self.n == other.n
            and self.entries.keys() == other.entries.keys()
            and all(np.array_equal(x, other.entries[g]) for g, x in self.entries.items())
        )

    def __add__(self, other) -> "RepMatrix":
        out = dict(self.entries)
        for g, y in self._lift(other, self.n).entries.items():
            out[g] = out[g] + y if g in out else y
        return RepMatrix(self.n, out)

    def __neg__(self) -> "RepMatrix":
        return RepMatrix(self.n, {g: -x for g, x in self.entries.items()})

    def __sub__(self, other) -> "RepMatrix":
        return self + -self._lift(other, self.n)

    def __rsub__(self, other) -> "RepMatrix":
        return -self + other

    def __mul__(self, other) -> "RepMatrix":
        other = self._lift(other, 1)
        return RepMatrix(max(self.n, other.n), product(self.entries, other.entries))

    __rmul__ = __mul__  # only ints multiply from the left, and they commute

    def is_zero(self) -> bool:
        return not self.entries

    def is_identity(self) -> bool:
        return self == RepMatrix.identity(self.n)

    def entry(self, i: int, j: int) -> "RepMatrix":
        """Entry (i, j) as a Laurent scalar."""
        return RepMatrix(1, {g: x[i:i + 1, j:j + 1] for g, x in self.entries.items()})

    def diagonal(self) -> List["RepMatrix"]:
        return [self.entry(i, i) for i in range(self.n)]

    def nonzero(self) -> List[Tuple[int, int]]:
        """Positions (i, j) of the nonzero entries in row-major order."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for x in self.entries.values():
            mask |= x != 0
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]

    def is_upper_triangular(self) -> bool:
        return not any(np.tril(x, -1).any() for x in self.entries.values())

    def inverse_upper(self) -> "RepMatrix":
        """Exact inverse for upper-triangular matrices with unit-monomial
        diagonal D: with X = -D^-1 (M - D), nilpotent,
        M^-1 = (I + X)(I + X^2)(I + X^4)... D^-1."""
        if not self.is_upper_triangular():
            raise ValueError("inverse_upper requires an upper-triangular matrix")
        diag = {g: np.diag(x) for g, x in self.entries.items()}
        live = sum((d != 0).astype(np.int64) for d in diag.values())
        if not (np.all(live == 1) and all(np.abs(d).max() <= 1 for d in diag.values())):
            raise ValueError("inverse_upper requires +-monomials on the diagonal")
        n = self.n
        d = RepMatrix(n, {g: np.diag(v) for g, v in diag.items()})
        d_inv = RepMatrix(n, {(-m, -l): np.diag(v) for (m, l), v in diag.items()})
        x = -(d_inv * (self - d))
        inv = RepMatrix.identity(n)
        while not x.is_zero():
            inv = inv + inv * x
            x = x * x
        return inv * d_inv

    def evaluate(self, a, c):
        """Entries at (a, c) as a list of rows; exact for Fraction a, c."""
        out = np.zeros((self.n, self.n), dtype=object)
        for (m, n), x in self.entries.items():
            out = out + x.astype(object) * (a ** m * c ** n)
        return out.tolist()

    def __repr__(self):
        if self.n == 1:
            return laurent_str({g: int(x[0, 0]) for g, x in self.entries.items()})
        return f"RepMatrix(n={self.n}, monomials={sorted(self.entries)})"


A_PARAM = RepMatrix.monomial(1, 0)
C_PARAM = RepMatrix.monomial(0, 1)
A_INV = RepMatrix.monomial(-1, 0)
C_INV = RepMatrix.monomial(0, -1)


def commutator_matrix(u: RepMatrix, v: RepMatrix,
                      u_inv: RepMatrix | None = None,
                      v_inv: RepMatrix | None = None) -> RepMatrix:
    """[u, v] = u v u^-1 v^-1; the inverses are computed unless given."""
    u_inv = u.inverse_upper() if u_inv is None else u_inv
    v_inv = v.inverse_upper() if v_inv is None else v_inv
    return u * v * u_inv * v_inv


def corner_tensor(k: int) -> RepMatrix:
    """E_{0,k}, the single entry 1 at (0, k) of a (k+1) x (k+1) matrix
    (E_1n in the 1-based notation of the certificate items)."""
    return _unit(k + 1, 0, k)


def _unit(n: int, i: int, j: int) -> RepMatrix:
    """E_ij, the single entry 1 at (i, j) of an n x n matrix."""
    e = np.zeros((n, n), dtype=np.int64)
    e[i, j] = 1
    return RepMatrix(n, {(0, 0): e})


# ---------------------------------------------------------------------------
# Base matrices and the representation.


def base_matrices(k: int, k_max: int = DEFAULT_K_MAX) -> Tuple[RepMatrix, RepMatrix, RepMatrix]:
    """(A, B, C) = (diag(a, 1, ..., 1), I + N, diag(1, ..., 1, c)) of size k + 1."""
    _check_level(k, k_max)
    n = k + 1
    ident = RepMatrix.identity(n)
    jordan = RepMatrix(n, {(0, 0): np.eye(n, k=1, dtype=np.int64)})
    return (ident + _unit(n, 0, 0) * (A_PARAM - 1),
            ident + jordan,
            ident + _unit(n, k, k) * (C_PARAM - 1))


class Representation:
    """rho_k with cached generator images and their inverses."""

    def __init__(self, k: int, k_max: int = DEFAULT_K_MAX):
        _check_level(k, k_max)
        self.k = k
        self.n = k + 1
        A, B, C = base_matrices(k, k_max)
        ident = RepMatrix.identity(self.n)
        self.images = {
            RhoGen.G: ident,
            RhoGen.DELTA: ident,
            RhoGen.X: A,
            RhoGen.B2: B,
            RhoGen.Z: C,
        }
        self.inverses = {g: m.inverse_upper() for g, m in self.images.items()}

    @property
    def A(self):
        return self.images[RhoGen.X]

    @property
    def B(self):
        return self.images[RhoGen.B2]

    @property
    def C(self):
        return self.images[RhoGen.Z]

    def __call__(self, w: Word) -> RepMatrix:
        rw = rewrite_to_rho_alphabet(w)
        out = RepMatrix.identity(self.n)
        for g, e in rw.letters:
            out = out * (self.images[RhoGen(g)] if e == 1 else self.inverses[RhoGen(g)])
        return out

    def v_image(self, i: int) -> RepMatrix:
        """rho_k(v_i) through the nested matrix commutators (fast path)."""
        if i < 1:
            raise ValueError("i must be >= 1")
        if i == 1:
            return RepMatrix.identity(self.n)
        return next(islice(_v_chain(self), i - 2, None))


def _v_chain(rep: Representation):
    """rho(v_2), rho(v_3), ...: d = C, d = [B, d], rho(v_i) = [A, d].

    Each d^-1 is carried as [d', B] = [B, d']^-1 instead of inverted.
    """
    a_inv, b_inv = rep.A.inverse_upper(), rep.B.inverse_upper()
    d, d_inv = rep.C, rep.C.inverse_upper()
    while True:
        yield commutator_matrix(rep.A, d, a_inv, d_inv)
        d, d_inv = (commutator_matrix(rep.B, d, b_inv, d_inv),
                    commutator_matrix(d, rep.B, d_inv, b_inv))


def rho(k: int, w: Word, k_max: int = DEFAULT_K_MAX) -> RepMatrix:
    return Representation(k, k_max)(w)


def expected_corner_scalar() -> RepMatrix:
    """(1/c - 1)(1 - a)  -- the exact corner of rho_k(v_{k+2}), at every k.

    With the commutator convention [u, v] = u v u^-1 v^-1 (the one forced by
    M(d3) = [d2, d3] d3 = d2 d3 d2^-1) the nested commutator
    [A, [B, [...[B, C]]...]] works out to I + (1/c-1)(1-a) E_{0,k}, i.e. the
    corner is a times the often-quoted (1/c-1)(1/a-1).  Both the word
    product and the matrix recursion agree on this exactly; the 2^k form
    carries k! times it (see the module docstring).
    """
    return (C_INV - 1) * (1 - A_PARAM)


def alternate_corner_scalar() -> RepMatrix:
    """(1/c - 1)(1/a - 1); equals expected_corner_scalar() / a."""
    return (C_INV - 1) * (A_INV - 1)


def expected_v_corner_matrix(k: int) -> RepMatrix:
    return corner_tensor(k) * expected_corner_scalar()


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""
    runtime_ms: float = 0.0


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _attempt(compute):
    """(compute(), "") or (None, the error) when exact arithmetic fails: an
    image with no exact inverse (ValueError) or an int64 product bound
    reached (OverflowError).  A failing level gives red items."""
    try:
        return compute(), ""
    except (OverflowError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


@dataclass
class VImageReport:
    k: int
    i_max: int
    items: List[CheckItem] = field(default_factory=list)
    corner_image: Optional[RepMatrix] = None  # rho_k(v_{k+2}) from the chain

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def first_failure(self) -> Optional[CheckItem]:
        for it in self.items:
            if not it.passed:
                return it
        return None


def verify_v_images(k: int, i_max: int | None = None, rep: Representation | None = None) -> VImageReport:
    """Check rho_k(v_i) = I for i != k+2 and the corner form at i = k+2.

    By convention v_1 = D maps to the identity; i runs over 2..i_max with
    i_max defaulting to k+4.
    """
    if i_max is None:
        i_max = k + 4
    if i_max < k + 2:
        raise ValueError("i_max must reach k+2")
    rep = rep or Representation(k)
    ident = RepMatrix.identity(rep.n)
    corner = ident + expected_v_corner_matrix(k)
    report = VImageReport(k, i_max)
    chain = _v_chain(rep)  # walked once for every i
    error = ""  # once a step fails, every later row is red with its error
    for i in range(2, i_max + 1):
        start = time.perf_counter()
        img = None
        if not error:
            img, error = _attempt(lambda: next(chain))
        if i == k + 2:
            report.corner_image = img
            expected = corner
            ok = img == expected
            detail = f"corner = {expected_corner_scalar()!r} at (1, {rep.n})"
            report.items.append(CheckItem(f"rho_{k}(v_{i}) = I + corner", ok and img != ident,
                                          error or "corner nonzero", _ms_since(start)))
        else:
            expected = ident
            ok = img == expected
            detail = "identity"
        if error:
            detail = error
        elif not ok:
            detail = f"mismatch entries: {(img - expected).nonzero()[:4]}"
        report.items.append(CheckItem(f"rho_{k}(v_{i})", ok, detail, _ms_since(start)))
    # word-path cross-check at the distinguished index
    start = time.perf_counter()
    word_image, error = _attempt(lambda: rep(v_k(k + 2)))
    report.items.append(CheckItem(f"rho_{k}(v_{k+2}) via word product", word_image == corner,
                                  error or "matrix recursion agrees with the word image",
                                  _ms_since(start)))
    start = time.perf_counter()
    ok = expected_corner_scalar() == alternate_corner_scalar() * A_PARAM
    report.items.append(CheckItem(f"corner scalar relation at k={k}", ok,
                                  "(1/c-1)(1-a) = a * (1/c-1)(1/a-1)",
                                  _ms_since(start)))
    return report


def commutator_scalar(k: int, s: Word, rep: Representation | None = None):
    """Corner scalar of [rho(s), rho(v_{k+2})].

    Returns (m, n, scalar) and asserts the commutator is the identity plus a
    single corner entry equal to (a^m c^-n - 1) expected_corner_scalar().
    """
    rep = rep or Representation(k)
    m, n = exponent_sums_rho(s)
    mat_s = rep(s)
    mat_v = RepMatrix.identity(rep.n) + expected_v_corner_matrix(k)
    comm = commutator_matrix(mat_s, mat_v)
    corner = comm.entry(0, rep.n - 1)
    if comm - corner_tensor(k) * corner != RepMatrix.identity(rep.n):
        raise AssertionError(
            f"commutator of rho(s) with rho(v_{k+2}) is not I + corner for s={s!r}"
        )
    expected = (RepMatrix.monomial(m, -n) - 1) * expected_corner_scalar()
    if corner != expected:
        raise AssertionError(
            f"corner scalar mismatch for s={s!r}: got {corner!r}, expected {expected!r}"
        )
    return m, n, corner


@dataclass
class Certificate:
    k: int
    items: List[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "checks": [
                {"name": it.name, "pass": it.passed, "detail": it.detail}
                for it in self.items
            ],
            "pass": self.passed,
        }


def _is_power(p: RepMatrix, axis: int) -> bool:
    """Whether the scalar p is a^m (axis 0) or c^n (axis 1) for some exponent."""
    if len(p.entries) != 1:
        return False
    (mn, coeff), = p.entries.items()
    return coeff[0, 0] == 1 and mn[1 - axis] == 0


def _has_lemma_shape(s: RepMatrix) -> bool:
    """Upper triangular with diagonal (a^m, 1, ..., 1, c^n)."""
    d = s.diagonal()
    return (
        s.is_upper_triangular()
        and _is_power(d[0], 0)
        and _is_power(d[-1], 1)
        and all(x == 1 for x in d[1:-1])
    )


def depth_certificate(k: int, rep: Representation | None = None) -> Certificate:
    """Certificate that rho_k separates v_{k+2} from K = [orbit, group].

    The v-image table shows that rho_k kills every v_i except v_{k+2}, which
    goes to N = I + kappa E_1n with kappa = expected_corner_scalar().  The
    corner lemma: if S is upper triangular with diagonal (a^m, 1, ..., 1,
    c^n), then S E_1n S^-1 = a^m c^-n E_1n, so [S, N] = I + kappa (a^m c^-n
    - 1) E_1n.  Such S form a group on which (m, n) is additive, so once the
    generator images have this shape (item 1) and obey the lemma with (m, n)
    their exponent sums (item 2), rho_k(K) lies in the abelian group
    I + kappa aug E_1n, where aug is the kernel of evaluation at
    (a, c) = (1, 1); conjugation keeps it there.  rho_k(v_{k+2}) has corner
    kappa * 1 with kappa != 0 and 1 not in aug, so v_{k+2} is not in K
    (item 3).  A failing level gives red items, never an exception.
    """
    rep = rep or Representation(k)
    cert = Certificate(k)
    table = verify_v_images(k, rep=rep)
    cert.items.extend(table.items)
    ident = RepMatrix.identity(rep.n)
    unit_corner = corner_tensor(k)
    kappa = expected_corner_scalar()

    start = time.perf_counter()
    bad = [RHO_NAMES[g] for g, s in rep.images.items() if not _has_lemma_shape(s)]
    cert.items.append(CheckItem(
        "generator images in the corner-lemma group",
        not bad,
        f"not upper triangular with diagonal (a^m, 1, ..., 1, c^n): {bad}" if bad
        else "every generator image is upper triangular with diagonal (a^m, 1, ..., 1, c^n)",
        _ms_since(start),
    ))

    start = time.perf_counter()
    v_corner = ident + unit_corner * kappa
    v_inv, _ = _attempt(v_corner.inverse_upper)
    quotients = []
    bad = []
    errors = []
    for g, s in rep.images.items():
        m, n = exponent_sums_rho(rho_to_delta_alphabet(Word.gen(g)))
        q = RepMatrix.monomial(m, -n) - 1
        quotients.append(q)
        comm, error = _attempt(lambda: commutator_matrix(s, v_corner, v_inv=v_inv))
        if comm != ident + unit_corner * (kappa * q):
            bad.append(RHO_NAMES[g])
            if error:
                errors.append(f"{RHO_NAMES[g]}: {error}")
    cert.items.append(CheckItem(
        "corner lemma on the generator images",
        not bad,
        f"[S, N] != I + kappa (a^m c^-n - 1) E_1n for {bad}" + "".join(f"; {e}" for e in errors)
        if bad else "[S, N] = I + kappa (a^m c^-n - 1) E_1n, (m, n) the exponent sums",
        _ms_since(start),
    ))

    start = time.perf_counter()
    one = RepMatrix.identity(1)
    at_one = (Fraction(1), Fraction(1))
    conditions = {
        "commutator corners lie in kappa * aug":
            all(q.evaluate(*at_one) == [[0]] for q in quotients),
        f"rho(v_{k + 2}) has corner kappa * 1":
            table.corner_image == ident + unit_corner * (kappa * one),
        "kappa != 0": not kappa.is_zero(),
        "1 not in aug": one.evaluate(*at_one) == [[1]],
    }
    failed = [name for name, ok in conditions.items() if not ok]
    detail = "; ".join(conditions) if not failed else "failed: " + "; ".join(failed)
    if table.corner_image is None:  # the chain raised; its row carries the error
        detail += "; " + next(it.detail for it in table.items
                              if it.name == f"rho_{k}(v_{k + 2}) = I + corner")
    cert.items.append(CheckItem(f"v_{k+2} outside K", not failed, detail, _ms_since(start)))
    return cert
