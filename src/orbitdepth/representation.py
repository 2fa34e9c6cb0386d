"""Exact matrix representations rho_k separating v_{k+2} from the rest.

rho_k sends the free basis (g, D, x, d2, z) to (I, I, A_k, B_k, C_k) where
the 2^k x 2^k matrices are built from A_0 = a, B_0 = 1, C_0 = c by

    A_{k+1} = diag(A_k, I),  B_{k+1} = [[B_k, I], [0, B_k]],
    C_{k+1} = diag(I, C_k),

equivalently A_k = I + (a-1) F2^x k, B_k = I + sum_j b_j, C_k = I + (c-1)
E2^x k in tensor notation.  All matrices here are upper triangular with
monomial diagonal, which keeps exact inversion cheap.

The certificate content: rho_k(v_i) = I for i != k+2, and rho_k(v_{k+2})
is I plus the single corner entry kappa = k!(1/c-1)(1-a).  By the corner
lemma (see `depth_certificate`) the commutator of any rho_k(s) with that
image is I plus a corner kappa (a^m c^-n - 1), so all of rho_k(K) has corners
in kappa times the ideal of Laurent polynomials vanishing at (a, c) = (1, 1),
and rho_k(v_{k+2}), whose corner is kappa * 1, lies outside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Tuple

from .laurent import A_INV, A_PARAM, C_INV, C_PARAM, LaurentPoly2
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
    """Sparse square matrix with LaurentPoly2 entries."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Dict[Tuple[int, int], LaurentPoly2] | None = None):
        self.n = n
        self.entries = {}
        if entries:
            for ij, p in entries.items():
                if p:
                    self.entries[ij] = p

    @staticmethod
    def identity(n: int) -> "RepMatrix":
        return RepMatrix(n, {(i, i): LaurentPoly2.one() for i in range(n)})

    @staticmethod
    def zero(n: int) -> "RepMatrix":
        return RepMatrix(n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepMatrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __add__(self, other: "RepMatrix") -> "RepMatrix":
        out = dict(self.entries)
        for ij, p in other.entries.items():
            v = out.get(ij, LaurentPoly2.zero()) + p
            if v:
                out[ij] = v
            else:
                out.pop(ij, None)
        return RepMatrix(self.n, out)

    def __sub__(self, other: "RepMatrix") -> "RepMatrix":
        out = dict(self.entries)
        for ij, p in other.entries.items():
            v = out.get(ij, LaurentPoly2.zero()) - p
            if v:
                out[ij] = v
            else:
                out.pop(ij, None)
        return RepMatrix(self.n, out)

    def scale(self, s) -> "RepMatrix":
        return RepMatrix(self.n, {ij: p * s for ij, p in self.entries.items()})

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        rows: Dict[int, list] = {}
        for (i, j), p in self.entries.items():
            rows.setdefault(i, []).append((j, p))
        cols: Dict[int, list] = {}
        for (i, j), p in other.entries.items():
            cols.setdefault(i, []).append((j, p))
        out: Dict[Tuple[int, int], LaurentPoly2] = {}
        for i, row in rows.items():
            for k, p in row:
                for j, q in cols.get(k, ()):
                    key = (i, j)
                    v = out.get(key, LaurentPoly2.zero()) + p * q
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        return RepMatrix(self.n, out)

    def is_identity(self) -> bool:
        return self == RepMatrix.identity(self.n)

    def diagonal(self) -> List[LaurentPoly2]:
        return [self.entries.get((i, i), LaurentPoly2.zero()) for i in range(self.n)]

    def is_upper_triangular(self) -> bool:
        return all(i <= j for i, j in self.entries)

    def inverse_upper(self) -> "RepMatrix":
        """Exact inverse for upper-triangular matrices with unit-monomial
        diagonal (back substitution column by column)."""
        if not self.is_upper_triangular():
            raise ValueError("inverse_upper requires an upper-triangular matrix")
        n = self.n
        diag_inv = [self.entries[(i, i)].unit_inverse() for i in range(n)]
        rows: Dict[int, list] = {}
        for (i, j), p in self.entries.items():
            if i != j:
                rows.setdefault(i, []).append((j, p))
        out: Dict[Tuple[int, int], LaurentPoly2] = {}
        for j in range(n):
            col: Dict[int, LaurentPoly2] = {j: diag_inv[j]}
            for i in range(j - 1, -1, -1):
                s = LaurentPoly2.zero()
                for k, p in rows.get(i, ()):
                    if k <= j and k in col:
                        s = s + p * col[k]
                if s:
                    col[i] = -(diag_inv[i] * s)
            for i, p in col.items():
                if p:
                    out[(i, j)] = p
        return RepMatrix(n, out)

    def evaluate(self, a, c):
        """Dense numeric/exact evaluation as a list of lists."""
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), p in self.entries.items():
            rows[i][j] = p.evaluate(a, c)
        return rows

    def __repr__(self):
        return f"RepMatrix(n={self.n}, nnz={len(self.entries)})"


def commutator_matrix(u: RepMatrix, v: RepMatrix) -> RepMatrix:
    return u * v * u.inverse_upper() * v.inverse_upper()


# ---------------------------------------------------------------------------
# Tensor words: formal tensor products of the 2x2 seeds.

I2 = "I2"
J2 = "J2"
E2 = "E2"
F2 = "F2"

_SEED_ENTRIES = {
    I2: {(0, 0): 1, (1, 1): 1},
    J2: {(0, 1): 1},
    E2: {(1, 1): 1},
    F2: {(0, 0): 1},
}


@dataclass(frozen=True)
class TensorWord:
    """A k-fold tensor product of 2x2 seed matrices, first factor outermost."""

    factors: Tuple[str, ...]

    def matrix(self) -> RepMatrix:
        entries = {(0, 0): 1}
        for f in self.factors:
            seed = _SEED_ENTRIES[f]
            new = {}
            for (i, j), c in entries.items():
                for (si, sj), sc in seed.items():
                    new[(2 * i + si, 2 * j + sj)] = c * sc
            entries = new
        n = 2 ** len(self.factors)
        return RepMatrix(n, {ij: LaurentPoly2.const(c) for ij, c in entries.items()})


def b_tensor(k: int, positions: Tuple[int, ...]) -> TensorWord:
    """I2 tensor word with J2 at the given 1-based positions."""
    return TensorWord(tuple(J2 if i + 1 in positions else I2 for i in range(k)))


def e_tensor(k: int, positions: Tuple[int, ...]) -> TensorWord:
    """E2 tensor word with J2 at the given 1-based positions."""
    return TensorWord(tuple(J2 if i + 1 in positions else E2 for i in range(k)))


def alpha_tensor(k: int) -> RepMatrix:
    return TensorWord((F2,) * k).matrix()


def gamma_tensor(k: int) -> RepMatrix:
    """E2^x k; named gamma-tensor to keep it apart from the oval cycle."""
    return TensorWord((E2,) * k).matrix()


def corner_tensor(k: int) -> RepMatrix:
    return TensorWord((J2,) * k).matrix()


def beta_matrix(k: int) -> RepMatrix:
    out = RepMatrix.zero(2 ** k)
    for j in range(1, k + 1):
        out = out + b_tensor(k, (j,)).matrix()
    return out


def epsilon_bracket(k: int, l: int) -> RepMatrix:
    """eps^[l] = l! sum over e-tensors with l J2 factors; zero for l > k."""
    from itertools import combinations

    n = 2 ** k
    if l > k:
        return RepMatrix.zero(n)
    out = RepMatrix.zero(n)
    for positions in combinations(range(1, k + 1), l):
        out = out + e_tensor(k, positions).matrix()
    return out.scale(factorial(l))


# ---------------------------------------------------------------------------
# Base matrices and the representation.


def base_matrices(k: int, k_max: int = DEFAULT_K_MAX) -> Tuple[RepMatrix, RepMatrix, RepMatrix]:
    """(A_k, B_k, C_k) by the block recursion from the 1x1 seeds a, 1, c."""
    _check_level(k, k_max)
    A = RepMatrix(1, {(0, 0): A_PARAM})
    B = RepMatrix(1, {(0, 0): LaurentPoly2.one()})
    C = RepMatrix(1, {(0, 0): C_PARAM})
    for _ in range(k):
        n = A.n
        ident = RepMatrix.identity(n)
        A = _block_diag(A, ident)
        B = _block_upper(B, ident, B)
        C = _block_diag(ident, C)
    return A, B, C


def base_matrices_closed_form(k: int) -> Tuple[RepMatrix, RepMatrix, RepMatrix]:
    """A_k = I + (a-1) alpha, B_k = I + beta, C_k = I + (c-1) gamma-tensor."""
    n = 2 ** k
    ident = RepMatrix.identity(n)
    A = ident + alpha_tensor(k).scale(A_PARAM - 1)
    B = ident + beta_matrix(k)
    C = ident + gamma_tensor(k).scale(C_PARAM - 1)
    return A, B, C


def _block_diag(tl: RepMatrix, br: RepMatrix) -> RepMatrix:
    n = tl.n
    out = {}
    for (i, j), p in tl.entries.items():
        out[(i, j)] = p
    for (i, j), p in br.entries.items():
        out[(i + n, j + n)] = p
    return RepMatrix(2 * n, out)


def _block_upper(tl: RepMatrix, tr: RepMatrix, br: RepMatrix) -> RepMatrix:
    n = tl.n
    out = {}
    for (i, j), p in tl.entries.items():
        out[(i, j)] = p
    for (i, j), p in tr.entries.items():
        out[(i, j + n)] = p
    for (i, j), p in br.entries.items():
        out[(i + n, j + n)] = p
    return RepMatrix(2 * n, out)


class Representation:
    """rho_k with cached generator images and their inverses."""

    def __init__(self, k: int, k_max: int = DEFAULT_K_MAX):
        _check_level(k, k_max)
        self.k = k
        self.n = 2 ** k
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
        d = self.C
        for _ in range(i - 2):
            d = commutator_matrix(self.B, d)
        return commutator_matrix(self.A, d)


def rho(k: int, w: Word, k_max: int = DEFAULT_K_MAX) -> RepMatrix:
    return Representation(k, k_max)(w)


def expected_corner_scalar(k: int) -> LaurentPoly2:
    """(1/c - 1)(1 - a) k!  -- the exact corner of rho_k(v_{k+2}).

    With the commutator convention [u, v] = u v u^-1 v^-1 (the one forced by
    M(d3) = [d2, d3] d3 = d2 d3 d2^-1) the nested commutator
    [A, [B, [...[B, C]]...]] works out to I - (1/c-1)(a-1) alpha eps^[l],
    i.e. the corner is a times the often-quoted (1/c-1)(1/a-1) k!.  Both the
    word product and the matrix recursion agree on this exactly; the tests
    pin the relation corner = a * (1/c-1)(1/a-1) k! as well.
    """
    return (C_INV - 1) * (LaurentPoly2.one() - A_PARAM) * factorial(k)


def alternate_corner_scalar(k: int) -> LaurentPoly2:
    """(1/c - 1)(1/a - 1) k!; equals expected_corner_scalar(k) / a."""
    return (C_INV - 1) * (A_INV - 1) * factorial(k)


def expected_v_corner_matrix(k: int) -> RepMatrix:
    return corner_tensor(k).scale(expected_corner_scalar(k))


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""
    runtime_ms: float = 0.0


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


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
    report = VImageReport(k, i_max)
    d = rep.C  # d_{i-1}(z); the chain is walked once for every i
    for i in range(2, i_max + 1):
        start = time.perf_counter()
        if i > 2:
            d = commutator_matrix(rep.B, d)
        img = commutator_matrix(rep.A, d)
        if i == k + 2:
            report.corner_image = img
            expected = ident + expected_v_corner_matrix(k)
            ok = img == expected
            detail = f"corner = k!(1/c-1)(1/a-1) at (1, {rep.n})"
            report.items.append(CheckItem(f"rho_{k}(v_{i}) = I + corner", ok and img != ident,
                                          "corner nonzero", _ms_since(start)))
        else:
            expected = ident
            ok = img == expected
            detail = "identity"
        report.items.append(CheckItem(f"rho_{k}(v_{i})", ok, detail, _ms_since(start)))
        if not ok:
            diff = img - expected
            report.items[-1].detail = f"mismatch entries: {sorted(diff.entries)[:4]}"
    # word-path cross-check at the distinguished index
    start = time.perf_counter()
    ok = rep(v_k(k + 2)) == ident + expected_v_corner_matrix(k)
    report.items.append(CheckItem(f"rho_{k}(v_{k+2}) via word product", ok,
                                  "matrix recursion agrees with the word image",
                                  _ms_since(start)))
    start = time.perf_counter()
    ok = expected_corner_scalar(k) == alternate_corner_scalar(k) * A_PARAM
    report.items.append(CheckItem(f"corner scalar relation at k={k}", ok,
                                  "k!(1/c-1)(1-a) = a * k!(1/c-1)(1/a-1)",
                                  _ms_since(start)))
    return report


def commutator_scalar(k: int, s: Word, rep: Representation | None = None):
    """Corner scalar of [rho(s), rho(v_{k+2})].

    Returns (m, n, scalar) and asserts the commutator is the identity plus a
    single corner entry equal to (a^m c^-n - 1)(1/c-1)(1/a-1) k!.
    """
    rep = rep or Representation(k)
    m, n = exponent_sums_rho(s)
    mat_s = rep(s)
    mat_v = RepMatrix.identity(rep.n) + expected_v_corner_matrix(k)
    comm = commutator_matrix(mat_s, mat_v)
    corner = comm.entries.get((0, rep.n - 1), LaurentPoly2.zero())
    rest = dict(comm.entries)
    rest.pop((0, rep.n - 1), None)
    if RepMatrix(rep.n, rest) != RepMatrix.identity(rep.n):
        raise AssertionError(
            f"commutator of rho(s) with rho(v_{k+2}) is not I + corner for s={s!r}"
        )
    expected = (LaurentPoly2.monomial(m, -n) - 1) * expected_corner_scalar(k)
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


def _is_power(p: LaurentPoly2, axis: int) -> bool:
    """Whether p is a^m (axis 0) or c^n (axis 1) for some integer exponent."""
    if len(p.terms) != 1:
        return False
    (mn, coeff), = p.terms.items()
    return coeff == 1 and mn[1 - axis] == 0


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
    goes to N = I + kappa E_1n with kappa = expected_corner_scalar(k).  The
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
    kappa = expected_corner_scalar(k)

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
    v_corner = ident + unit_corner.scale(kappa)
    quotients = []
    bad = []
    for g, s in rep.images.items():
        m, n = exponent_sums_rho(rho_to_delta_alphabet(Word.gen(g)))
        q = LaurentPoly2.monomial(m, -n) - 1
        quotients.append(q)
        try:
            ok = commutator_matrix(s, v_corner) == ident + unit_corner.scale(kappa * q)
        except ValueError:  # s has no exact upper-triangular inverse
            ok = False
        if not ok:
            bad.append(RHO_NAMES[g])
    cert.items.append(CheckItem(
        "corner lemma on the generator images",
        not bad,
        f"[S, N] != I + kappa (a^m c^-n - 1) E_1n for {bad}" if bad
        else "[S, N] = I + kappa (a^m c^-n - 1) E_1n, (m, n) the exponent sums",
        _ms_since(start),
    ))

    start = time.perf_counter()
    one = LaurentPoly2.one()
    at_one = (Fraction(1), Fraction(1))
    separated = (
        all(q.evaluate(*at_one) == 0 for q in quotients)
        and table.corner_image == ident + unit_corner.scale(kappa * one)
        and not kappa.is_zero()
        and one.evaluate(*at_one) == 1
    )
    cert.items.append(CheckItem(
        f"v_{k+2} outside K",
        separated,
        f"commutator corners lie in kappa * aug; rho(v_{k + 2}) has corner kappa * 1, "
        "kappa != 0, 1 not in aug",
        _ms_since(start),
    ))
    return cert
