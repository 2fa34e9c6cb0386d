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

A matrix is a `RepMatrix`: one sparse Python-int coefficient matrix per
live monomial a^m c^n (`laurent` holds the graded product); the same type
at size 1 x 1 holds the Laurent scalars.  Every matrix here is upper
triangular with monomial diagonal, so its exact inverse is a short product
of powers of a nilpotent matrix.

The certificate content: rho_k(v_i) = I for i != k+2, and rho_k(v_{k+2})
is N = I + kappa E_{0,k}, kappa = (1/c-1)(1-a).  The corner lemma: if
column 0 of an invertible S is a^m e_0 and row k is c^n e_k^T, then
S E_{0,k} S^-1 = (S e_0)(e_k^T S^-1) = a^m c^-n E_{0,k}, and since
E_{0,k}^2 = 0, [S, N] = I + kappa (a^m c^-n - 1) E_{0,k}.  Every rho_k(s)
has that shape with (m, n) the exponent sums of s, so all of rho_k(K) has
corners in kappa times the ideal of Laurent polynomials vanishing at
(a, c) = (1, 1), and rho_k(v_{k+2}), whose corner is kappa * 1, lies
outside it (see `depth_certificate`).  `verify_v_images` and
`depth_certificate` add that content to the caller's `Recorder`, one
`CheckRecord` per item, each with its final repr.k<k>.* id.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import Recorder
from .laurent import Graded, by_row, laurent_str, product
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


class RepMatrix:
    """Square matrix over Z[a^+-1, c^+-1], stored by grade.

    `entries` maps a monomial (m, n) to the sparse coefficient matrix
    {(i, j): int} of a^m c^n, zeros dropped (see `laurent`), so two
    matrices are equal exactly when their sizes and entries are.  Nothing
    changes `entries` after construction, so the row index that a right
    factor of `*` needs is built once, on first use, and kept.  A 1 x 1
    RepMatrix is a Laurent scalar and prints as its polynomial.  An int or
    a Laurent scalar added to, multiplied with or compared to a larger
    matrix stands for that multiple of the identity.
    """

    __slots__ = ("n", "entries", "_rows")

    def __init__(self, n: int, entries: Graded | None = None):
        self.n = n
        self.entries = {g: z for g, x in (entries or {}).items()
                        if (z := {p: v for p, v in x.items() if v})}
        self._rows = None  # by_row(entries), once this is a right factor

    @staticmethod
    def monomial(m: int, n: int, coeff: int = 1, size: int = 1) -> "RepMatrix":
        """coeff * a^m c^n times the size x size identity."""
        return RepMatrix(size, {(m, n): {(i, i): coeff for i in range(size)}})

    @staticmethod
    def identity(n: int) -> "RepMatrix":
        return RepMatrix.monomial(0, 0, 1, n)

    @staticmethod
    def zero(n: int) -> "RepMatrix":
        return RepMatrix(n)

    @staticmethod
    def _lift(other, size: int):
        """other at size x size: an int or a 1 x 1 scalar times the identity."""
        if isinstance(other, int):
            other = RepMatrix.monomial(0, 0, other)
        if not isinstance(other, RepMatrix) or other.n != 1 or size == 1:
            return other
        return RepMatrix(size, {g: dict.fromkeys(((i, i) for i in range(size)), x[0, 0])
                                for g, x in other.entries.items()})

    def __eq__(self, other) -> bool:
        other = self._lift(other, self.n)
        return isinstance(other, RepMatrix) and self.n == other.n and self.entries == other.entries

    def __add__(self, other) -> "RepMatrix":
        out = {g: dict(x) for g, x in self.entries.items()}
        for g, y in self._lift(other, self.n).entries.items():
            acc = out.setdefault(g, {})
            for p, v in y.items():
                acc[p] = acc.get(p, 0) + v
        return RepMatrix(self.n, out)

    def __neg__(self) -> "RepMatrix":
        return RepMatrix(self.n, {g: {p: -v for p, v in x.items()}
                                  for g, x in self.entries.items()})

    def __sub__(self, other) -> "RepMatrix":
        return self + -self._lift(other, self.n)

    def __rsub__(self, other) -> "RepMatrix":
        return -self + other

    def __mul__(self, other) -> "RepMatrix":
        other = self._lift(other, self.n)
        n = max(self.n, other.n)
        if other._rows is None:
            other._rows = by_row(other.entries)
        out = RepMatrix.__new__(RepMatrix)  # product has dropped the zeros
        out.n, out.entries, out._rows = n, product(self._lift(self, n).entries, other._rows), None
        return out

    __rmul__ = __mul__  # only ints multiply from the left, and they commute

    def is_zero(self) -> bool:
        return not self.entries

    def is_identity(self) -> bool:
        return self == RepMatrix.identity(self.n)

    def entry(self, i: int, j: int) -> "RepMatrix":
        """Entry (i, j) as a Laurent scalar."""
        return RepMatrix(1, {g: {(0, 0): x.get((i, j), 0)} for g, x in self.entries.items()})

    def diagonal(self) -> List["RepMatrix"]:
        return [self.entry(i, i) for i in range(self.n)]

    def nonzero(self) -> List[Tuple[int, int]]:
        """Positions (i, j) of the nonzero entries in row-major order."""
        return sorted(set().union(*self.entries.values()))

    def is_upper_triangular(self) -> bool:
        return all(i <= j for x in self.entries.values() for i, j in x)

    def inverse_upper(self) -> "RepMatrix":
        """Exact inverse for upper-triangular matrices with unit-monomial
        diagonal D: with X = -D^-1 (M - D), nilpotent,
        M^-1 = (I + X)(I + X^2)(I + X^4)... D^-1."""
        if not self.is_upper_triangular():
            raise ValueError("inverse_upper requires an upper-triangular matrix")
        n = self.n
        diag = [(g, i, x[i, i]) for g, x in self.entries.items() for i in range(n) if (i, i) in x]
        if sorted(i for _, i, _ in diag) != list(range(n)) or any(abs(v) != 1 for *_, v in diag):
            raise ValueError("inverse_upper requires +-monomials on the diagonal")
        d, d_inv = {}, {}
        for (m, l), i, v in diag:
            d.setdefault((m, l), {})[i, i] = v
            d_inv.setdefault((-m, -l), {})[i, i] = v
        d, d_inv = RepMatrix(n, d), RepMatrix(n, d_inv)
        x = -(d_inv * (self - d))
        inv = RepMatrix.identity(n)
        while not x.is_zero():
            inv = inv + inv * x
            x = x * x
        return inv * d_inv

    def evaluate(self, a, c):
        """Entries at (a, c) as a list of rows; exact for Fraction a, c."""
        out = [[0] * self.n for _ in range(self.n)]
        for (m, n), x in self.entries.items():
            scale = a ** m * c ** n
            for (i, j), v in x.items():
                out[i][j] += v * scale
        return out

    def __repr__(self):
        if self.n == 1:
            return laurent_str({g: x[0, 0] for g, x in self.entries.items()})
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
    return RepMatrix(n, {(0, 0): {(i, j): 1}})


# ---------------------------------------------------------------------------
# Base matrices and the representation.


def base_matrices(k: int) -> Tuple[RepMatrix, RepMatrix, RepMatrix]:
    """(A, B, C) = (diag(a, 1, ..., 1), I + N, diag(1, ..., 1, c)) of size k + 1."""
    if not 1 <= k <= DEFAULT_K_MAX:
        raise LevelRangeError(f"level k={k} outside 1..{DEFAULT_K_MAX}")
    n = k + 1
    ident = RepMatrix.identity(n)
    jordan = RepMatrix(n, {(0, 0): {(i, i + 1): 1 for i in range(k)}})
    return (ident + _unit(n, 0, 0) * (A_PARAM - 1),
            ident + jordan,
            ident + _unit(n, k, k) * (C_PARAM - 1))


class Representation:
    """rho_k with cached generator images and their inverses."""

    def __init__(self, k: int):
        A, B, C = base_matrices(k)
        self.k = k
        self.n = k + 1
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


def _attempt(compute):
    """(compute(), "") or (None, the error) when exact arithmetic fails on
    an image with no exact inverse.  A failing level gives red records."""
    try:
        return compute(), ""
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _mismatch(image: Optional[RepMatrix], expected: RepMatrix, error: str) -> str:
    """Claim of a red row: the error that stopped it, or where image and
    expected differ."""
    return error or f"mismatch entries: {(image - expected).nonzero()[:4]}"


def verify_v_images(rec: Recorder, k: int,
                    rep: Representation | None = None) -> Tuple[Optional[RepMatrix], str]:
    """Check rho_k(v_i) = I for i != k+2 and the corner form at i = k+2.

    By convention v_1 = D maps to the identity; i runs over 2..k+4.  Adds
    one record per row to rec, its id repr.k<k>.<the row's name> and its
    claim what the row found.  Returns rho_k(v_{k+2}) from the chain and "",
    or None and the error that stopped the chain before it.
    """
    rep = rep or Representation(k)
    ident = RepMatrix.identity(rep.n)
    corner = ident + expected_v_corner_matrix(k)
    chain = _v_chain(rep)  # walked once for every i
    error = ""  # once a step fails, every later row is red with its error
    for i in range(2, k + 5):
        img = None
        if not error:
            img, error = _attempt(lambda: next(chain))
        expected = corner if i == k + 2 else ident
        ok = img == expected
        detail = "identity" if ok else _mismatch(img, expected, error)
        if i == k + 2:
            corner_image, corner_error = img, error
            zero = img == ident
            rec.add_bool(f"repr.k{k}.rho_{k}(v_{i}) = I + corner",
                         detail if not ok else "corner is zero" if zero else "corner nonzero",
                         ok and not zero)
            if ok:
                detail = f"corner = {expected_corner_scalar()!r} at (1, {rep.n})"
        rec.add_bool(f"repr.k{k}.rho_{k}(v_{i})", detail, ok)
    # word-path cross-check at the distinguished index
    word_image, error = _attempt(lambda: rep(v_k(k + 2)))
    ok = word_image == corner
    rec.add_bool(f"repr.k{k}.rho_{k}(v_{k+2}) via word product",
                 "matrix recursion agrees with the word image" if ok
                 else _mismatch(word_image, corner, error), ok)
    ok = expected_corner_scalar() == alternate_corner_scalar() * A_PARAM
    rec.add_bool(f"repr.k{k}.corner scalar relation at k={k}",
                 "(1/c-1)(1-a) = a * (1/c-1)(1/a-1)", ok)
    return corner_image, corner_error


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


def _corner_exponent(s: RepMatrix, axis: int) -> Optional[int]:
    """m when the corner entry (0, 0) of s is a^m (axis 0), n when the
    corner (k, k) is c^n (axis 1), else None."""
    i = axis * (s.n - 1)
    p = s.entry(i, i).entries
    if len(p) != 1:
        return None
    (mn, coeff), = p.items()
    return mn[axis] if coeff[0, 0] == 1 and mn[1 - axis] == 0 else None


def depth_certificate(rec: Recorder, k: int, rep: Representation | None = None) -> None:
    """Certificate that rho_k separates v_{k+2} from K = [orbit, group].

    The v-image table shows that rho_k kills every v_i except v_{k+2}, which
    goes to N = I + kappa E_1n with kappa = expected_corner_scalar().  The
    corner lemma: if column 1 of an invertible S is a^m e_1 and its last row
    is c^n e_n^T, then S e_1 = a^m e_1 and e_n^T S^-1 = c^-n e_n^T, so
    S E_1n S^-1 = (S e_1)(e_n^T S^-1) = a^m c^-n E_1n, and as E_1n^2 = 0,
    [S, N] = I + kappa (a^m c^-n - 1) E_1n.  Upper-triangular S with
    diagonal (a^m, 1, ..., 1, c^n) have that column and row and form a
    group on which (m, n) is additive.  So once the generator images have
    this shape (item 1) and (m, n) are their exponent sums (item 2, which
    reads column 1 and the last row and multiplies no matrices), rho_k(K)
    lies in the abelian group I + kappa aug E_1n, where aug is the kernel of
    evaluation at (a, c) = (1, 1); conjugation keeps it there.  rho_k(v_{k+2}) has
    corner kappa * 1 with kappa != 0 and 1 not in aug, so v_{k+2} is not in
    K (item 3).  Adds to rec the v-image table's records, then items 1-3,
    all repr.k<k>.*, then the verdict repr.k<k>.certificate, whose params
    name the ids of those items and of the ones that failed, and the sum of
    their runtimes.  A failing level gives red records, never an exception.
    """
    start = len(rec.records)
    rep = rep or Representation(k)
    corner_image, corner_error = verify_v_images(rec, k, rep)
    last = rep.n - 1
    corners = {g: (_corner_exponent(s, 0), _corner_exponent(s, 1)) for g, s in rep.images.items()}

    bad = [RHO_NAMES[g] for g, s in rep.images.items()
           if not (s.is_upper_triangular() and None not in corners[g]
                   and all(x == 1 for x in s.diagonal()[1:-1]))]
    rec.add_bool(
        f"repr.k{k}.generator images in the corner-lemma group",
        f"not upper triangular with diagonal (a^m, 1, ..., 1, c^n): {bad}" if bad
        else "every generator image is upper triangular with diagonal (a^m, 1, ..., 1, c^n)",
        not bad)

    # column 0 and row k hold only their corners a^m and c^n
    bad = [RHO_NAMES[g] for g, s in rep.images.items()
           if [(i, j) for i, j in s.nonzero() if j == 0 or i == last] != [(0, 0), (last, last)]
           or corners[g] != exponent_sums_rho(rho_to_delta_alphabet(Word.gen(g)))]
    rec.add_bool(
        f"repr.k{k}.corner lemma on the generator images",
        f"column 1 is not a^m e_1 or the last row is not c^n e_n^T, (m, n) the exponent sums: {bad}"
        if bad else "[S, N] = I + kappa (a^m c^-n - 1) E_1n, (m, n) the exponent sums",
        not bad)

    conditions = {
        f"rho(v_{k + 2}) has corner kappa * 1":
            corner_image == RepMatrix.identity(rep.n) + expected_v_corner_matrix(k),
        "kappa != 0": not expected_corner_scalar().is_zero(),
    }
    failed = [name for name, ok in conditions.items() if not ok]
    # Facts, not checks: each commutator corner's factor a^m c^-n - 1 is 0
    # at (1, 1) by construction, so it lies in aug; 1 is not in aug, since
    # evaluation at (1, 1) sends it to 1
    detail = ("; ".join(["commutator corners lie in kappa * aug", *conditions, "1 not in aug"])
              if not failed else "failed: " + "; ".join(failed))
    if corner_image is None:  # the chain raised before v_{k+2}
        detail += "; " + corner_error
    rec.add_bool(f"repr.k{k}.v_{k+2} outside K", detail, not failed)

    items = rec.records[start:]
    ok = all(r.passed for r in items)
    rec.add_bool(f"repr.k{k}.certificate", f"level-{k} separation certificate", ok,
                 params={"k": k, "items": [r.id for r in items],
                         "failed": [r.id for r in items if not r.passed],
                         "pass": ok, "runtime_ms": sum(r.runtime_ms for r in items)})
