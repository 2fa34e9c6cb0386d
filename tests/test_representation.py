import random
import time
from fractions import Fraction
from functools import reduce
from math import factorial

import numpy as np
import pytest

from orbitdepth.laurent import product
from orbitdepth.representation import (
    A_INV,
    A_PARAM,
    C_INV,
    C_PARAM,
    DEFAULT_K_MAX,
    LevelRangeError,
    RepMatrix,
    Representation,
    alternate_corner_scalar,
    base_matrices,
    commutator_matrix,
    commutator_scalar,
    corner_tensor,
    depth_certificate,
    expected_corner_scalar,
    expected_v_corner_matrix,
    rho,
    verify_v_images,
)
import orbitdepth.representation as representation
from orbitdepth.words import (
    D2, G, X_ELT, Z_ELT, RhoGen, commutator, random_word, v_k,
    exponent_sums_rho,
)

SEED = 20259

# The paper's 2^k x 2^k form, kept as an oracle.  Rows and columns are
# indexed by subsets of {1..k} as bit masks; the block recursion builds
# A_k, B_k, C_k from the 1 x 1 seeds a, 1, c.


def _block_upper(tl: RepMatrix, tr: RepMatrix, br: RepMatrix) -> RepMatrix:
    """[[tl, tr], [0, br]]."""
    n = tl.n
    out = {}
    for block, (r, c) in ((tl, (0, 0)), (tr, (0, n)), (br, (n, n))):
        for g, x in block.entries.items():
            out.setdefault(g, np.zeros((2 * n, 2 * n), dtype=np.int64))[r:r + n, c:c + n] = x
    return RepMatrix(2 * n, out)


def block_recursion(k: int):
    """A_{k+1} = diag(A_k, I), B_{k+1} = [[B_k, I], [0, B_k]], C_{k+1} = diag(I, C_k)."""
    A, B, C = A_PARAM, RepMatrix.identity(1), C_PARAM
    for _ in range(k):
        ident, zero = RepMatrix.identity(A.n), RepMatrix.zero(A.n)
        A, B, C = _block_upper(A, zero, ident), _block_upper(B, ident, B), _block_upper(ident, zero, C)
    return A, B, C


def oracle_v_images(k: int, i_max: int):
    """rho_k(v_2..v_{i_max}) in the 2^k form: d = C, d = [B, d], v_i = [A, d]."""
    A, B, d = block_recursion(k)
    out = []
    for _ in range(2, i_max + 1):
        out.append(commutator_matrix(A, d))
        d = commutator_matrix(B, d)
    return out


def phi(x: RepMatrix, k: int) -> RepMatrix:
    """Phi(X)(S, T) = (|T|-|S|)! X(|S|, |T|) for S a subset of T, else 0."""
    sets = np.arange(2 ** k)
    size = np.array([bin(s).count("1") for s in sets])
    rows, cols = size[:, None], size[None, :]
    subset = (sets[:, None] & sets[None, :]) == sets[:, None]
    weight = np.array([factorial(d) for d in range(k + 1)])[np.maximum(cols - rows, 0)] * subset
    return RepMatrix(2 ** k, {g: weight * y[rows, cols] for g, y in x.entries.items()})


# Tensor words: k-fold Kronecker products of 2x2 integer seeds, first factor
# outermost.  They give closed forms of the 2^k matrices, independent of
# both the block recursion and Phi.
_SEEDS = {
    "I2": np.eye(2, dtype=np.int64),
    "J2": np.array([[0, 1], [0, 0]], dtype=np.int64),
    "E2": np.array([[0, 0], [0, 1]], dtype=np.int64),
    "F2": np.array([[1, 0], [0, 0]], dtype=np.int64),
}


def _tensor(factors) -> RepMatrix:
    m = reduce(np.kron, (_SEEDS[f] for f in factors), np.ones((1, 1), dtype=np.int64))
    return RepMatrix(len(m), {(0, 0): m})


def base_matrices_closed_form(k: int):
    """A_k = I + (a-1) F2^x k, B_k = I + sum_j (J2 at j), C_k = I + (c-1) E2^x k."""
    ident = RepMatrix.identity(2 ** k)
    beta = RepMatrix.zero(2 ** k)
    for j in range(k):
        beta = beta + _tensor("J2" if i == j else "I2" for i in range(k))
    return (ident + _tensor(["F2"] * k) * (A_PARAM - 1),
            ident + beta,
            ident + _tensor(["E2"] * k) * (C_PARAM - 1))


def _e(n: int, i: int, j: int) -> RepMatrix:
    """E_ij in size n."""
    e = np.zeros((n, n), dtype=np.int64)
    e[i, j] = 1
    return RepMatrix(n, {(0, 0): e})


def test_laurent_ring():
    a, c = A_PARAM, C_PARAM
    one = RepMatrix.identity(1)
    assert (a - 1) * (a - 1) == a * a - 2 * a + 1
    assert a * A_INV == one
    assert (a * c).inverse_upper() == A_INV * C_INV
    p = (C_INV - 1) * (A_INV - 1)
    assert p.evaluate(Fraction(2), Fraction(3)) == [[Fraction(1, 3)]]
    with pytest.raises(ValueError):
        (a + c).inverse_upper()
    assert (-a).inverse_upper() == -A_INV
    with pytest.raises(ValueError):
        (2 * a).inverse_upper()
    assert repr((C_INV - 1) * (1 - a)) == "1*c^-1 + -1 + -1*a*c^-1 + 1*a"
    assert repr(a - a) == "0"


def _int_coefficients(m: RepMatrix) -> bool:
    return all(x.dtype == np.int64 for x in m.entries.values())


def test_integer_coefficients():
    for k in (1, 2, 3, 4):
        rep = Representation(k)
        assert all(_int_coefficients(m) for m in rep.inverses.values())
        assert _int_coefficients(rep.v_image(k + 2))


def test_base_matrices_small():
    A1, B1, C1 = base_matrices(1)
    assert A1.evaluate(Fraction(5), Fraction(7)) == [[5, 0], [0, 1]]
    assert B1.evaluate(Fraction(5), Fraction(7)) == [[1, 1], [0, 1]]
    assert C1.evaluate(Fraction(5), Fraction(7)) == [[1, 0], [0, 7]]
    A2, B2, C2 = base_matrices(2)
    assert [repr(p) for p in A2.diagonal()] == ["1*a", "1", "1"]
    assert B2.evaluate(Fraction(5), Fraction(7)) == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert [repr(p) for p in C2.diagonal()] == ["1", "1", "1*c"]
    with pytest.raises(LevelRangeError):
        base_matrices(0)
    with pytest.raises(LevelRangeError):
        base_matrices(DEFAULT_K_MAX + 1)


def test_closed_forms_match_recursion():
    # Phi carries the (k+1) form onto the tensor closed forms of the 2^k form
    for k in range(1, 7):
        assert tuple(phi(m, k) for m in base_matrices(k)) == base_matrices_closed_form(k)


def test_phi_maps_onto_the_block_recursion():
    for k in range(1, 6):
        assert tuple(phi(m, k) for m in base_matrices(k)) == block_recursion(k)
    for k in range(1, 5):
        rep = Representation(k)
        for i, oracle in enumerate(oracle_v_images(k, k + 4), start=2):
            assert phi(rep.v_image(i), k) == oracle, (k, i)
        # the (k+1) corner kappa E_{0,k} is the 2^k corner k! kappa E_1n
        kappa = expected_corner_scalar()
        assert phi(expected_v_corner_matrix(k), k) == _e(2 ** k, 0, 2 ** k - 1) * (factorial(k) * kappa)


def test_beta_nilpotency():
    # N = B - I is the Jordan block: N^k = E_{0,k}, N^{k+1} = 0
    for k in range(1, DEFAULT_K_MAX + 1):
        n = base_matrices(k)[1] - 1
        power = RepMatrix.identity(k + 1)
        for _ in range(k):
            power = power * n
        assert power == corner_tensor(k)
        assert power * n == RepMatrix.zero(k + 1)


def test_iterated_commutators():
    # d_l = [B, d_{l-1}] from d_0 = C is I - (1/c - 1) E_{k-l,k}
    for k in (1, 2, 3, 4):
        _, B, C = base_matrices(k)
        d = C
        for l in range(1, k + 1):
            d = commutator_matrix(B, d)
            assert d == RepMatrix.identity(k + 1) - _e(k + 1, k - l, k) * (C_INV - 1)


def test_rho_examples():
    m = rho(1, commutator(D2, Z_ELT))
    assert m.entry(0, 1) == 1 - C_INV  # -(1/c - 1)
    assert rho(2, G).is_identity()
    assert rho(2, D2 * D2.inverse()).is_identity()


def test_rho_homomorphism():
    rng = random.Random(SEED)
    for k in (1, 2, 3, 4):
        rep = Representation(k)
        for _ in range(25 if k < 4 else 10):
            u = random_word(rng, 10)
            v = random_word(rng, 10)
            assert rep(u * v) == rep(u) * rep(v)


def test_diagonal_structure():
    rng = random.Random(SEED + 1)
    rep = Representation(3)
    for _ in range(20):
        s = random_word(rng, 14)
        m, n = exponent_sums_rho(s)
        img = rep(s)
        assert img.is_upper_triangular()
        diag = img.diagonal()
        assert diag[0] == RepMatrix.monomial(m, 0)
        assert diag[-1] == RepMatrix.monomial(0, n)
        for d in diag[1:-1]:
            assert d == RepMatrix.identity(1)


def test_v_images():
    for k in (1, 2, 3, 4):
        report = verify_v_images(k)
        assert report.passed, report.first_failure()
        row = next(it for it in report.items if it.name == f"rho_{k}(v_{k + 2})")
        assert repr(expected_corner_scalar()) in row.detail
        assert row.detail.endswith(f"at (1, {k + 1})")
    # negative control: v_3 at level 2 is not the distinguished image
    rep = Representation(2)
    assert rep(v_k(3)) != RepMatrix.identity(3) + expected_v_corner_matrix(2)


def test_corner_scalar_value():
    # (1/c-1)(1-a), one scalar for every level, equal to a times the
    # (1/c-1)(1/a-1) normalization
    assert expected_corner_scalar() == alternate_corner_scalar() * A_PARAM
    assert expected_corner_scalar().evaluate(Fraction(2), Fraction(3)) == [[Fraction(2, 3)]]
    assert alternate_corner_scalar().evaluate(Fraction(2), Fraction(3)) == [[Fraction(1, 3)]]


def test_commutator_scalar():
    m, n, scalar = commutator_scalar(1, X_ELT)
    assert (m, n) == (1, 0)
    assert scalar == (A_PARAM - 1) * expected_corner_scalar()
    m, n, scalar = commutator_scalar(1, G)
    assert (m, n) == (0, 0) and scalar.is_zero()
    m, n, _ = commutator_scalar(2, Z_ELT.inverse() * X_ELT * X_ELT)
    assert (m, n) == (2, -1)


def test_evaluation_homomorphism():
    # Fraction arithmetic on the evaluated matrices is the oracle that is
    # independent of the graded int64 product.
    rng = random.Random(SEED + 2)
    a0 = Fraction(3, 2)
    c0 = Fraction(-5, 7)
    for k in (1, 2, 3, 4):
        rep = Representation(k)
        n = rep.n
        for _ in range(10):
            u = random_word(rng, 8)
            v = random_word(rng, 8)
            lhs = rep(u * v).evaluate(a0, c0)
            m1 = rep(u).evaluate(a0, c0)
            m2 = rep(v).evaluate(a0, c0)
            prod = [[sum(m1[i][l] * m2[l][j] for l in range(n)) for j in range(n)]
                    for i in range(n)]
            assert lhs == prod


def test_product_overflow_guard():
    big = np.array([[2 ** 31]], dtype=np.int64)
    assert product({(0, 0): big}, {(0, 0): big - 1})[0, 0] == 2 ** 62 - 2 ** 31
    with pytest.raises(OverflowError):
        product({(0, 0): big}, {(0, 0): big})
    with pytest.raises(OverflowError):  # the bound sums over monomial pairs
        product({(0, 0): big, (1, 0): big}, {(0, 0): big // 2 + 1})


def test_certificates():
    for k in (1, 2, 3):
        cert = depth_certificate(k)
        assert cert.passed
        assert len(cert.items) == k + 9
        d = cert.to_dict()
        assert d["k"] == k and d["pass"] and len(d["checks"]) == k + 9


def test_certificates_reach_k_7():
    start = time.perf_counter()
    for k in (6, 7, 8):
        cert = depth_certificate(k)
        assert cert.passed, [it for it in cert.items if not it.passed]
        assert len(cert.items) == k + 9
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"depth_certificate(6), (7) and (8) took {elapsed:.2f}s, budget 2s"


# Mutation tests: each feeds a wrong representation or constant and sees the
# certificate go red, with the item count unchanged and no exception.

LEMMA_SHAPE = "generator images in the corner-lemma group"
LEMMA = "corner lemma on the generator images"


def _mutant(k: int, gen: RhoGen, image: RepMatrix) -> Representation:
    rep = Representation(k)
    rep.images[gen] = image
    rep.inverses[gen] = image.inverse_upper()
    return rep


def _red(cert) -> set:
    assert len(cert.items) == cert.k + 9
    assert not cert.passed
    return {it.name for it in cert.items if not it.passed}


def test_certificate_mutant_b_drops_a_link():
    # B = I + N with the superdiagonal entry (j-1, j) dropped: N^k = 0, so
    # the chain never reaches the corner
    for k in (1, 2, 3):
        for j in range(1, k + 1):
            rep = _mutant(k, RhoGen.B2, Representation(k).B - _e(k + 1, j - 1, j))
            assert not verify_v_images(k, rep=rep).passed
            assert f"rho_{k}(v_{k+2})" in _red(depth_certificate(k, rep=rep))


def test_certificate_mutant_corner_scalar(monkeypatch):
    monkeypatch.setattr(representation, "expected_corner_scalar",
                        lambda: 2 * alternate_corner_scalar() * A_PARAM)
    cert = depth_certificate(2)
    assert "v_4 outside K" in _red(cert)
    # only the corner condition fails: kappa doubled is still nonzero
    detail = next(it.detail for it in cert.items if it.name == "v_4 outside K")
    assert detail == "failed: rho(v_4) has corner kappa * 1"


def test_certificate_mutant_middle_diagonal():
    A = Representation(2).A
    mutant = A + _e(3, 1, 1) * (C_PARAM - 1)  # entry (1, 1): 1 -> c
    assert mutant.entry(1, 1) == C_PARAM
    red = _red(depth_certificate(2, rep=_mutant(2, RhoGen.X, mutant)))
    assert LEMMA_SHAPE in red and LEMMA not in red


def test_certificate_mutant_diagonal_exponents():
    A = Representation(2).A
    red = _red(depth_certificate(2, rep=_mutant(2, RhoGen.X, A * A)))
    assert LEMMA in red and LEMMA_SHAPE not in red


def test_certificate_mutant_overflow():
    # x -> A + 2^40 E_12 keeps the lemma's shape and has the exact inverse
    # A^-1 - 2^40 a^-1 E_12, but products with it would wrap int64: the
    # guard turns the items red instead
    k = 2
    rep = Representation(k)
    image = rep.A + _e(3, 0, 1) * 2 ** 40
    inverse = rep.inverses[RhoGen.X] + _e(3, 0, 1) * RepMatrix.monomial(-1, 0, -2 ** 40)
    at = (Fraction(3, 2), Fraction(-5, 7))
    m1, m2 = image.evaluate(*at), inverse.evaluate(*at)
    assert [[sum(m1[i][l] * m2[l][j] for l in range(3)) for j in range(3)]
            for i in range(3)] == np.eye(3, dtype=int).tolist()
    rep.images[RhoGen.X], rep.inverses[RhoGen.X] = image, inverse
    cert = depth_certificate(k, rep=rep)
    red = _red(cert)
    assert LEMMA_SHAPE not in red
    for name in (LEMMA, f"rho_{k}(v_2)", f"rho_{k}(v_{k+2}) via word product",
                 f"v_{k+2} outside K"):
        assert name in red
        detail = next(it.detail for it in cert.items if it.name == name)
        assert "OverflowError" in detail, (name, detail)
    # the separation item names the condition the raising chain left unmet
    assert detail.startswith(f"failed: rho(v_{k+2}) has corner kappa * 1; OverflowError")
