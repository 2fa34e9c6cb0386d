import random
from fractions import Fraction
from math import factorial

import pytest

from orbitdepth.laurent import A_INV, A_PARAM, C_INV, C_PARAM, LaurentPoly2
from orbitdepth.representation import (
    DEFAULT_K_MAX,
    LevelRangeError,
    RepMatrix,
    Representation,
    alternate_corner_scalar,
    base_matrices,
    base_matrices_closed_form,
    beta_matrix,
    commutator_matrix,
    commutator_scalar,
    corner_tensor,
    depth_certificate,
    epsilon_bracket,
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


def test_laurent_ring():
    a, c = A_PARAM, C_PARAM
    one = LaurentPoly2.one()
    assert (a - 1) * (a - 1) == a * a - 2 * a + 1
    assert a * A_INV == one
    assert (a * c).unit_inverse() == A_INV * C_INV
    p = (C_INV - 1) * (A_INV - 1)
    assert p.evaluate(Fraction(2), Fraction(3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        (a + c).unit_inverse()
    assert (-a).unit_inverse() == -A_INV
    with pytest.raises(ValueError):
        (2 * a).unit_inverse()


def _int_coefficients(m: RepMatrix) -> bool:
    return all(type(coeff) is int
               for p in m.entries.values() for coeff in p.terms.values())


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
    _, _, C2 = base_matrices(2)
    assert [repr(p) for p in C2.diagonal()] == ["1", "1", "1", "1*c"]
    with pytest.raises(LevelRangeError):
        base_matrices(0)
    with pytest.raises(LevelRangeError):
        base_matrices(DEFAULT_K_MAX + 1)


def test_closed_forms_match_recursion():
    for k in range(1, 7):
        assert base_matrices(k) == base_matrices_closed_form(k)


def test_beta_nilpotency():
    for k in range(1, 7):
        b = beta_matrix(k)
        power = RepMatrix.identity(2 ** k)
        for _ in range(k):
            power = power * b
        assert power == corner_tensor(k).scale(factorial(k))
        assert (power * b) == RepMatrix.zero(2 ** k)


def test_iterated_commutators():
    for k in (1, 2, 3, 4):
        _, B, C = base_matrices(k)
        d = C
        for l in range(1, k + 1):
            d = commutator_matrix(B, d)
            expected = RepMatrix.identity(2 ** k) - epsilon_bracket(k, l).scale(C_INV - 1)
            assert d == expected


def test_rho_examples():
    m = rho(1, commutator(D2, Z_ELT))
    assert m.entries[(0, 1)] == LaurentPoly2.one() - C_INV  # -(1/c - 1)
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
        assert diag[0] == LaurentPoly2.monomial(m, 0)
        assert diag[-1] == LaurentPoly2.monomial(0, n)
        for d in diag[1:-1]:
            assert d == LaurentPoly2.one()


def test_v_images():
    for k in (1, 2, 3, 4):
        report = verify_v_images(k)
        assert report.passed, report.first_failure()
    # negative control: v_3 at level 2 is not the distinguished image
    rep = Representation(2)
    assert rep(v_k(3)) != RepMatrix.identity(4) + expected_v_corner_matrix(2)


def test_corner_scalar_value():
    # k!(1/c-1)(1-a), equal to a times the (1/c-1)(1/a-1) k! normalization
    for k in (1, 2, 3):
        assert expected_corner_scalar(k) == alternate_corner_scalar(k) * A_PARAM
    assert expected_corner_scalar(3).evaluate(Fraction(2), Fraction(3)) == 4
    assert alternate_corner_scalar(3).evaluate(Fraction(2), Fraction(3)) == 2


def test_commutator_scalar():
    m, n, scalar = commutator_scalar(1, X_ELT)
    assert (m, n) == (1, 0)
    assert scalar == (A_PARAM - 1) * expected_corner_scalar(1)
    m, n, scalar = commutator_scalar(1, G)
    assert (m, n) == (0, 0) and scalar.is_zero()
    m, n, _ = commutator_scalar(2, Z_ELT.inverse() * X_ELT * X_ELT)
    assert (m, n) == (2, -1)


def test_evaluation_homomorphism():
    rng = random.Random(SEED + 2)
    rep = Representation(2)
    a0 = Fraction(3, 2)
    c0 = Fraction(-5, 7)
    for _ in range(10):
        u = random_word(rng, 8)
        v = random_word(rng, 8)
        lhs = rep(u * v).evaluate(a0, c0)
        m1 = rep(u).evaluate(a0, c0)
        m2 = rep(v).evaluate(a0, c0)
        prod = [[sum(m1[i][k] * m2[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        assert lhs == prod


def test_certificates():
    for k in (1, 2, 3):
        cert = depth_certificate(k)
        assert cert.passed
        assert len(cert.items) == k + 9
        d = cert.to_dict()
        assert d["k"] == k and d["pass"] and len(d["checks"]) == k + 9


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


def test_certificate_mutant_b_drops_a_j2_term():
    for k in (1, 2, 3):
        for j in range(1, k + 1):
            beta = RepMatrix.zero(2 ** k)
            for i in range(1, k + 1):
                if i != j:
                    beta = beta + representation.b_tensor(k, (i,)).matrix()
            rep = _mutant(k, RhoGen.B2, RepMatrix.identity(2 ** k) + beta)
            assert not verify_v_images(k, rep=rep).passed
            assert f"rho_{k}(v_{k+2})" in _red(depth_certificate(k, rep=rep))


def test_certificate_mutant_corner_scalar(monkeypatch):
    monkeypatch.setattr(representation, "expected_corner_scalar",
                        lambda k: 2 * alternate_corner_scalar(k) * A_PARAM)
    assert "v_4 outside K" in _red(depth_certificate(2))


def test_certificate_mutant_middle_diagonal():
    A = Representation(2).A
    entries = dict(A.entries)
    entries[(1, 1)] = C_PARAM
    red = _red(depth_certificate(2, rep=_mutant(2, RhoGen.X, RepMatrix(4, entries))))
    assert LEMMA_SHAPE in red and LEMMA not in red


def test_certificate_mutant_diagonal_exponents():
    A = Representation(2).A
    red = _red(depth_certificate(2, rep=_mutant(2, RhoGen.X, A * A)))
    assert LEMMA in red and LEMMA_SHAPE not in red
