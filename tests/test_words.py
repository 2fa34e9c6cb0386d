import random

import pytest

import orbitdepth.words as words_module
from orbitdepth.cli import main
from orbitdepth.words import (
    D0, D1, D2, D3, DELTA, G, X_ELT, Z_ELT,
    Gen, Word, WordSyntaxError,
    commutator, d_k, format_rho_word, format_word,
    m_endo, mon0, mon0_inverse, mon1, mon1_inverse,
    parse_word, project_mod_gamma_subgroup,
    rewrite_to_rho_alphabet, rho_to_delta_alphabet, exponent_sums_rho,
    v_k, var, var_iterate, variation_mod_k_identities,
)
from support import abelianize, random_word

SEED = 20259


def words(n=100, max_len=40, gens=None):
    rng = random.Random(SEED)
    return [random_word(rng, max_len, gens) for _ in range(n)]


def test_reduction():
    assert Word(((Gen.D0, 1), (Gen.D0, -1))).is_identity()
    assert Word(((Gen.D1, 1), (Gen.D2, 1), (Gen.D2, -1), (Gen.D3, 1))) == D1 * D3
    w = D1 * D2 * D3.inverse()
    assert Word(w.letters) == w  # idempotent on reduced input


def test_group_axioms():
    assert commutator(D2, D3) == D2 * D3 * D2.inverse() * D3.inverse()
    for u in words(30):
        assert (u * u.inverse()).is_identity()
        assert commutator(u, u).is_identity()
    for u, v in zip(words(30), words(30, max_len=20)):
        assert len(u * v) <= len(u) + len(v)


def test_a_commutator_and_a_conjugate_are_reduced_once(monkeypatch):
    # _reduce sees each inverse once and then the whole product once, never
    # a partial product again: at most 3 (|u| + |v|) letters in all
    rng = random.Random(SEED)
    pairs = [(random_word(rng), random_word(rng)) for _ in range(200)]
    products = [(u * v * u.inverse() * v.inverse(), v * u * v.inverse()) for u, v in pairs]
    reduce, seen = words_module._reduce, []

    def counted(letters):
        letters = tuple(letters)
        seen.append(len(letters))
        return reduce(letters)

    monkeypatch.setattr(words_module, "_reduce", counted)
    for (u, v), (comm, conj) in zip(pairs, products):
        seen.clear()
        assert commutator(u, v) == comm
        assert sum(seen) <= 3 * (len(u) + len(v)), (u, v, seen)
        assert u.conjugate_by(v) == conj


def test_mon1_images():
    assert mon1(G) == G
    assert mon1(D2) == G * D2
    assert mon1(DELTA) == G * D0 * G * D1 * G * D2 * G * D3


def test_mon0_images():
    assert mon0(D1) == D0 * D1 * D0.inverse()
    assert mon0(G) == DELTA * G
    assert mon0(D0) == D0


def test_mon0_preserves_saddle_subgroup():
    for w in words(50, gens=[Gen.D0, Gen.D1, Gen.D2, Gen.D3]):
        assert Gen.G not in mon0(w).generators_used()


def test_m_endo_images():
    assert m_endo(D3) == D2 * D3 * D2.inverse()
    assert m_endo(X_ELT) == X_ELT
    assert m_endo(Z_ELT) == D2 * Z_ELT * D2.inverse()


def test_m_is_conjugate_of_mon0():
    c = D0 * D1
    for w in words(100):
        assert m_endo(w) == c.inverse() * mon0(w) * c


def test_automorphism_inverses():
    pairs = [(mon0, mon0_inverse), (mon1, mon1_inverse)]
    for f, finv in pairs:
        for g in Gen:
            assert finv(f.images[g]) == Word.gen(g)
        for w in words(100, max_len=30):
            assert finv(f(w)) == w
            assert f(finv(w)) == w


def test_var():
    assert var(G) == DELTA
    assert var(X_ELT).is_identity()
    # the exact second iterate, frozen from a hand reduction
    assert format_word(var_iterate(2)) == "d1^-1 d0 d1^2 d2^2 d3 d2^-1 d3^-1 d2^-1 d1^-1 d0^-1"


def test_d_k():
    assert d_k(1, Z_ELT) == Z_ELT
    assert d_k(2, Z_ELT) == commutator(D2, Z_ELT)
    assert d_k(3, Z_ELT) == commutator(D2, commutator(D2, Z_ELT))
    with pytest.raises(ValueError):
        d_k(0, Z_ELT)


def test_v_k():
    assert v_k(1) == DELTA
    assert v_k(2) == commutator(X_ELT, Z_ELT)
    assert v_k(3) == commutator(X_ELT, commutator(D2, Z_ELT))
    for i in range(2, 7):
        assert Gen.G not in v_k(i).generators_used()


def test_rho_alphabet():
    assert format_rho_word(rewrite_to_rho_alphabet(D1)) == "x d2^-1"
    assert format_rho_word(rewrite_to_rho_alphabet(v_k(2))) == "x z x^-1 z^-1"
    assert format_rho_word(rewrite_to_rho_alphabet(DELTA)) == "D"
    for w in words(100, max_len=30):
        assert rho_to_delta_alphabet(rewrite_to_rho_alphabet(w)) == w


def test_exponent_sums():
    assert exponent_sums_rho(X_ELT * Z_ELT.inverse()) == (1, -1)
    assert exponent_sums_rho(v_k(2)) == (0, 0)
    assert exponent_sums_rho(D1) == (1, 0)


def test_projection():
    assert project_mod_gamma_subgroup(mon1(D2)) == D2
    assert project_mod_gamma_subgroup(D0) == (D1 * D2 * D3).inverse()
    assert project_mod_gamma_subgroup(G).is_identity()
    assert project_mod_gamma_subgroup(DELTA).is_identity()
    for w in words(100):
        assert project_mod_gamma_subgroup(mon1(w)) == project_mod_gamma_subgroup(w)


def test_abelianize():
    assert abelianize(v_k(2)) == (0, 0, 0, 0, 0)
    assert abelianize(DELTA) == (0, 1, 1, 1, 1)
    w = G
    for i in range(1, 7):
        w = m_endo(w)
        expected = tuple(a + i * b for a, b in zip(abelianize(G), abelianize(DELTA)))
        assert abelianize(w) == expected
    for u, v in zip(words(30), words(30)):
        assert abelianize(commutator(u, v)) == (0, 0, 0, 0, 0)


def test_parser():
    assert parse_word("[x,z]") == v_k(2)
    assert parse_word("d0 d1 d2 d3") == DELTA
    assert parse_word("d1^-2") == D1.inverse() * D1.inverse()
    assert parse_word("d1'") == D1.inverse()
    assert parse_word("(d0 d1)^2") == D0 * D1 * D0 * D1
    for w in words(50):
        assert parse_word(format_word(w)) == w
    with pytest.raises(WordSyntaxError):
        parse_word("d5")
    with pytest.raises(WordSyntaxError):
        parse_word("[d1, d2")
    with pytest.raises(WordSyntaxError) as err:
        parse_word("d1 ??")
    assert err.value.position == 3


def test_power_is_the_repeated_product():
    rng = random.Random(SEED)
    for _ in range(300):
        w, n = random_word(rng, 12), rng.randint(-6, 6)
        base = w if n > 0 else w.inverse()
        product = Word.identity()
        for _ in range(abs(n)):
            product = product * base
        assert w ** n == product, (w, n)


def test_parser_refuses_a_word_too_long_to_expand():
    assert len(parse_word("d1^262144")) == 1 << 18  # the cap itself still parses
    # forty nested commutators of 122 characters would expand to 2^41 letters
    nested = "[" * 40 + "d1" + ",d2]" * 40
    for text in ("d1^262145", "d1^-262145", "(d1 d2)^131073", "d1^1000000000",
                 "d1^262144 d1", nested):
        with pytest.raises(WordSyntaxError, match="too large"):
            parse_word(text)


def test_a_word_nested_too_deep_is_a_usage_error(capsys):
    # a thousand parentheses outrun the recursion limit: an error line and
    # exit code 2, as for any other malformed word, not a traceback
    assert main(["orbit", "project", "--word", "(" * 1000 + "d0" + ")" * 1000]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: nesting too deep (at position")


def test_the_variation_builds_no_endomorphism(monkeypatch):
    # mon0, mon1, their inverses and M are values built once at import
    built, init = [], words_module.Endo.__init__

    def counted(self, images):
        built.append(images)
        init(self, images)

    monkeypatch.setattr(words_module.Endo, "__init__", counted)
    var_iterate(5)
    variation_mod_k_identities(5)
    assert built == []


def test_variation_mod_k_identities():
    for ident in variation_mod_k_identities(5):
        assert ident.holds(), ident.name
