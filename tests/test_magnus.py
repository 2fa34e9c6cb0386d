import itertools
import random

import numpy as np
import pytest
from sympy import divisors, mobius

from orbitdepth.magnus import (
    MONO_ONE,
    TruncatedSeries,
    bracket,
    depth_lower_bound,
    graded_triviality_check,
    in_span,
    leading_terms_agree_mod_orbit_ideal,
    lie_ideal_span,
    QUOTIENT_GENS,
    generator_vector,
    magnus,
    mono_append,
    mono_degree,
    mono_format,
    mono_letters,
    orbit_leading_ideal_span,
    project,
)
from orbitdepth.words import (
    D0, D1, D2, D3, G, Z_ELT,
    Endo, Gen, Word, commutator, d_k, mon0, v_k,
    var, var_iterate,
)
from support import random_word

SEED = 20259


def _terms(s):
    """Every term of a series, as {printed monomial: coefficient}."""
    return {mono_format(m): c for part in s.parts for m, c in part.items()}


def test_magnus_basics():
    s = magnus(D0, 2)
    assert _terms(s) == {"1": 1, "X[d0]": 1}
    s = magnus(D0.inverse(), 2)
    assert _terms(s) == {"1": 1, "X[d0]": -1, "X[d0]*X[d0]": 1}
    s = magnus(commutator(D2, D3), 2).drop_constant()
    assert _terms(s) == {"X[d2]*X[d3]": 1, "X[d3]*X[d2]": -1}


def _brute_magnus(w, N):
    """Expand the product of the letter images over letter tuples.

    g contributes 1 + X_g and g^-1 contributes sum_j (-X_g)^j; terms of total
    degree above N are dropped.
    """
    out = {(): 1}
    for g, e in w.letters:
        if e == 1:
            factor = {(): 1, (g,): 1}
        else:
            factor = {(g,) * j: (-1) ** j for j in range(N + 1)}
        nxt = {}
        for t1, c1 in out.items():
            for t2, c2 in factor.items():
                if len(t1) + len(t2) <= N:
                    nxt[t1 + t2] = nxt.get(t1 + t2, 0) + c1 * c2
        out = {t: c for t, c in nxt.items() if c}
    return out


def test_magnus_matches_brute_force_expansion():
    rng = random.Random(SEED)
    for _ in range(30):
        w = random_word(rng, 8)
        N = rng.randint(1, 5)
        s = magnus(w, N)
        assert s.degree == N
        assert all(mono_degree(m) == d for d, part in enumerate(s.parts) for m in part)
        flat = {mono_letters(m): c for part in s.parts for m, c in part.items()}
        assert flat == _brute_magnus(w, N)
        assert magnus(w.inverse(), N) * s == TruncatedSeries.one(N)


def test_unequal_truncations_keep_the_smaller_degree():
    diff = magnus(D0.inverse(), 2) - magnus(D1.inverse(), 5)
    assert diff.degree == 2
    assert all(mono_degree(m) <= 2 for part in diff.parts for m in part)
    assert diff == magnus(D0.inverse(), 2) - magnus(D1.inverse(), 2)
    assert (magnus(D1.inverse(), 2) - magnus(D1.inverse(), 5)).lowest_degree() is None
    assert magnus(D0, 2) * magnus(D1.inverse(), 5) == magnus(D0 * D1.inverse(), 2)


def test_multiplicativity():
    rng = random.Random(SEED)
    for _ in range(100):
        u = random_word(rng, 12)
        v = random_word(rng, 12)
        assert magnus(u * v, 6) == magnus(u, 6) * magnus(v, 6)
    assert magnus(Word.identity(), 4) == TruncatedSeries.one(4)


def _letter_series(g, e, N):
    """The image of g^e truncated at N, written out: 1 + X_g for g and
    sum_j (-X_g)^j for g^-1."""
    parts = [{MONO_ONE: 1}] + [{} for _ in range(N)]
    m = MONO_ONE
    for j in range(1, N + 1 if e == -1 else 2):
        m = mono_append(m, g)
        parts[j] = {m: e ** j}
    return TruncatedSeries(parts)


@pytest.mark.parametrize("degree", range(1, 9))
def test_letter_steps_match_the_product_of_letter_series(degree):
    # magnus applies each letter to one series in place, top degree down for
    # g and bottom up for g^-1; TruncatedSeries.__mul__ shares no code with it
    rng = random.Random(SEED + degree)
    for _ in range(6):
        w = random_word(rng, 40)
        expected = TruncatedSeries.one(degree)
        for g, e in w.letters:
            expected = expected * _letter_series(g, e, degree)
        assert magnus(w, degree) == expected


def test_depth_examples():
    assert depth_lower_bound(v_k(2), 3).depth == 2
    assert depth_lower_bound(v_k(5), 6).depth == 5
    rep = depth_lower_bound(Word.identity(), 4)
    assert rep.is_identity and rep.depth is None


def test_depth_table():
    for i in range(1, 7):
        assert depth_lower_bound(v_k(i), i).depth == i
    for i in range(1, 6):
        w = var_iterate(i)
        rep = depth_lower_bound(w, i)
        assert rep.depth == i  # >= i required; equality observed and frozen


def test_commutator_depth_superadditive():
    rng = random.Random(SEED)
    checked = 0
    while checked < 50:
        u = random_word(rng, 8)
        v = random_word(rng, 8)
        du = depth_lower_bound(u, 3).depth
        dv = depth_lower_bound(v, 3).depth
        if du is None or dv is None or du + dv > 6:
            continue
        c = commutator(u, v)
        rep = depth_lower_bound(c, du + dv)
        assert rep.is_identity or rep.depth is None or rep.depth >= du + dv
        checked += 1


def test_leading_terms_mod_orbit_ideal():
    for i in range(2, 6):
        u, v = var_iterate(i), v_k(i)
        # plain leading terms differ (the mod-K correction enters at the
        # same degree), the ideal-corrected comparison certifies equality
        assert depth_lower_bound(u, i).leading_part != depth_lower_bound(v, i).leading_part
        assert leading_terms_agree_mod_orbit_ideal(u, v, i)
    # negative control: v_2 against an unrelated commutator of the same depth
    assert not leading_terms_agree_mod_orbit_ideal(
        commutator(D2, D3), v_k(2), 2)


def test_variation_step_agreement():
    # one variation step from the clean v_i matches v_{i+1} through degree
    # 2i - 1 (the correction is a commutator of two depth-i elements)
    for i in (2, 3):
        diff = magnus(var(v_k(i)), 2 * i) - magnus(v_k(i + 1), 2 * i)
        assert diff.lowest_degree() == 2 * i


def test_graded_triviality():
    for i, w in [(2, v_k(2)), (3, d_k(3, Z_ELT)), (4, v_k(4)), (5, v_k(5))]:
        assert graded_triviality_check(w, mon0, i)
    for i, w in [(1, d_k(1, Z_ELT)), (2, v_k(2)), (3, d_k(3, Z_ELT))]:
        assert graded_triviality_check(w, mon0, i + 2)
    shift = Endo((G, D0, D1, D2, D1))
    assert not graded_triviality_check(D3, shift, 3)
    with pytest.raises(ValueError):
        graded_triviality_check(G * D1, mon0, 3)


def test_span_membership():
    x_g = generator_vector(Gen.G)
    span = lie_ideal_span([x_g], 2)
    assert in_span(span, bracket(generator_vector(Gen.D1), x_g))
    assert not in_span(span, bracket(generator_vector(Gen.D1),
                                     generator_vector(Gen.D2)))


def _witt(n: int, d: int) -> int:
    """Dimension of the degree-d part of the free Lie algebra on n letters."""
    return sum(mobius(e) * n ** (d // e) for e in divisors(d)) // d


def test_ideal_of_x_g_matches_witt():
    # the ideal of X_g is the kernel of the projection onto the free Lie
    # algebra on d0..d3, so its degree-d basis has W(5, d) - W(4, d) vectors
    sizes = [len(lie_ideal_span([generator_vector(Gen.G)], d)) for d in range(1, 6)]
    assert sizes == [_witt(5, d) - _witt(4, d) for d in range(1, 6)]
    assert sizes == [1, 4, 20, 90, 420]


def test_orbit_ideal_check_can_fail_and_reaches_degree_7():
    # lead(v_i) is not in the ideal built from X_g and lead(v_1..v_{i-1}),
    # so the agreement check is not vacuous at any degree
    for i in range(2, 8):
        lead = depth_lower_bound(v_k(i), i).leading_part
        assert not in_span(orbit_leading_ideal_span(i), project(lead))
        # v_i^2 has leading term 2 lead(v_i): off by lead(v_i) from var^i(g)
        assert not leading_terms_agree_mod_orbit_ideal(var_iterate(i), v_k(i) * v_k(i), i)
    for i in (6, 7):
        assert leading_terms_agree_mod_orbit_ideal(var_iterate(i), v_k(i), i)


def _five_letter_orbit_ideal(degree):
    """I_degree built in the free Lie algebra on all five letters (the oracle)."""
    seeds = [generator_vector(Gen.G)]
    seeds += [depth_lower_bound(v_k(j), j).leading_part for j in range(1, degree)]
    return lie_ideal_span(seeds, degree)


def _random_bracket(rng, d, leaves):
    """A random left-normed or nested bracket of degree d over `leaves`.

    `leaves` maps a degree to the homogeneous Lie elements of that degree
    that may stand at a leaf.
    """
    if d == 1 or (d in leaves and rng.random() < 0.3):
        return rng.choice(leaves[d])
    k = 1 if rng.random() < 0.5 else rng.randint(1, d - 1)
    return bracket(_random_bracket(rng, k, leaves), _random_bracket(rng, d - k, leaves))


def _add(p, q, c=1):
    out = dict(p)
    for m, v in q.items():
        out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def test_quotient_membership_matches_the_five_letter_ideal():
    # I_d = pi^-1(J_d) on Lie elements: membership decided over d0, d1, d2
    # equals membership in the ideal echeloned over all five letters
    rng = random.Random(SEED)
    leads = {j: depth_lower_bound(v_k(j), j).leading_part for j in range(1, 6)}
    letters = [generator_vector(g) for g in Gen]
    answers = []
    for d in range(2, 6):
        oracle, quotient = _five_letter_orbit_ideal(d), orbit_leading_ideal_span(d)
        # I_d is ker pi_d (dimension W(5, d) - W(3, d)) plus a lift of J_d
        assert len(oracle) == _witt(5, d) - _witt(3, d) + len(quotient)
        leaves = {1: letters + [leads[1]], **{j: [leads[j]] for j in range(2, d + 1)}}
        var_lead = depth_lower_bound(var_iterate(d), d).leading_part
        samples = [leads[d], var_lead, _add(var_lead, leads[d], -1), _add(var_lead, leads[d])]
        for _ in range(40):
            x = {}
            for _ in range(rng.randint(1, 3)):
                x = _add(x, _random_bracket(rng, d, leaves), rng.choice([-3, -2, -1, 1, 2, 3]))
            samples.append(x)
        for x in samples:
            answer = in_span(oracle, x)
            assert in_span(quotient, project(x)) == answer, (d, x)
            answers.append(answer)
    assert answers.count(True) >= 40 and answers.count(False) >= 40


def test_projection_is_onto_the_free_lie_algebra_on_three_letters():
    # pi sends the left-normed brackets of the five letters, which span the
    # degree-d part of the free Lie algebra, onto a space of dimension W(3, d)
    for d in range(1, 6):
        rows = []
        for word in itertools.product(range(len(Gen)), repeat=d):
            b = generator_vector(word[-1])
            for g in reversed(word[:-1]):
                b = bracket(generator_vector(g), b)
            rows.append(project(b))
        # the degree-d part of the ideal of degree-d seeds is their span
        assert len(lie_ideal_span(rows, d, QUOTIENT_GENS)) == _witt(3, d)
    assert [_witt(3, d) for d in range(1, 6)] == [3, 3, 8, 18, 48]


def test_unitriangular_matrix_oracle():
    """Independent depth oracle: random unitriangular integer images.

    A word of lower-central depth j maps into I + (strictly upper)^j, so the
    first nonzero superdiagonal of the image minus I is at least j; for
    random images it is exactly j generically.
    """
    rng = np.random.default_rng(SEED)
    n = 7
    images = {}
    for g in Gen:
        m = np.eye(n, dtype=object)
        for i in range(n - 1):
            m[i, i + 1] = int(rng.integers(-3, 4))
        images[g] = np.array(m, dtype=object)
        images[(g, -1)] = np.array(np.round(np.linalg.inv(m.astype(float))).astype(int),
                                   dtype=object)

    def image(word):
        out = np.eye(n, dtype=object)
        for g, e in word.letters:
            out = out @ (images[g] if e == 1 else images[(g, -1)])
        return out

    for i in range(1, 6):
        m = image(v_k(i)) - np.eye(n, dtype=object)
        lowest = next(
            (d for d in range(1, n)
             if any(m[r, r + d] != 0 for r in range(n - d))),
            None,
        )
        assert lowest is not None and lowest >= i
        assert lowest == i  # generic random images detect the exact level


def test_graded_triviality_full_table():
    # the saddle monodromy fixes the class of v_i and d_i(z) for i = 1..5
    # (deep words certified at truncation i, cheaper words at i+2)
    for i in range(1, 6):
        n = (i + 2) if i <= 3 else i
        assert graded_triviality_check(v_k(i), mon0, n)
        assert graded_triviality_check(d_k(i, Z_ELT), mon0, n)
