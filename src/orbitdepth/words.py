"""Free-group word algebra for the fundamental group of a fiber of
F(x, y) = (x^2 - 1)(y^2 - 1).

The group is free of rank 5 on the loop ``g`` (the real oval, written
``gamma`` in prose) and the four saddle loops ``d0..d3`` vanishing at
(-1,-1), (1,-1), (1,1), (-1,1).  Words are immutable, stored reduced, and
compared structurally, so every group identity is an equality test.

Distinguished composite elements::

    D = d0 d1 d2 d3        (written ``delta``)
    x = d1 d2
    z = d2 d3

and the monodromy machinery built on them: the automorphisms ``mon0``,
``mon1`` around the atypical values 0 and 1, their inverses and the
conjugated operator ``m_endo`` (M = (d0 d1)^-1 Mon0(.) (d0 d1)), each an
``Endo`` value built once at import and applied as ``mon0(w)``; the
variation ``var`` with var(g) = D by convention, the nested commutators
``d_k`` and the orbit elements ``v_k = [x, d_{k-1}(z)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Tuple


class Gen(IntEnum):
    """The five free generators, in the fixed printing order."""

    G = 0
    D0 = 1
    D1 = 2
    D2 = 3
    D3 = 4


GEN_NAMES = {Gen.G: "g", Gen.D0: "d0", Gen.D1: "d1", Gen.D2: "d2", Gen.D3: "d3"}

Letter = Tuple[int, int]  # (generator, exponent +1/-1)


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


class Word:
    """A reduced word in the free group; immutable and hashable."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = _reduce(letters)
        self._hash = hash(self.letters)

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def gen(g: int, e: int = 1) -> "Word":
        return Word(((g, e),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))  # _reduce cancels across the joins

    def conjugate_by(self, c: "Word") -> "Word":
        """c * self * c^-1, reduced once."""
        return Word(c.letters + self.letters + c.inverse().letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def generators_used(self) -> set:
        return {g for g, _ in self.letters}

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


_IDENTITY = Word()

# Named elements.
G = Word.gen(Gen.G)
D0 = Word.gen(Gen.D0)
D1 = Word.gen(Gen.D1)
D2 = Word.gen(Gen.D2)
D3 = Word.gen(Gen.D3)
DELTA = D0 * D1 * D2 * D3
X_ELT = D1 * D2
Z_ELT = D2 * D3


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1 (so [d2, d3] d3 reduces to d2 d3 d2^-1), reduced once."""
    return Word(u.letters + v.letters + u.inverse().letters + v.inverse().letters)


@dataclass(frozen=True)
class Endo:
    """Endomorphism of the free group given by generator images."""

    images: Tuple[Word, Word, Word, Word, Word]

    def __call__(self, w: Word) -> Word:
        parts: list[Letter] = []
        for g, e in w.letters:
            img = self.images[g]
            if e == 1:
                parts.extend(img.letters)
            else:
                parts.extend(img.inverse().letters)
        return Word(parts)

    def compose(self, other: "Endo") -> "Endo":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return Endo(tuple(self(img) for img in other.images))


# Monodromy around the center value 1: g -> g, d_i -> g d_i.
mon1 = Endo((G, G * D0, G * D1, G * D2, G * D3))

# Monodromy around the saddle value 0: g -> D g, d0 -> d0, d1 -> d0 d1 d0^-1,
# d2 -> d0 d1 d2 d1^-1 d0^-1, d3 -> d0 d1 d2 d3 d2^-1 d1^-1 d0^-1.
mon0 = Endo((
    DELTA * G, D0, D1.conjugate_by(D0), D2.conjugate_by(D0 * D1),
    D3.conjugate_by(D0 * D1 * D2)))

# Inverse of mon1: g -> g, d_i -> g^-1 d_i.
mon1_inverse = Endo((
    G, G.inverse() * D0, G.inverse() * D1, G.inverse() * D2, G.inverse() * D3))

# Explicit inverse of mon0 (checked on the generators by the orbit suite).
mon0_inverse = Endo((
    (D3 * D2 * D1 * D0).inverse() * G,
    D0,
    D1.conjugate_by(D0.inverse()),
    D2.conjugate_by(D0.inverse() * D1.inverse()),
    D3.conjugate_by(D0.inverse() * D1.inverse() * D2.inverse())))

# M = (d0 d1)^-1 Mon0(.) (d0 d1).  Generator images reduce to
# d0 -> d1^-1 d0 d1, d1 -> d1, d2 -> d2, d3 -> [d2, d3] d3 = d2 d3 d2^-1,
# and g -> z g d0 d1.
m_endo = Endo(tuple(mon0(s).conjugate_by((D0 * D1).inverse()) for s in (G, D0, D1, D2, D3)))


def var(w: Word) -> Word:
    """Variation: var(g) = D by convention, otherwise M(w) w^-1."""
    if w == G:
        return DELTA
    return m_endo(w) * w.inverse()


def var_iterate(i: int) -> Word:
    """var^i(g): i-fold iterate starting from the oval generator."""
    if i < 0:
        raise ValueError("iterate count must be >= 0")
    w = G
    for _ in range(i):
        w = var(w)
    return w


def d_k(k: int, w: Word) -> Word:
    """Nested commutator d_1 = id, d_{k+1}(w) = [d2, d_k(w)]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = w
    for _ in range(k - 1):
        out = commutator(D2, out)
    return out


def v_k(k: int) -> Word:
    """Orbit elements: v_1 = D, v_k = [x, d_{k-1}(z)] for k >= 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return DELTA
    return commutator(X_ELT, d_k(k - 1, Z_ELT))


# ---------------------------------------------------------------------------
# The rho alphabet {g, D, x, d2, z}: the alternative free basis on which the
# Laurent matrix representations are defined.

class RhoGen(IntEnum):
    G = 0
    DELTA = 1
    X = 2
    B2 = 3  # d2 in the new basis
    Z = 4


RHO_NAMES = {
    RhoGen.G: "g",
    RhoGen.DELTA: "D",
    RhoGen.X: "x",
    RhoGen.B2: "d2",
    RhoGen.Z: "z",
}

_RG, _RD, _RX, _RD2, _RZ = (Word.gen(r) for r in RhoGen)

# Rewrite a word in the basis (g, D, x, d2, z) and reduce there:
# d1 = x d2^-1, d3 = d2^-1 z, d0 = D z^-1 d2 x^-1 (from D = d0 d1 d2 d3).
rewrite_to_rho_alphabet = Endo((
    _RG, _RD * _RZ.inverse() * _RD2 * _RX.inverse(), _RX * _RD2.inverse(), _RD2,
    _RD2.inverse() * _RZ))

# Back-substitution from the rho alphabet; inverse of the rewrite.
rho_to_delta_alphabet = Endo((G, DELTA, X_ELT, D2, Z_ELT))


def exponent_sums_rho(w: Word):
    """Exponent sums (m, n) of x and z in the rho-alphabet form of w."""
    rw = rewrite_to_rho_alphabet(w)
    m = sum(e for g, e in rw.letters if g == RhoGen.X)
    n = sum(e for g, e in rw.letters if g == RhoGen.Z)
    return m, n


# Image of a word in the quotient by the normal closure of g and D.  The
# quotient is free on d1, d2, d3; the induced map sends g and D to the
# identity and d0 to d3^-1 d2^-1 d1^-1.
project_mod_gamma_subgroup = Endo((Word.identity(), (D1 * D2 * D3).inverse(), D1, D2, D3))


# ---------------------------------------------------------------------------
# Parsing and printing.

_ALIASES = {"g": G, "d0": D0, "d1": D1, "d2": D2, "d3": D3, "x": X_ELT, "z": Z_ELT, "D": DELTA}


# A power, commutator or product is refused before it is built when its
# expansion would exceed _MAX_WORD_LETTERS letters: d1^1000000000, or forty
# nested commutators, would fill memory.
_MAX_WORD_LETTERS = 1 << 18


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise WordSyntaxError(message, self.pos)

    def check_size(self, letters: int, what: str):
        if letters > _MAX_WORD_LETTERS:
            self.error(f"{what} too large")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stop_chars: str = "") -> Word:
        letters = []  # reduced once at the end, so a long product stays linear
        first = True
        while True:
            ch = self.peek()
            if not ch or ch in stop_chars:
                break
            letters.extend(self.parse_term().letters)
            self.check_size(len(letters), "word")
            first = False
        if first:
            self.error("empty word")
        return Word(letters)

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        ch = self.text[self.pos] if self.pos < len(self.text) else ""
        if ch == "'":
            self.pos += 1
            return atom.inverse()
        if ch == "^":
            self.pos += 1
            n = self.parse_int()
            self.check_size(abs(n) * len(atom), f"power {n}")
            return atom ** n
        return atom

    def parse_int(self) -> int:
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            self.error("expected integer exponent")
        return int(self.text[start:self.pos])

    def parse_atom(self) -> Word:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            w = self.parse_word(stop_chars=")")
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return w
        if ch == "[":
            self.pos += 1
            u = self.parse_word(stop_chars=",")
            if self.peek() != ",":
                self.error("expected ',' in commutator")
            self.pos += 1
            v = self.parse_word(stop_chars="]")
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            self.check_size(2 * (len(u) + len(v)), "commutator")
            return commutator(u, v)
        return self.parse_letter()

    def parse_letter(self) -> Word:
        self.skip_ws()
        for name, w in _ALIASES.items():  # no name is a prefix of another
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return w
        if self.text.startswith("1", self.pos):  # identity literal
            self.pos += 1
            return Word.identity()
        self.error("unknown letter")


def parse_word(text: str) -> Word:
    """Parse the word grammar; aliases x, z, D expand to their definitions.
    A power, commutator or product whose expansion would exceed
    _MAX_WORD_LETTERS letters, and nesting deeper than the interpreter's
    recursion limit, raise WordSyntaxError."""
    p = _Parser(text)
    try:
        w = p.parse_word()
    except RecursionError:
        raise WordSyntaxError("nesting too deep", p.pos) from None
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return w


def _format(w: Word, names: dict) -> str:
    if w.is_identity():
        return "1"
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        g, e = letters[i]
        j = i
        while j + 1 < len(letters) and letters[j + 1] == (g, e):
            j += 1
        count = (j - i + 1) * e
        name = names[g]
        parts.append(name if count == 1 else f"{name}^{count}")
        i = j + 1
    return " ".join(parts)


def format_word(w: Word) -> str:
    return _format(w, GEN_NAMES)


def format_rho_word(w: Word) -> str:
    return _format(w, RHO_NAMES)


# ---------------------------------------------------------------------------
# Exact identities behind "var^i(g) equals v_i modulo K".
#
# K is the normal subgroup generated by commutators of the monodromy orbit
# with the whole group, so any commutator with one argument among
# {D = v_1, v_2, ...} (or a conjugate or M-image of such) lies in K.  The
# identities below are exact word equalities whose correction factors are
# all of that shape; chaining them gives the mod-K statement.

@dataclass(frozen=True)
class ExactIdentity:
    name: str
    lhs: Word
    rhs: Word
    k_factors: Tuple[str, ...]  # human-readable description of each K-factor

    def holds(self) -> bool:
        return self.lhs == self.rhs


def variation_mod_k_identities(i_max: int = 5) -> list[ExactIdentity]:
    """Exact word identities reducing var^i(g) to v_i times K-factors.

    * D = (d1 d2 d3 d0) [d0^-1, D^-1]
    * M(d1 d2 d3 d0) D^-1 = [x,z] [z,D] = v_2 [z, v_1]
    * var^2(g) = (M(d1 d2 d3 d0) D^-1) (D M([d0^-1, D^-1]) D^-1)
    * d_k([d2,z] z) = d_{k+1}(z) d_k(z)
    * M(v_k) v_k^-1 = v_{k+1} [d_k(z), v_k]   (k >= 2)
    """
    rep = D1 * D2 * D3 * D0
    c1 = commutator(D0.inverse(), DELTA.inverse())
    out = [
        ExactIdentity(
            "delta_representative",
            DELTA,
            rep * c1,
            ("[d0^-1, v1^-1]",),
        ),
        ExactIdentity(
            "second_variation_of_representative",
            m_endo(rep) * DELTA.inverse(),
            v_k(2) * commutator(Z_ELT, DELTA),
            ("[z, v1]",),
        ),
        ExactIdentity(
            "second_variation_exact",
            var_iterate(2),
            (m_endo(rep) * DELTA.inverse()) * (m_endo(c1).conjugate_by(DELTA)),
            ("[z, v1]", "conj_D(M([d0^-1, v1^-1]))"),
        ),
    ]
    for k in range(1, i_max + 1):
        out.append(
            ExactIdentity(
                f"d_{k}_of_twisted_z",
                d_k(k, commutator(D2, Z_ELT) * Z_ELT),
                d_k(k + 1, Z_ELT) * d_k(k, Z_ELT),
                (),
            )
        )
    for k in range(2, i_max + 1):
        out.append(
            ExactIdentity(
                f"variation_step_{k}",
                var(v_k(k)),
                v_k(k + 1) * commutator(d_k(k, Z_ELT), v_k(k)),
                (f"[d_{k}(z), v{k}]",),
            )
        )
    return out
