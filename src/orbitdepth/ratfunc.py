"""Exact univariate rational functions in t over the rationals.

A polynomial of ZZ[t] is a tuple of Python ints, constant term first, with
no trailing zero; the zero polynomial is the empty tuple.  A `RatFunc` is a
numerator and a denominator of ZZ[t] in canonical form: they are coprime
(integer content included), so a fraction constant such as 1/2 is the
numerator 1 over the denominator 2, and the denominator has a positive
leading coefficient.  Equality is then structural and every operation stays
exact.  Each result is cancelled once, by a primitive-PRS gcd (Knuth, TAOCP
vol. 2, sec. 4.6.1).  An antiderivative is one numerator over gcd(D, D'),
solved for from the top degree down (`rational_antiderivative`); that
numerator is the one polynomial here with `Fraction` coefficients.  Used for
the Melnikov coefficients a_i(t), the beta periods and the Wronskian
hierarchy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# ---------------------------------------------------------------------------
# Polynomials: tuples of coefficients, constant term first, no trailing zero.


def _trim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, x in enumerate(b):
        c[i] += x
    return _trim(c)


def _pneg(a: tuple) -> tuple:
    return tuple([-x for x in a])


def _psub(a: tuple, b: tuple) -> tuple:
    return _padd(a, _pneg(b))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1:
        return tuple([a[0] * y for y in b])
    if len(b) == 1:
        return tuple([x * b[0] for x in a])
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    return tuple(c)


def _pdiff(a: tuple) -> tuple:
    return tuple([k * a[k] for k in range(1, len(a))])


def _primitive(a: tuple) -> tuple:
    """a divided by its content, so that the gcd of its coefficients is 1."""
    c = gcd(*a)
    return a if c == 1 else tuple([x // c for x in a])


def _prem(a: tuple, b: tuple) -> tuple:
    """A nonzero integer multiple of the remainder of a by b, in ZZ[t], for
    deg a >= deg b.

    a is scaled once by lc(b)^(deg a - deg b + 1), so that this multiple of a
    is q b + r with q in ZZ[t] and deg r < deg b; each step then divides
    exactly by lc(b).
    """
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    if lb != 1:  # a monic b needs no scaling
        scale = lb ** (len(r) - db)
        r = [scale * x for x in r]
    while len(r) > db:
        q, shift = r[-1] // lb, len(r) - 1 - db
        for j, y in enumerate(b):
            r[shift + j] -= q * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _pquo(a: tuple, b: tuple) -> tuple:
    """The exact quotient a / b in ZZ[t]; ArithmeticError if b does not divide a."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    if any(r[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _pgcd(a: tuple, b: tuple) -> tuple:
    """gcd of two nonzero polynomials of ZZ[t], content included, with a
    positive leading coefficient: the primitive PRS on their primitive parts
    times the gcd of their contents."""
    c = gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (c,)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:  # a nonzero constant remainder: coprime
            return (c,)
        a, b = b, _primitive(r)
    if b[-1] < 0:
        b = _pneg(b)
    return b if c == 1 else tuple([c * x for x in b])


# ---------------------------------------------------------------------------
# Pairs (numerator, denominator) of ZZ[t], not yet cancelled.


def _canonical(num: tuple, den: tuple):
    """(num, den) cancelled to coprime polynomials, den with lc > 0."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), (1,)
    if den != (1,):
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pquo(num, g), _pquo(den, g)
        elif g[0] != 1:
            k = g[0]
            num, den = tuple([x // k for x in num]), tuple([x // k for x in den])
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
    return num, den


def _sum(x, y):
    (a, b), (c, d) = x, y
    if b == d:
        return _padd(a, c), b
    return _padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d)


def _neg(x):
    return _pneg(x[0]), x[1]


def _prod(x, y):
    return _pmul(x[0], y[0]), _pmul(x[1], y[1])


def _quot(x, y):
    if not y[0]:
        raise ZeroDivisionError("division by the zero rational function")
    return _pmul(x[0], y[1]), _pmul(x[1], y[0])


def _power(x, n: int):
    if not isinstance(n, int):
        raise TypeError("only integer powers")
    num, den = x
    if n < 0:
        if not num:
            raise ZeroDivisionError("zero to a negative power")
        num, den, n = den, num, -n
    p, q = (1,), (1,)
    while n:  # square and multiply: t^n costs O(n), not O(n^2)
        if n & 1:
            p, q = _pmul(p, num), _pmul(q, den)
        n >>= 1
        if n:
            num, den = _pmul(num, num), _pmul(den, den)
    return p, q


def _coerce(value):
    """The canonical pair of a RatFunc, an int, a Fraction or a string."""
    if isinstance(value, RatFunc):
        return value.num, value.den
    if isinstance(value, int):
        return ((value,) if value else ()), (1,)
    if isinstance(value, Fraction):
        return ((value.numerator,) if value else ()), (value.denominator,)
    if isinstance(value, str):
        f = parse_rational(value)
        return f.num, f.den
    raise TypeError(f"cannot interpret {value!r} as a rational function")


class RatFunc:
    """Rational function in t with exact rational coefficients.

    `num` and `den` are the coefficient tuples (constant term first) of the
    coprime integer numerator and denominator, `den` with a positive leading
    coefficient.  The constructor takes a RatFunc, an int, a Fraction, a
    string for `parse_rational`, or a pair (num, den) of such tuples, which
    it cancels to that form.
    """

    __slots__ = ("num", "den")

    def __init__(self, value=0):
        if isinstance(value, tuple):
            self.num, self.den = _canonical(*value)
        else:
            self.num, self.den = _coerce(value)

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc(((0, 1), (1,)))

    def __add__(self, other):
        return RatFunc(_sum((self.num, self.den), _coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return RatFunc(_sum((self.num, self.den), _neg(_coerce(other))))

    def __rsub__(self, other):
        return RatFunc(_sum(_coerce(other), _neg((self.num, self.den))))

    def __mul__(self, other):
        return RatFunc(_prod((self.num, self.den), _coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RatFunc(_quot((self.num, self.den), _coerce(other)))

    def __rtruediv__(self, other):
        return RatFunc(_quot(_coerce(other), (self.num, self.den)))

    def __neg__(self):
        return RatFunc(_neg((self.num, self.den)))

    def __pow__(self, n: int):
        return RatFunc(_power((self.num, self.den), n))

    def __eq__(self, other) -> bool:
        try:
            o = _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (self.num, self.den) == o

    def __hash__(self):
        # a constant equals the int or Fraction of its value: hash like it
        if self.is_constant():
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash((self.num, self.den))

    def diff(self) -> "RatFunc":
        a, b = self.num, self.den
        if len(b) == 1:
            return RatFunc((_pdiff(a), b))
        return RatFunc((_psub(_pmul(_pdiff(a), b), _pmul(a, _pdiff(b))), _pmul(b, b)))

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def evaluate(self, t0):
        """Numeric evaluation (works for complex t0)."""
        return self.callable()(t0)

    def dense(self):
        """Complex coefficients of numerator and denominator, highest first."""
        return tuple([complex(c) for c in reversed(p)] for p in (self.num, self.den))

    def callable(self):
        """Fast complex-scalar evaluator (Horner on both polynomials, from
        the leading coefficient).  A denominator of 1 is not divided by, so
        a polynomial costs one multiply-add per degree on an array of
        arguments (the leaf transport's a_i(F))."""
        num, den = self.dense()

        def horner(coeffs, tval):
            out = coeffs[0] if coeffs else 0j
            for c in coeffs[1:]:
                out = out * tval + c
            return out

        if den == [1]:
            return lambda tval: horner(num, tval)
        return lambda tval: horner(num, tval) / horner(den, tval)

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        num, den = self.num, self.den
        if len(den) == 1:
            return _format_poly(num, den[0])
        top = _format_poly(num)
        bottom = _format_poly(den)
        if _terms(num) > 1:
            top = f"({top})"
        if _terms(den) > 1 or den[-1] != 1:
            bottom = f"({bottom})"
        return f"{top}/{bottom}"


# ---------------------------------------------------------------------------
# Printing, in Python's operator syntax, which parse_rational reads back.


def _terms(a: tuple) -> int:
    return sum(1 for x in a if x)


def _format_poly(a: tuple, divisor: int = 1) -> str:
    """'3*t**2/2 - t + 1/2': the terms of a / divisor, highest degree first."""
    if not a:
        return "0"
    out = []
    for k in range(len(a) - 1, -1, -1):
        if not a[k]:
            continue
        c = Fraction(a[k], divisor)
        p, q = abs(c.numerator), c.denominator
        mono = "" if k == 0 else "t" if k == 1 else f"t**{k}"
        if not mono:
            term = str(p)
        elif p == 1:
            term = mono
        else:
            term = f"{p}*{mono}"
        if q != 1:
            term = f"{term}/{q}"
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        out.append(term)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing by recursive descent:
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor | factor)*   (juxtaposition multiplies)
#   factor := ('+' | '-') factor | atom (('^' | '**') exponent)?
#   atom   := integer | 't' | '(' expr ')'
#   exponent := integer, signed, possibly in parentheses
#
# Intermediate values are uncancelled pairs with nonzero denominators; the
# result is cancelled once.  A power is refused before it is expanded when its
# dense result would exceed _MAX_POWER_WORDS (t^1000000000 would fill memory).

_MAX_POWER_WORDS = 1 << 18  # t^262143 or (t+1)^4000 still parse


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ValueError(f"cannot parse rational function {self.text!r}: "
                         f"{message} at position {self.pos}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        value = self.term()
        while (ch := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = _sum(value, rhs if ch == "+" else _neg(rhs))
        return value

    def term(self):
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*" and not self.text.startswith("**", self.pos):
                self.pos += 1
                value = _prod(value, self.factor())
            elif ch == "/":
                self.pos += 1
                value = _quot(value, self.factor())
            elif ch and ch in "t(0123456789":
                value = _prod(value, self.factor())
            else:
                return value

    def factor(self):
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
            value = self.factor()
            return value if ch == "+" else _neg(value)
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
        elif self.text.startswith("**", self.pos):
            self.pos += 2
        else:
            return value
        return self.power(value, self.exponent())

    def power(self, value, n: int):
        """value ** n, refused when the dense result would take more than
        _MAX_POWER_WORDS 64-bit words: at most |n| deg + 1 coefficients of at
        most |n| log2(l1 norm) + 1 bits each."""
        degree = max(map(len, value)) - 1
        bits = max((sum(map(abs, p)) - 1).bit_length() for p in value)
        if (abs(n) * degree + 1) * (abs(n) * bits // 64 + 1) > _MAX_POWER_WORDS:
            self.error(f"power {n} too large")
        return _power(value, n)

    def exponent(self) -> int:
        if self.peek() == "(":
            self.pos += 1
            n = self.exponent()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return n
        sign = self.peek()
        if sign in ("+", "-"):
            self.pos += 1
        n = self.integer("expected an integer exponent")
        return -n if sign == "-" else n

    def integer(self, message: str) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.error(message)
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch == "t":
            self.pos += 1
            return (0, 1), (1,)
        n = self.integer("expected an integer, t or '('")
        return ((n,) if n else ()), (1,)


def parse_rational(text: str) -> RatFunc:
    """Parse expressions like 't^2+2t', '(t^2+1)/(t-2)' or 't**2/2 - 1/2'.

    Integer literals, t, + - * /, ^ or ** with an integer exponent,
    parentheses and juxtaposition (2t, 2(t+1), (t+1)(t-1)); ValueError for
    anything else, for a zero denominator, for a power whose expansion would
    exceed _MAX_POWER_WORDS and for nesting deeper than the interpreter's
    recursion limit.
    """
    p = _Parser(text)
    try:
        pair = p.expr()
    except (ZeroDivisionError, RecursionError) as exc:  # 1/0; nesting too deep
        raise ValueError(f"cannot parse rational function {text!r}: {exc}") from None
    if p.peek():
        p.error("unexpected character")
    return RatFunc(pair)


# ---------------------------------------------------------------------------
# Antiderivatives: one linear solve for the numerator over D-.


class NonRationalAntiderivative(ValueError):
    """The antiderivative has logarithmic (or worse) parts."""


def _quotient_constant(a: list, b: tuple):
    """The constant term of the quotient of a by b, divided top down."""
    r, db = list(a), len(b) - 1
    c = 0
    for i in range(len(r) - 1 - db, -1, -1):
        c = Fraction(r[i + db], b[-1])
        for j in range(db):
            r[i + j] -= c * b[j]
    return c


def rational_antiderivative(f: RatFunc) -> RatFunc:
    """The rational antiderivative F of f = A/D; NonRationalAntiderivative
    if f has a nonzero residue (which would force logarithms).

    Where D has a zero of order e, F has a pole of order e - 1, so
    F = N/D- with D- = gcd(D, D') and one polynomial N (Bronstein, Symbolic
    Integration I, sec. 2.2).  With D* = D/D- and E = D* D-'/D- (in ZZ[t]),
    F' = f reads L(N) = N' D* - N E = A.  L takes t^k to degree k + s - 1,
    s = deg D*, with leading coefficient lc(D*) (k - deg D-), and its kernel
    is spanned by D-: so the coefficients of N follow from the top degree
    down, as in a division, and every row no coefficient is solved from
    must then be zero, which it is exactly when f has no residue.

    The multiple of D- in N is the constant of integration.  Where F(0) is
    finite, F(0) = 0.  Otherwise the polynomial part of F, the quotient of
    N by D-, has zero constant term.
    """
    a, d = f.num, f.den
    d_minus = _pgcd(d, _pdiff(d)) if len(d) > 1 else (1,)
    d_star = _pquo(d, d_minus)
    e = _pquo(_pmul(d_star, _pdiff(d_minus)), d_minus)
    m, s, lead = len(d_minus) - 1, len(d_star) - 1, d_star[-1]
    te = (0,) + e + (0,) * (s - len(e))  # t E, padded to the length of D*
    r = list(a)
    n = [0] * max(len(a) - s + 1, 0)  # deg N = deg A - s + 1
    for k in range(len(n) - 1, -1, -1):
        if k == m:  # the kernel's coefficient: fixed below
            continue
        c = n[k] = Fraction(r[k + s - 1], lead * (k - m))
        if c:  # r -= c L(t^k); row k - 1 + j of L(t^k) is k D*_j - (t E)_j
            for j in range(not k, s + 1):
                r[k - 1 + j] -= c * (k * d_star[j] - te[j])
    if any(r):
        raise NonRationalAntiderivative(
            f"antiderivative of {f} is not a rational function"
        )
    # F has a pole at 0 exactly where D-(0) = 0: a simple zero of D there is a residue
    if d_minus[0]:  # F(0) = N(0)/D-(0): make it 0
        c = Fraction(n[0], d_minus[0])
    else:  # give the polynomial part of F zero constant term
        c = _quotient_constant(n, d_minus)
    n += [0] * (m + 1 - len(n))
    for j, y in enumerate(d_minus):
        n[j] -= c * y
    n = _trim(n)
    scale = lcm(*(x.denominator for x in n))
    return RatFunc((tuple([x.numerator * (scale // x.denominator) for x in n]),
                    tuple([scale * x for x in d_minus])))


def wronskian(f: RatFunc, g: RatFunc) -> RatFunc:
    """W(f, g) = f g' - f' g."""
    return f * g.diff() - f.diff() * g


def linearly_independent(f: RatFunc, g: RatFunc) -> bool:
    """Linear independence over the constants (Wronskian criterion)."""
    if f.is_zero() or g.is_zero():
        return False
    return not wronskian(f, g).is_zero()
