"""Integer Laurent polynomials in the representation parameters (a, c), graded.

An element of M_n(Z[a^+-1, c^+-1]) is stored by grade: a dict from a monomial
a^m c^n, the key (m, n), to its coefficient matrix, itself a sparse dict
from a position (i, j) to a Python int, zero coefficients and empty grades
dropped.  A product is a convolution over the live monomials, one sparse
integer matrix product per pair of grades; the representations keep at most
four monomials live and a few entries per grade, so a product costs a few
hundred integer operations.  `product` takes its right factor as a row
index built by `by_row`, so a matrix that is the right factor of many
products, as a generator image is of every letter of a word, is indexed
once: `representation.RepMatrix` keeps its own index.  Python ints do not
overflow: all arithmetic here is exact.
"""

from __future__ import annotations

from typing import Dict, Tuple

Monomial = Tuple[int, int]
Position = Tuple[int, int]
Sparse = Dict[Position, int]
Graded = Dict[Monomial, Sparse]


Rows = Dict[Monomial, Dict[int, list]]


def by_row(y: Graded) -> Rows:
    """Each grade of y by row: q -> l -> [(j, y_q[l, j])], the right factor's
    index for `product`."""
    rows: Rows = {}
    for q, b in y.items():
        grade = rows[q] = {}
        for (l, j), v in b.items():
            grade.setdefault(l, []).append((j, v))
    return rows


def product(x: Graded, rows: Rows) -> Graded:
    """The graded product sum_{p, q} x_p y_q a^(p+q), zeros dropped, with y
    given by its row index `by_row(y)`."""
    out: Graded = {}
    for (m1, n1), a in x.items():
        for (m2, n2), grade in rows.items():
            acc = out.setdefault((m1 + m2, n1 + n2), {})
            for (i, l), u in a.items():
                for j, v in grade.get(l, ()):
                    acc[i, j] = acc.get((i, j), 0) + u * v
    return {g: z for g, acc in out.items() if (z := {p: v for p, v in acc.items() if v})}


def laurent_str(terms: Dict[Monomial, int]) -> str:
    """'coeff*a^m*c^n' terms in monomial order, joined by ' + '; '0' if none."""
    parts = []
    for (m, n), coeff in sorted(terms.items()):
        s = str(coeff)
        if m:
            s += f"*a^{m}" if m != 1 else "*a"
        if n:
            s += f"*c^{n}" if n != 1 else "*c"
        parts.append(s)
    return " + ".join(parts) or "0"
