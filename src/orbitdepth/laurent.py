"""Integer Laurent polynomials in the representation parameters (a, c), graded.

An element of M_n(Z[a^+-1, c^+-1]) is stored by grade: a dict from a monomial
a^m c^n, the key (m, n), to its n x n int64 coefficient matrix, zero
matrices dropped.  A 1 x 1 element is a Laurent scalar.  A product is a
convolution over the live monomials, one integer matrix product per pair of
grades (numpy's dense integer `@`: rho_k's matrices are (k+1) x (k+1)); the
representations keep at most four monomials live, so a product costs a few
array operations where entry-by-entry polynomial arithmetic made thousands
of Python calls.

int64 cannot grow like Python integers, so `product` bounds every entry of
the result before it multiplies and raises `OverflowError` instead of
wrapping: all arithmetic here is exact or raises.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

Monomial = Tuple[int, int]
Graded = Dict[Monomial, np.ndarray]

# Bound on |entry| of any product and of every partial sum in it.
PRODUCT_LIMIT = 2 ** 62


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min()))


def _row_norm(x: np.ndarray) -> int:
    """max_i sum_j |x_ij|, or n max |x_ij| >= it where the sum could wrap."""
    top = _max_abs(x) * x.shape[1]
    return top if top >= 2 ** 63 else int(np.abs(x).sum(axis=1).max())


def product(x: Graded, y: Graded) -> Graded:
    """The graded product sum_{p, q} x_p y_q a^(p+q), zero grades dropped.

    Raises OverflowError unless (sum_p max row-abs-sum of x_p) times
    (sum_q max |entry| of y_q), which bounds every entry of every grade of
    the result and every partial sum, is below 2^62.
    """
    bound = sum(map(_row_norm, x.values())) * sum(map(_max_abs, y.values()))
    if bound >= PRODUCT_LIMIT:
        raise OverflowError(f"int64 product bound {bound:.3g} reaches 2^62")
    n = max((len(a) for a in (*x.values(), *y.values())), default=0)
    out: Graded = {}
    for (m1, n1), a in x.items():
        for (m2, n2), b in y.items():
            g = (m1 + m2, n1 + n2)
            if g not in out:
                out[g] = np.zeros((n, n), dtype=np.int64)
            out[g] += a @ b if a.shape == b.shape else a * b  # 1 x 1 scales
    return {g: z for g, z in out.items() if z.any()}


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
