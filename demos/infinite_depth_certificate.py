"""The infinite-depth certificate, level by level.

For every k the (k+1) x (k+1) representation over Laurent polynomials in
(a, c), A = diag(a, 1, ..., 1), B = I + N (N the Jordan block),
C = diag(1, ..., 1, c), held as one integer matrix per monomial a^m c^n,
kills every orbit generator except v_{k+2}, whose image is the identity
plus a single corner entry kappa = (1/c-1)(1-a).  The injective algebra map
Phi(X)(S, T) = (|T|-|S|)! X(|S|, |T|) onto the incidence algebra of the
Boolean lattice (Stanley, Enumerative Combinatorics I, §3.6) carries these
matrices onto the paper's 2^k x 2^k ones, where the corner is k! kappa.
Every generator image is upper triangular with diagonal (a^m, 1, ..., 1,
c^n), so the commutator of any image with that corner matrix has corner
kappa (a^m c^-n - 1), which vanishes at (a, c) = (1, 1).  The corner of
v_{k+2} itself is kappa * 1, which does not -- so v_{k+2} stays outside
[orbit, everything] at every level: the orbit depth is unbounded.
"""

import sys
from fractions import Fraction
from math import factorial

from orbitdepth.representation import (
    Representation,
    depth_certificate,
    expected_corner_scalar,
    verify_v_images,
)
from orbitdepth.words import format_word, v_k

k_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4

for k in range(1, k_max + 1):
    rep = Representation(k)
    print(f"\nlevel k = {k} (matrices {rep.n} x {rep.n}; the paper's {2 ** k} x {2 ** k} under Phi)")
    print(f"  distinguished element v_{k+2} = {format_word(v_k(k+2))[:60]}...")
    table = verify_v_images(k)
    status = "all hold" if table.passed else f"FAILED: {table.first_failure()}"
    print(f"  image table rho(v_i), i = 2..{k+4}: {status}")
    corner = expected_corner_scalar()
    print(f"  corner of rho(v_{k+2}) - I at (0, {k}): kappa = {corner!r}"
          f" (2^k form: k! kappa = {factorial(k)} kappa)")
    print(f"    at (a, c) = (2, 3): {corner.evaluate(Fraction(2), Fraction(3))[0][0]}")
    cert = depth_certificate(k, rep)
    print(f"  separation certificate (v-image table and corner lemma,"
          f" {len(cert.items)} items): pass = {cert.passed}")

print("\nEvery level separates its v_{k+2}; no finite depth bounds the orbit.")
