"""Verification toolkit for the monodromy orbit of F = (x^2-1)(y^2-1).

Subpackages split by layer:

* :mod:`orbitdepth.words` - exact free-group algebra and monodromy operators
* :mod:`orbitdepth.magnus` - truncated Magnus expansion, lower-central depth
* :mod:`orbitdepth.laurent` / :mod:`orbitdepth.representation` - exact
  (k+1) x (k+1) matrix representations over Laurent polynomials in (a, c),
  stored as one sparse Python-int matrix per monomial: A = diag(a, 1, ..., 1),
  B = I + N (N the Jordan block), C = diag(1, ..., 1, c), sending v_{k+2}
  to I + kappa E_{0,k} with kappa = (1/c-1)(1-a); the injective algebra map
  Phi(X)(S, T) = (|T|-|S|)! X(|S|, |T|) (Stanley, Enumerative
  Combinatorics I, §3.6) carries them onto the paper's 2^k x 2^k matrices
* :mod:`orbitdepth.ratfunc` / :mod:`orbitdepth.melnikov` - exact rational
  calculus for Wronskians and Melnikov leading terms
* :mod:`orbitdepth.curves`, :mod:`orbitdepth.integrals`,
  :mod:`orbitdepth.holonomy` - numerical geometry on {F = t}: cycles,
  (iterated) integrals, Poincare return maps
* :mod:`orbitdepth.reporting`, :mod:`orbitdepth.cli` - check suites and
  the command-line front end
"""

__version__ = "0.1.0"
