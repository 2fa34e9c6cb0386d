"""Verification toolkit for the monodromy orbit of F = (x^2-1)(y^2-1).

Subpackages split by layer:

* :mod:`orbitdepth.words` - exact free-group algebra and monodromy operators
* :mod:`orbitdepth.magnus` - truncated Magnus expansion, lower-central depth
* :mod:`orbitdepth.laurent` / :mod:`orbitdepth.representation` - exact
  2^k x 2^k matrix representations over Laurent polynomials in (a, c),
  stored as one int64 matrix per monomial
* :mod:`orbitdepth.ratfunc` / :mod:`orbitdepth.melnikov` - exact rational
  calculus for Wronskians and Melnikov leading terms
* :mod:`orbitdepth.curves`, :mod:`orbitdepth.integrals`,
  :mod:`orbitdepth.holonomy` - numerical geometry on {F = t}: cycles,
  (iterated) integrals, Poincare return maps
* :mod:`orbitdepth.reporting`, :mod:`orbitdepth.cli` - check suites and
  the command-line front end
"""

__version__ = "0.1.0"
