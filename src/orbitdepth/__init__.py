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

Every check, in every layer, ends as one `CheckRecord`; a `Recorder`
collects and times them.  Both live here, free of numpy, so the exact
layers can build records too.  The Recorder is the one clock of the
package: a record's runtime is the time since its Recorder's previous
record, or since the Recorder was created, so the runtimes of a suite's
records add up to no more than the suite took.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

__version__ = "0.1.0"


@dataclass
class CheckRecord:
    """One check: id, claim, parameters, expected vs computed, error metric,
    pass flag (error <= tolerance) and runtime."""

    id: str
    claim: str
    params: dict
    expected: str
    computed: str
    error: float
    tolerance: float
    passed: bool
    runtime_ms: float

    def to_dict(self) -> dict:
        """The fields by name, as `dataclasses.asdict` gives them, with
        params and its list values copied: a change to the result leaves
        the record as it was."""
        out = dict(vars(self))
        out["params"] = {k: list(v) if isinstance(v, list) else v
                         for k, v in self.params.items()}
        return out


class Recorder:
    """Collects CheckRecords and times them: each record's runtime_ms is the
    time since this Recorder's previous record, or since it was created.
    Work done for several records is timed once, in the first of them.
    A builder of records takes the caller's Recorder and adds to it, with
    their final ids, so all the records of a suite run on one clock."""

    def __init__(self):
        self.records: List[CheckRecord] = []
        self._since = time.perf_counter()

    def _lap(self) -> float:
        """Milliseconds since the previous lap; restarts the clock."""
        now = time.perf_counter()
        ms, self._since = (now - self._since) * 1e3, now
        return ms

    def add(self, id: str, claim: str, error: float, tolerance: float,
            expected="", computed="", params: Optional[dict] = None) -> CheckRecord:
        rec = CheckRecord(
            id=id,
            claim=claim,
            params=params or {},
            expected=str(expected),
            computed=str(computed),
            error=float(error),
            tolerance=float(tolerance),
            passed=bool(error <= tolerance),
            runtime_ms=self._lap(),
        )
        self.records.append(rec)
        return rec

    def add_bool(self, id: str, claim: str, ok: bool, params: Optional[dict] = None,
                 expected="true", computed=None) -> CheckRecord:
        """A yes/no check: error 0 (pass) or 1 (fail) against tolerance 0.5."""
        return self.add(
            id, claim, 0.0 if ok else 1.0, 0.5,
            expected=expected,
            computed=("true" if ok else "false") if computed is None else computed,
            params=params,
        )
