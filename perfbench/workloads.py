"""The benchmark's workloads: inputs made from a seed, one pass, and scoring.

Nothing here imports orbitdepth at module level, so `run.py` can read the
workload table without paying for numpy, scipy and sympy.  A pass returns a
list of `Unit`s: one per `run_suite` call or per deformation.  A unit that
raises keeps going as a unit whose missing checks all count as failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

# Check counts of each suite at the default Config, taken from a clean run.
SUITE_CHECKS = {"orbit": 36, "repr": 65, "melnikov": 10, "numeric": 20}

# Deformation pairs in one wronskian_sweep pass; each pair is two checks.
# Every 12 pairs hold each combination of the 3 make_length3 shapes and the
# 4 center_family shapes of sweep_inputs once.
SWEEP_PAIRS = 24


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple  # run_suite names, run in order; empty for the sweep
    expected_checks: int  # checks one pass must produce
    # end-to-end metric -> per-layer metrics predicted to move it here
    moves: dict = field(default_factory=dict)
    unchanged: tuple = ()  # per-layer metrics predicted not to move here


_EXACT_COUNTERS = (
    "representation.matrix_products", "representation.result_nnz",
    "representation.sampled_words", "laurent.poly_mults", "laurent.unit_inverses",
)
_NUMERIC_COUNTERS = (
    "ratfunc.evals", "holonomy.ode_solves", "holonomy.rhs_evals",
    "holonomy.ode_failures", "holonomy.fits", "curves.cycles_built",
    "curves.segments", "integrals.iterated_integrals", "integrals.form_evals",
)
_WRONSKIAN_COUNTERS = ("ratfunc.constructions", "ratfunc.wronskians", "melnikov.mv_calls")

WORKLOADS = {
    "verify_exact": Workload(
        "verify_exact", ("orbit", "repr", "melnikov"),
        sum(SUITE_CHECKS[s] for s in ("orbit", "repr", "melnikov")),
        moves={
            "wall_s": _EXACT_COUNTERS + ("magnus.series_products", "magnus.span_vectors",
                                       "words.word_products"),
            "peak_rss_mb": _EXACT_COUNTERS,
        },
        unchanged=_NUMERIC_COUNTERS,
    ),
    "verify_numeric": Workload(
        "verify_numeric", ("numeric",), SUITE_CHECKS["numeric"],
        moves={"wall_s": _NUMERIC_COUNTERS},
        unchanged=_EXACT_COUNTERS,
    ),
    "wronskian_sweep": Workload(
        "wronskian_sweep", (), 2 * SWEEP_PAIRS,
        moves={"wall_s": _WRONSKIAN_COUNTERS},
        unchanged=_EXACT_COUNTERS + _NUMERIC_COUNTERS,
    ),
}


# ---------------------------------------------------------------------------
# Inputs.


# Coefficients as small as those of the package's own calls (reporting.py,
# tests/test_melnikov.py, tests/test_acceptance.py, demos/): integers up to 2
# and halves up to 2.
_SMALL = (-2, -1, 0, 1, 2)
_NONZERO = (-2, -1, 1, 2)
_HALVES = tuple(Fraction(n, 2) for n in range(-4, 5) if n)


def _poly(coeffs) -> str:
    """'2*t^2-3*t+1' from integer coefficients, highest degree first."""
    deg = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs):
        power = deg - i
        mono = "" if power == 0 else "t" if power == 1 else f"t^{power}"
        if c:
            terms.append(f"{c}*{mono}" if mono else str(c))
    return "+".join(terms).replace("+-", "-")


def sweep_inputs(seed: int) -> list:
    """SWEEP_PAIRS deformation parameters, valid by construction.

    Each pair is (make_length3 args, center_family args).  The shapes are
    those of the package's own calls, and the pair's index picks them, so
    the seed changes coefficients but not the mix of work:

    * make_length3(alpha1, alpha2, c0, lam) is called there with (t, t^2),
      (t, t^3) and (t^2+1, t).  Here alpha2 = alpha1^2 P + c alpha1', so
      alpha2 / alpha1^2 = P + c alpha1' / alpha1^2 has the rational
      antiderivative int P - c / alpha1: alpha1 linear with P constant or
      linear, or alpha1 quadratic with P = 0.  Each alpha2 is independent of
      alpha1 (a different degree), and deg alpha2 <= 3 as there.
    * center_family(A, c1, lambda1, lam) is called there with A = t and
      A = t^2+t, and lam = 0 (a Hamiltonian deformation) as well as lam > 0.
      Here A is linear or quadratic, lam zero or not, lambda1 nonzero.

    Only constant terms may be 0, so a quadratic never has a monomial
    derivative (as t^2+1 has).  Such a center check costs a third of the
    others, and drawing it sometimes made a pass's cost depend on the seed
    by about 15%.
    """
    rng = random.Random(seed)

    def draw(deg):
        """Coefficients of a degree-`deg` polynomial, highest first."""
        if deg == 0:
            return [rng.choice((1, 2))]
        return ([rng.choice((1, 2))] + [rng.choice(_NONZERO) for _ in range(deg - 1)]
                + [rng.choice(_SMALL)])

    out = []
    for i in range(SWEEP_PAIRS):
        p_deg = (0, 1, None)[i % 3]  # None: alpha1 quadratic and P = 0
        a = draw(2 if p_deg is None else 1)
        alpha1 = _poly(a)
        derivative = _poly([(len(a) - 1 - k) * c for k, c in enumerate(a[:-1])])
        alpha2 = f"({rng.choice(_HALVES)})*({derivative})"
        if p_deg is not None:
            alpha2 = f"({alpha1})^2*({_poly(draw(p_deg))})+{alpha2}"
        length3 = (alpha1, alpha2, rng.choice((0, 1, 2)), rng.choice(_HALVES))
        lam = 0 if i % 2 == 0 else rng.choice((1, 2, 3))
        center = (_poly(draw(1 + i % 4 // 2)), rng.choice((0, 1, 2)), rng.choice(_HALVES), lam)
        out.append((length3, center))
    return out


def make_inputs(name: str, seed: int):
    """What the program receives: a Config, or the sweep's parameters."""
    if name == "wronskian_sweep":
        return sweep_inputs(seed)
    from orbitdepth.reporting import Config

    return Config(seed=seed)


# ---------------------------------------------------------------------------
# One pass and its score.


@dataclass
class Unit:
    """The verdicts of one call that should produce `expected` checks."""

    name: str
    expected: int
    verdicts: List[bool] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failed(self) -> int:
        """Failed checks; a missing or surplus check counts as failed."""
        return max(self.expected, len(self.verdicts)) - sum(self.verdicts)

    @property
    def ok(self) -> bool:
        return self.error is None and len(self.verdicts) == self.expected and all(self.verdicts)


def _attempt(unit: Unit, fn) -> Unit:
    """Run fn() -> list of verdicts; an exception is stored, not raised."""
    try:
        unit.verdicts = [bool(v) for v in fn()]
    except Exception as exc:  # a crash in one unit must not end the pass
        unit.error = f"{type(exc).__name__}: {exc}"
    if unit.error is None and len(unit.verdicts) != unit.expected:
        unit.error = f"produced {len(unit.verdicts)} checks, expected {unit.expected}"
    return unit


def run_pass(name: str, inputs) -> List[Unit]:
    """Everything between the first call into the package and the last verdict."""
    wl = WORKLOADS[name]
    if name == "wronskian_sweep":
        from orbitdepth.melnikov import (Kind, center_family, classify,
                                         hierarchy_collapse_check, make_length3)

        # One warm interpreter for the whole sweep, as melnikov_suite and the
        # tests run their deformations.
        units = []
        for i, (length3, center) in enumerate(inputs):
            units.append(_attempt(
                Unit(f"length3[{i}]", 1),
                lambda a=length3: [classify(make_length3(*a)).kind is Kind.LENGTH3]))
            units.append(_attempt(
                Unit(f"center[{i}]", 1),
                lambda a=center: [hierarchy_collapse_check(center_family(*a), 6)]))
        return units
    from orbitdepth.reporting import run_suite

    return [
        _attempt(Unit(suite, SUITE_CHECKS[suite]),
                 lambda s=suite: [r.passed for r in run_suite(s, inputs)[1]])
        for suite in wl.suites
    ]


def score(units: List[Unit]) -> dict:
    return {
        "checks": sum(max(u.expected, len(u.verdicts)) for u in units),
        "failed": sum(u.failed for u in units),
        "errors": [f"{u.name}: {u.error}" for u in units if u.error],
        "correct": all(u.ok for u in units),
    }
