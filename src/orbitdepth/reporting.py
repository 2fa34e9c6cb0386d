"""Check suites and machine-readable reports.

Every check produces a CheckRecord (id, claim, parameters, expected vs
computed, error metric, pass flag, runtime; defined with `Recorder` in the
package root, which the exact layers import too).  The Recorder times each
record from its previous one, so each value is computed just before the
first record that reports it, and a record that reuses it carries only its
own time.  Suites bundle records per layer; `run_suite` runs one suite or
all of them and writes a JSON report.  Each check the command line also
runs has one builder that adds its records to a Recorder: the numeric
ones here (`pairing_check`, `cauchy_checks`, `center_check`), the level-k
certificate and its v-image table in `representation` (`depth_certificate`,
`verify_v_images`).  The suite and the CLI subcommand both call it, so
both print the same records.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import CheckRecord, Recorder, __version__
from .words import (
    DELTA,
    Gen,
    Word,
    d_k,
    format_rho_word,
    m_endo,
    mon0,
    mon0_inverse,
    mon1,
    mon1_inverse,
    project_mod_gamma_subgroup,
    rewrite_to_rho_alphabet,
    v_k,
    var,
    var_iterate,
    variation_mod_k_identities,
    G as GAMMA_WORD,
    D0,
    D1,
    D2,
    D3,
    X_ELT,
    Z_ELT,
)
from .magnus import (
    depth_lower_bound,
    graded_triviality_check,
    leading_terms_agree_mod_orbit_ideal,
    magnus,
)
from .representation import DEFAULT_K_MAX, depth_certificate
from .melnikov import (
    FLAGSHIP,
    Kind,
    center_family,
    classify,
    deformation,
    hierarchy_collapse_check,
    make_length3,
    mv,
    mv_chain,
    beta_periods,
)
from .ratfunc import RatFunc, wronskian
from .curves import Cycle, CycleFactory
from .integrals import (
    CAUCHY_TOL,
    PAIRING_EXPECTED,
    PAIRING_TOL,
    cauchy_suite,
    eta,
    oval_orientation_certificate,
    pairing_table,
    period_determinant,
    shuffle_defect,
    v2_double_integral,
)
from .holonomy import (
    JET_TOL,
    WITNESS_EPS,
    WITNESS_ORDER_TOL,
    holonomy_along,
    jet_along,
    m2_assembly,
    m3_center_prediction,
    remainder_orders,
    resolved_sign,
)

DEFAULT_SEED = 20259
DEFAULT_T0 = 0.36
HEADROOM_DEGREE = 8  # the Magnus truncation at which orbit.depth_headroom certifies v_6


@functools.cache
def _git_commit(root: Path = Path(__file__).resolve().parents[2]) -> str:
    """HEAD of the git checkout at `root`, by default the source checkout
    the package runs from, else "unknown".  Read from `root/.git` alone,
    without starting git: HEAD (a commit, or `ref: <name>`), then the loose
    ref or else `packed-refs`; where `.git` is a `gitdir:` file (a linked
    worktree), HEAD comes from that directory and the refs from its
    `commondir`.  Read once per process."""
    git = root / ".git"
    try:
        gitdir = common = git
        if git.is_file():
            line = git.read_text().strip()
            if not line.startswith("gitdir: "):
                return "unknown"
            gitdir = common = root / line[len("gitdir: "):]
            if (gitdir / "commondir").is_file():
                common = gitdir / (gitdir / "commondir").read_text().strip()
        head = (gitdir / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            if (common / ref).is_file():
                head = (common / ref).read_text().strip()
            else:
                entries = (entry.split(" ") for entry in
                           (common / "packed-refs").read_text().splitlines())
                head = next((sha for sha, *name in entries if name == [ref]), "")
    except (OSError, UnicodeDecodeError):
        return "unknown"
    return head if re.fullmatch(r"[0-9a-f]{40}|[0-9a-f]{64}", head) else "unknown"


@dataclass
class Config:
    """The inputs of a `verify` run: `t0`, the level at which the numeric
    suite realises the saddle loops and the oval, and `k_max`, the last
    level of the separation certificates.  `seed` seeds nothing: no suite
    draws random numbers.  A t0 that is not finite, or a k_max outside
    1..DEFAULT_K_MAX, is a ValueError before any suite runs."""

    seed: int = DEFAULT_SEED
    t0: float = DEFAULT_T0
    k_max: int = 5

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise ValueError(f"config t0 must be finite, got {self.t0!r}")
        if not 1 <= self.k_max <= DEFAULT_K_MAX:
            raise ValueError(f"config k_max must be in 1..{DEFAULT_K_MAX}, got {self.k_max!r}")


# ---------------------------------------------------------------------------
# Builders shared by the suites and the command line.  Each adds its
# records to `rec` and returns what other records reuse.


def pairing_check(rec: Recorder, t: float) -> None:
    """num.pairing.t<t>: the saddle-loop periods against PAIRING_EXPECTED."""
    tab = pairing_table(t)
    err = max(abs(v - PAIRING_EXPECTED[key]) for key, v in tab.items())
    rec.add(f"num.pairing.t{t}", "saddle-loop periods of the three logarithmic forms",
            err, PAIRING_TOL, expected="table", computed=f"max abs deviation {err:.2e}",
            params={"t": t})


def cauchy_checks(rec: Recorder, gamma: Cycle) -> Dict[str, complex]:
    """num.cauchy.<name> for each vanishing integral of cauchy_suite over
    the real oval gamma; returns their values."""
    cs = cauchy_suite(gamma)
    for name, v in cs.items():
        rec.add(f"num.cauchy.{name}", "holomorphic iterated integral vanishes",
                abs(v), CAUCHY_TOL, expected="0", computed=f"{abs(v):.2e}")
    return cs


def center_check(rec: Recorder, gamma: Cycle, A, c1, lambda1, lam) -> complex:
    """num.center.order3: the order-3 jet coefficient of
    center_family(A, c1, lambda1, lam) along the real oval gamma against the
    sign-resolved closed prediction; returns the jet's c3."""
    c3 = jet_along(gamma, center_family(A, c1, lambda1, lam))[2]
    predicted = resolved_sign(3) * m3_center_prediction(gamma, A, lam, lambda1)
    if predicted == 0:
        error, tolerance = abs(c3), 1e-9
    else:
        error, tolerance = abs(c3 - predicted) / abs(predicted), 5e-3
    rec.add("num.center.order3", "order-3 center cross-check", error, tolerance,
            expected=f"{predicted:.6f}", computed=f"{c3:.6f}")
    return c3


# ---------------------------------------------------------------------------
# Suites.


def orbit_suite(cfg: Config) -> List[CheckRecord]:
    """Monodromy, variation and Magnus-depth checks (exact)."""
    rec = Recorder()

    M0, M1, M = mon0(), mon1(), m_endo()
    images_ok = (
        M1.of_gen(Gen.G) == GAMMA_WORD
        and all(M1.of_gen(g) == GAMMA_WORD * Word.gen(g) for g in list(Gen)[1:])
        and M0.of_gen(Gen.G) == DELTA * GAMMA_WORD
        and M0.of_gen(Gen.D0) == D0
        and M0.of_gen(Gen.D1) == D0 * D1 * D0.inverse()
        and M0.of_gen(Gen.D2) == (D0 * D1) * D2 * (D0 * D1).inverse()
        and M0.of_gen(Gen.D3) == (D0 * D1 * D2) * D3 * (D0 * D1 * D2).inverse()
    )
    rec.add_bool("orbit.monodromy_images", "generator images of the two monodromies", images_ok)

    # A homomorphism of the free group is determined by its images of the
    # five generators, so each of the next three records compares two
    # homomorphisms on g, d0, ..., d3 only.
    gens = tuple(Word.gen(g) for g in Gen)
    conj = D0 * D1
    closed_form = (Z_ELT * GAMMA_WORD * conj, D0.conjugate_by(D1.inverse()), D1, D2,
                   D3.conjugate_by(D2))
    ok = M.images == closed_form and all(
        M.of_gen(g) == conj.inverse() * M0.of_gen(g) * conj for g in Gen)
    rec.add_bool("orbit.m_is_conjugated_mon0",
                 "M and (d0 d1)^-1 Mon0(.) (d0 d1) agree on the five generators, with "
                 "images z g d0 d1, d1^-1 d0 d1, d1, d2, d2 d3 d2^-1, so they are equal", ok)

    inv0, inv1 = mon0_inverse(), mon1_inverse()
    ok = all(e.images == gens for e in (inv0.compose(M0), M0.compose(inv0), inv1.compose(M1)))
    rec.add_bool("orbit.automorphisms",
                 "inv0 Mon0, Mon0 inv0 and inv1 Mon1 fix the five generators, so they are "
                 "the identity and the explicit inverses invert the monodromies", ok)

    ok = all(project_mod_gamma_subgroup(M1(s)) == project_mod_gamma_subgroup(s) for s in gens)
    rec.add_bool("orbit.mon1_trivial_mod_gamma",
                 "the quotient map by <g, D> agrees with its composite with Mon1 on the five "
                 "generators, so the induced action on the quotient is trivial", ok)

    for ident in variation_mod_k_identities(5):
        rec.add_bool(f"orbit.identity.{ident.name}",
                     "exact word identity with orbit-commutator corrections",
                     ident.holds(), params={"k_factors": list(ident.k_factors)})

    rho_v2 = format_rho_word(rewrite_to_rho_alphabet(v_k(2)))
    rec.add_bool("orbit.v2_rho_form", "v2 in the alternate basis is x z x^-1 z^-1",
                 rho_v2 == "x z x^-1 z^-1", computed=rho_v2)

    for i in range(1, 6):
        rep = depth_lower_bound(v_k(i), i)
        rec.add_bool(f"orbit.depth_v{i}", f"v_{i} sits at lower-central level {i} exactly",
                     rep.depth == i, computed=rep.describe())
        repv = depth_lower_bound(var_iterate(i), i - 1 if i > 1 else 1)
        deep_enough = repv.depth is None if i > 1 else repv.depth == 1
        rec.add_bool(f"orbit.depth_var{i}", f"var^{i}(g) lies in lower-central level >= {i}",
                     deep_enough, computed=repv.describe())

    diff = (magnus(var(v_k(2)), 4) - magnus(v_k(3), 4)).lowest_degree()
    rec.add_bool("orbit.var_step_degree3",
                 "one variation step from v2 matches v3 through degree 3",
                 diff == 4, computed=f"first difference at degree {diff}")

    n = HEADROOM_DEGREE
    rep = depth_lower_bound(v_k(n - 2), n)
    rec.add_bool("orbit.depth_headroom",
                 f"the truncation {n} certifies v_{n-2} exactly",
                 rep.depth == n - 2, computed=rep.describe())

    for i in range(2, 6):
        rec.add_bool(f"orbit.leading_mod_ideal_{i}",
                     f"leading terms of var^{i}(g) and v_{i} agree modulo the orbit ideal",
                     leading_terms_agree_mod_orbit_ideal(var_iterate(i), v_k(i), i))

    for i, w in [(2, v_k(2)), (3, d_k(3, Z_ELT)), (4, v_k(4))]:
        rec.add_bool(f"orbit.graded_triviality_{i}",
                     "the saddle monodromy fixes lower-central classes",
                     graded_triviality_check(w, mon0(), i + 2))

    return rec.records


def repr_suite(cfg: Config) -> List[CheckRecord]:
    """Laurent matrix certificates for each level k (exact)."""
    rec = Recorder()
    for k in range(1, cfg.k_max + 1):
        depth_certificate(rec, k)
    return rec.records


def melnikov_suite(cfg: Config) -> List[CheckRecord]:
    """Exact Wronskian-hierarchy checks."""
    rec = Recorder()
    d = FLAGSHIP
    t = RatFunc.t()
    rec.add_bool("mel.flagship_coefficients",
                 "construction from (t, t^2, 1, 1) gives (t^2+2t, t, t^2+t)",
                 make_length3("t", "t^2", 1, 1).coefficients() == d.coefficients())
    # mv(2), ..., mv(6) from one chain, timed in the first of their records
    chain = mv_chain(6, d)
    m2, m3 = chain[0], chain[1]
    rec.add_bool("mel.flagship_mv2", "order-2 hierarchy term vanishes identically",
                 m2.is_zero())
    rec.add_bool("mel.flagship_mv3", "order-3 hierarchy term equals t^2",
                 m3 == t * t, computed=str(m3))
    for i, mi in enumerate(chain[2:], start=4):
        rec.add_bool(f"mel.flagship_mv{i}", f"order-{i} hierarchy term vanishes",
                     mi.is_zero())
    rec.add_bool("mel.flagship_class", "flagship classifies as length-3",
                 classify(d).kind is Kind.LENGTH3)

    cf = center_family("t", 0, 1, 1)
    rec.add_bool("mel.center_collapse",
                 "mv(2) = mv(3) = 0 makes beta3 and W(beta2, beta3) constant multiples "
                 "of beta1, so the hierarchy collapses at every order",
                 hierarchy_collapse_check(cf))

    cls = classify(cf)
    _, b2, b3 = beta_periods(cf)
    rec.add_bool("mel.center_recursion",
                 "the inner Wronskian multiplies the hierarchy by lambda2/lambda1",
                 wronskian(b2, b3) == b3 * (cls.lambda2 / cls.lambda1))
    rec.add_bool("mel.symmetric", "zero middle coefficient forces the symmetric center",
                 classify(deformation(1, 0, 1)).kind is Kind.SYMMETRIC_CENTER)
    return rec.records


def numeric_suite(cfg: Config) -> List[CheckRecord]:
    """Pairing table, iterated integrals, Melnikov jets and their witness, center checks.

    Every cycle at the level t0 comes from one CycleFactory, the oval gamma
    among them; only the pairing table's bare saddle loops, at two levels,
    are built apart."""
    rec = Recorder()
    t0 = cfg.t0
    fac = CycleFactory(t0)
    gamma = fac.cycle_of_word(GAMMA_WORD)

    for t in (0.25, t0):
        pairing_check(rec, t)

    xdy = oval_orientation_certificate(gamma)
    rec.add_bool("num.orientation", "the oval is counterclockwise (positive area)",
                 xdy > 0, computed=f"{xdy:.6f}")

    # the [x, z] double integral feeds this record and num.determinant
    val = v2_double_integral(fac)
    expected = 4 * np.pi ** 2
    rec.add("num.v2_double_integral",
            "double integral over the commutator cycle equals 4 pi^2",
            abs(val - expected) / expected, 1e-6,
            expected=f"{expected:.9f}", computed=f"{val:.9f}")

    # the oval's vanishing integrals feed these records and the three of num.m2
    cs = cauchy_checks(rec, gamma)

    sh = shuffle_defect(fac.based_loop(2), eta(2), eta(3))
    rec.add("num.shuffle", "length-2 shuffle relation on a based loop",
            sh, 1e-8, computed=f"{sh:.2e}")
    dd = abs(val - period_determinant(fac, X_ELT, Z_ELT, 2, 3))
    rec.add("num.determinant", "commutator double integral equals the period determinant",
            dd, 1e-6, computed=f"{dd:.2e}")

    # flagship jet, witnessed by direct transport
    c1, c2, c3 = jet_along(gamma, FLAGSHIP)
    bound = 1e-7 * abs(c3) * 0.032  # 1e-7 of |c3| at the eps scale 0.032
    rec.add("num.flagship.c1", "order-1 coefficient vanishes",
            abs(c1), bound, computed=f"{abs(c1):.2e}")
    rec.add("num.flagship.c2", "order-2 coefficient vanishes",
            abs(c2), bound, computed=f"{abs(c2):.2e}")
    orders = remainder_orders(gamma, FLAGSHIP, (c1, c2, c3))
    deviation = max(abs(o - 4) for o in orders) if abs(c3) > JET_TOL else math.inf
    rec.add("num.flagship.c3",
            "order-3 coefficient is nonzero, and the transported remainder past "
            f"the jet is of order 4 at eps = +-{WITNESS_EPS:g}",
            deviation, WITNESS_ORDER_TOL, expected="orders 4, 4",
            computed=f"c3 = {c3:.6f}, orders {orders[0]:.3f}, {orders[1]:.3f}")

    # v3 cross-check
    jet3 = jet_along(fac.cycle_of_word(v_k(3)), FLAGSHIP)
    expected3 = resolved_sign(3) * (2j * np.pi) ** 3 * mv(3, FLAGSHIP).evaluate(t0)
    err3 = abs(jet3[2] - expected3) / abs(expected3)
    rec.add("num.v3_crosscheck",
            "order-3 coefficient over v3 equals the sign-calibrated (2 pi i)^3 t0^2",
            err3, 5e-3, expected=f"{expected3:.6f}", computed=f"{jet3[2]:.6f}",
            params={"resolved_sign": resolved_sign(3)})

    # center checks
    returns = holonomy_along(gamma, center_family("t", 1, 1, 0), np.array([0.01, 0.02, 0.05]))
    worst = float(np.max(np.abs(returns - t0)))
    rec.add("num.center.exact", "the lam = 0 member preserves the center",
            worst, 1e-10, computed=f"{worst:.2e}")

    # the (t, 0, 1, 1) jet of the order-3 check is the scalings' reference
    c11 = center_check(rec, gamma, "t", 0, 1, 1)

    def center_c3(lambda1, lam):
        return jet_along(gamma, center_family("t", 0, lambda1, lam))[2]

    ratio = center_c3(2, 2) / c11
    rec.add("num.center.quadratic_scaling",
            "doubling both integrability witnesses multiplies the order-3 term by 4",
            abs(ratio - 4), 4 * 1e-2, expected="4", computed=f"{ratio:.6f}")
    ratio2 = center_c3(1, 2) / c11
    rec.add("num.center.witness_scaling",
            "doubling lam alone doubles the order-3 term (prefactor -lam*lambda1)",
            abs(ratio2 - 2), 2e-2, expected="2", computed=f"{ratio2:.6f}")

    # second-order assembly, its I_13 the Cauchy phi1_dphi3, and two of the
    # Cauchy integrals reported with it
    total = m2_assembly(FLAGSHIP, gamma, cs["phi1_dphi3"])
    rec.add("num.m2.order-2_assembly", "order-2 assembly", abs(total), 1e-7,
            expected="0.0", computed=f"{total:.3e}")
    for name, key in (("moment integral phi1 dphi3", "phi1_dphi3"),
                      ("collapsed log combination", "log_t_over_y2m1_dphi2")):
        v = cs[key]
        rec.add(f"num.m2.{name.replace(' ', '_')}", name, abs(v), CAUCHY_TOL,
                expected="0.0", computed=f"{v:.3e}")
    return rec.records


SUITES: Dict[str, Callable[[Config], List[CheckRecord]]] = {
    "orbit": orbit_suite,
    "repr": repr_suite,
    "melnikov": melnikov_suite,
    "numeric": numeric_suite,
}


def run_suite(name: str, cfg: Optional[Config] = None,
              out_path: Optional[str] = None) -> tuple:
    """Run one suite (or 'all'); returns (exit_code, records, report_path).

    The report goes to out_path, else to report_<suites>.json in the
    directory that the OUTPUT_DIR environment variable names (by default
    the working directory).  A suite that raises contributes one failed
    `<suite>.error` record carrying the exception; the other suites still
    run and the report is still written.
    """
    cfg = cfg or Config()
    names = list(SUITES) if name == "all" else [name]
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r}; choose from {sorted(SUITES)} or 'all'")
    records: List[CheckRecord] = []
    for n in names:
        error = Recorder()  # times the suite, should it raise
        try:
            records.extend(SUITES[n](cfg))
        except Exception as exc:  # a suite that raises is a failed check, not a lost report
            records.append(error.add_bool(
                f"{n}.error", f"the {n} suite runs to completion", False,
                computed=f"{type(exc).__name__}: {exc}"))
    report = {
        "manifest": {
            "version": __version__,
            "seed": cfg.seed,
            "t0": cfg.t0,
            "k_max": cfg.k_max,
            "suites": names,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "commit": _git_commit(),
        },
        "checks": [r.to_dict() for r in records],
        "pass": all(r.passed for r in records),
    }
    path = out_path
    if not path:  # only a report that goes to OUTPUT_DIR creates it
        out_dir = os.environ.get("OUTPUT_DIR", ".")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"report_{'_'.join(names)}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return (0 if report["pass"] else 1), records, path


# Record ids start with a prefix of their suite; a suite that raised leaves
# one `<suite>.error` record.
_SUITE_OF_PREFIX = {"mel": "melnikov", "num": "numeric"}


def trace_tree(records: List[CheckRecord]) -> str:
    """Suite -> record tree of the runtime_ms values in the records, with
    each suite's sum.  A Recorder times each record from its previous one,
    so a suite's sum is the time its records took, which is at most the
    time the suite took."""
    suites: Dict[str, List[CheckRecord]] = {}
    for r in records:
        prefix = r.id.split(".", 1)[0]
        suites.setdefault(_SUITE_OF_PREFIX.get(prefix, prefix), []).append(r)
    width = max(len(r.id) for r in records) + 2
    lines = []
    for name, recs in suites.items():
        lines.append(f"{name:<{width + 2}} {sum(r.runtime_ms for r in recs):10.1f} ms")
        lines.extend(f"  {r.id:<{width}} {r.runtime_ms:10.1f} ms" for r in recs)
    return "\n".join(lines)


def summary_table(records: List[CheckRecord]) -> str:
    lines = []
    width = max(len(r.id) for r in records) + 2
    for r in records:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.id:<{width}} {status}  err={r.error:.3g} tol={r.tolerance:.3g}")
    n_pass = sum(r.passed for r in records)
    lines.append(f"{n_pass}/{len(records)} checks passed")
    return "\n".join(lines)
