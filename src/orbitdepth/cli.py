"""Command-line front end.

Subcommand tree:

    orbit  {var, mon, depth, project}
    repr   {matrices, check-v, comm-scalar, certificate}
    mel    {wronskian, build, classify, mv, center}
    num    {pairing, iterated, cauchy-suite, jet, holonomy, center-check}
    verify {orbit, repr, melnikov, numeric, all} [--t0 T] [--k-max K] [--out FILE]
           [--format {json,csv}] [--trace]

The check subcommands (`repr check-v`, `repr certificate`, `num pairing`,
`num cauchy-suite`, `num center-check`) print, as a JSON list, the records
that `verify` writes to the report for the same inputs, and exit 0 exactly
when all of them pass: each calls the builder its suite calls
(`representation.verify_v_images` and `depth_certificate`, `reporting`'s
`pairing_check`, `cauchy_checks` and `center_check`) on a fresh Recorder,
so `repr check-v --k K` prints the level-K table of v-images, i = 2..K+4.
The other subcommands print their values as JSON; `num jet` prints c1..c3
of the return map and the witness orders of the transported remainder past
them, and `orbit var` stops at the first iterate longer than the word
parser's cap.  `verify` takes its two inputs from `--t0` (the level of
the numeric suite) and `--k-max` (the last level of the separation
certificates), and writes its JSON report to `--out`, or else to
report_<suites>.json in the directory that the OUTPUT_DIR
environment variable names (default: the working directory).  With
`--format csv` it writes one CSV row per record to `--out`, and the JSON
report to that directory.  A bad value, or a file that cannot be opened,
prints `error: ...` and exits 2.  A reader that closes standard output
early, as `| head` does, ends the command with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
from fractions import Fraction

from .words import (
    _MAX_WORD_LETTERS,
    format_rho_word,
    format_word,
    mon0,
    mon1,
    m_endo,
    parse_word,
    project_mod_gamma_subgroup,
    rewrite_to_rho_alphabet,
    var,
)
from .magnus import depth_lower_bound, mono_format
from .representation import (
    base_matrices,
    commutator_scalar,
    depth_certificate,
    verify_v_images,
)
from .ratfunc import parse_rational, wronskian
from .melnikov import (
    center_family,
    classify,
    deformation,
    make_length3,
    mv,
)
from .curves import CycleFactory, real_oval
from .integrals import EtaCombo, eta, iterated_integral, log_basis
from .holonomy import holonomy_along, jet_along, remainder_orders
from .reporting import (
    Config,
    Recorder,
    cauchy_checks,
    center_check,
    pairing_check,
    run_suite,
    summary_table,
    trace_tree,
)


def _emit(obj):
    print(json.dumps(obj, indent=2, default=str))


def _complex_str(z) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_checks(build, *args) -> int:
    """Print the records a report builder adds for these inputs; 0 exactly
    when all of them pass."""
    rec = Recorder()
    build(rec, *args)
    _emit([r.to_dict() for r in rec.records])
    return 0 if all(r.passed for r in rec.records) else 1


# -- orbit ------------------------------------------------------------------


def cmd_orbit_var(args):
    if args.times < 0:
        raise ValueError("iterate count must be >= 0")
    w = parse_word(args.word)
    for step in range(1, args.times + 1):
        w = var(w)
        if len(w) > _MAX_WORD_LETTERS:
            raise ValueError(f"var^{step} of the word has {len(w)} letters, "
                             f"more than the {_MAX_WORD_LETTERS} a word may have")
    _emit({"word": args.word, "times": args.times, "result": format_word(w),
           "rho_form": format_rho_word(rewrite_to_rho_alphabet(w))})


def cmd_orbit_mon(args):
    endo = {"mon0": mon0, "mon1": mon1, "m": m_endo}[args.operator]
    w = endo(parse_word(args.word))
    _emit({"operator": args.operator, "word": args.word,
           "result": format_word(w)})


def cmd_orbit_depth(args):
    rep = depth_lower_bound(parse_word(args.word), args.max_degree)
    leading = {mono_format(m): c for m, c in sorted(rep.leading_part.items())}
    _emit({
        "word": args.word,
        "max_degree": rep.truncation,
        "depth": rep.depth if rep.depth is not None else f">{rep.truncation}",
        "identity": rep.is_identity,
        "leading_component": leading,
    })


def cmd_orbit_project(args):
    w = project_mod_gamma_subgroup(parse_word(args.word))
    _emit({"word": args.word, "projection": format_word(w)})


# -- repr -------------------------------------------------------------------


def cmd_repr_matrices(args):
    A, B, C = base_matrices(args.k)
    def render(m):
        return {f"{i},{j}": repr(m.entry(i, j)) for i, j in m.nonzero()}
    _emit({"k": args.k, "A": render(A), "B": render(B), "C": render(C)})


def cmd_repr_check_v(args):
    return _print_checks(verify_v_images, args.k)


def cmd_repr_comm_scalar(args):
    m, n, scalar = commutator_scalar(args.k, parse_word(args.word))
    _emit({"k": args.k, "word": args.word, "m": m, "n": n,
           "scalar": repr(scalar)})


def cmd_repr_certificate(args):
    return _print_checks(depth_certificate, args.k)


# -- mel --------------------------------------------------------------------


def cmd_mel_wronskian(args):
    f = parse_rational(args.f)
    g = parse_rational(args.g)
    _emit({"f": str(f), "g": str(g), "wronskian": str(wronskian(f, g))})


def cmd_mel_build(args):
    d = make_length3(parse_rational(args.alpha1), parse_rational(args.alpha2),
                     Fraction(args.c0), Fraction(args.lam))
    _emit({"a1": str(d.a1), "a2": str(d.a2), "a3": str(d.a3),
           "provenance": d.provenance})


def _deformation_from_args(args):
    return deformation(parse_rational(args.a1), parse_rational(args.a2),
                       parse_rational(args.a3))


def cmd_mel_classify(args):
    cls = classify(_deformation_from_args(args))
    out = {"classification": cls.kind.value}
    if cls.lambda1 is not None:
        out["lambda1"] = str(cls.lambda1)
        out["lambda2"] = str(cls.lambda2)
    _emit(out)


def cmd_mel_mv(args):
    d = _deformation_from_args(args)
    _emit({"i": args.i, "mv": str(mv(args.i, d)),
           "normalization": "(2 pi i)^i omitted"})


def cmd_mel_center(args):
    d = center_family(parse_rational(args.A), Fraction(args.c1),
                      Fraction(args.lambda1), Fraction(args.lam))
    _emit({"a1": str(d.a1), "a2": str(d.a2), "a3": str(d.a3),
           "provenance": d.provenance})


# -- num --------------------------------------------------------------------


def cmd_num_pairing(args):
    return _print_checks(pairing_check, args.t)


_FORM_NAMES = {f"eta{i}": [(i, 1.0)] for i in (1, 2, 3, 4)}
_FORM_NAMES.update({f"dphi{i}": [(i, 1.0)] for i in (1, 2, 3, 4)})
_MOMENT_NAMES = {f"phi{i}*dphi{j}": (i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)}


def _parse_forms(spec: str):
    forms, inits = [], []
    for name in spec.split(","):
        name = name.strip()
        if name in _FORM_NAMES:
            forms.append(EtaCombo(tuple(_FORM_NAMES[name])))
            inits.append(0.0)
        elif name in _MOMENT_NAMES:
            i, j = _MOMENT_NAMES[name]
            forms.append(eta(i))
            inits.append(None)  # resolved to log f_i at the start
            forms.append(eta(j))
            inits.append(0.0)
        else:
            raise ValueError(f"unknown form {name!r}")
    return forms, inits


def _word_cycle(args):
    """The cycle of --word at level --t."""
    return CycleFactory(args.t).cycle_of_word(parse_word(args.word))


def cmd_num_iterated(args):
    forms, inits = _parse_forms(args.forms)
    cycle = _word_cycle(args)
    start = cycle.base_point
    resolved = []
    for init, form in zip(inits, forms):
        if init is None:
            i = form.coeffs[0][0]
            resolved.append(cmath.log(log_basis(i, start.x, start.y)))
        else:
            resolved.append(init)
    val = iterated_integral(cycle, forms, inits=resolved)
    _emit({"check": "iterated", "params": {"word": args.word, "forms": args.forms,
                                           "t": args.t},
           "computed": _complex_str(val)})


def cmd_num_cauchy(args):
    return _print_checks(cauchy_checks, real_oval(args.t))


def cmd_num_jet(args):
    d = _deformation_from_args(args)
    cycle = _word_cycle(args)
    jet = jet_along(cycle, d)
    _emit({"check": "melnikov_jet",
           "params": {"word": args.word, "t": args.t,
                      "a1": args.a1, "a2": args.a2, "a3": args.a3},
           "c1": _complex_str(jet[0]),
           "c2": _complex_str(jet[1]),
           "c3": _complex_str(jet[2]),
           "remainder_orders": remainder_orders(cycle, d, jet)})


def cmd_num_holonomy(args):
    d = _deformation_from_args(args)
    val = holonomy_along(_word_cycle(args), d, complex(args.eps))
    _emit({"check": "holonomy", "params": {"word": args.word, "t": args.t,
                                           "eps": args.eps},
           "computed": _complex_str(val),
           "displacement": _complex_str(val - args.t)})


def cmd_num_center_check(args):
    return _print_checks(center_check, real_oval(args.t), parse_rational(args.A),
                         Fraction(args.c1), Fraction(args.lambda1), Fraction(args.lam))


# -- verify -----------------------------------------------------------------


def cmd_verify(args):
    cfg = Config(**{key: value for key in ("t0", "k_max")
                    if (value := getattr(args, key)) is not None})
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv needs --out")
    if args.out:  # a path that cannot be written is a usage error before any suite runs
        open(args.out, "a").close()
    code, records, path = run_suite(args.suite, cfg, args.out if args.format == "json" else None)
    if args.format == "csv":
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "claim", "expected", "computed", "error",
                             "tolerance", "pass", "runtime_ms"])
            for r in records:
                writer.writerow([r.id, r.claim, r.expected, r.computed,
                                 r.error, r.tolerance, r.passed, r.runtime_ms])
        path = args.out
    print(summary_table(records))
    print(f"report: {path}")
    if args.trace:
        print(trace_tree(records))
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbitdepth", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="group", required=True)

    orbit = sub.add_parser("orbit", help="free-group and depth operations")
    osub = orbit.add_subparsers(dest="cmd", required=True)
    q = osub.add_parser("var", help="iterate the variation operator")
    q.add_argument("--word", required=True)
    q.add_argument("--times", type=int, default=1)
    q.set_defaults(func=cmd_orbit_var)
    q = osub.add_parser("mon", help="apply a monodromy operator")
    q.add_argument("--operator", choices=("mon0", "mon1", "m"), required=True)
    q.add_argument("--word", required=True)
    q.set_defaults(func=cmd_orbit_mon)
    q = osub.add_parser("depth", help="lower-central depth via the series expansion")
    q.add_argument("--word", required=True)
    q.add_argument("--max-degree", type=int, default=8)
    q.set_defaults(func=cmd_orbit_depth)
    q = osub.add_parser("project", help="project modulo the normal closure of g, D")
    q.add_argument("--word", required=True)
    q.set_defaults(func=cmd_orbit_project)

    rep = sub.add_parser("repr", help="Laurent matrix representations")
    rsub = rep.add_subparsers(dest="cmd", required=True)
    q = rsub.add_parser("matrices", help="print the level-k base matrices")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cmd_repr_matrices)
    q = rsub.add_parser("check-v", help="verify the v-image table at level k")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cmd_repr_check_v)
    q = rsub.add_parser("comm-scalar", help="corner scalar of a commutator")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--word", required=True)
    q.set_defaults(func=cmd_repr_comm_scalar)
    q = rsub.add_parser("certificate", help="full separation certificate")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cmd_repr_certificate)

    mel = sub.add_parser("mel", help="exact Wronskian layer")
    msub = mel.add_subparsers(dest="cmd", required=True)
    q = msub.add_parser("wronskian")
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.set_defaults(func=cmd_mel_wronskian)
    q = msub.add_parser("build", help="length-3 deformation from (alpha1, alpha2, c0, lambda)")
    q.add_argument("--alpha1", required=True)
    q.add_argument("--alpha2", required=True)
    q.add_argument("--c0", default="0")
    q.add_argument("--lambda", dest="lam", default="1")
    q.set_defaults(func=cmd_mel_build)
    q = msub.add_parser("classify")
    for name in ("a1", "a2", "a3"):
        q.add_argument(f"--{name}", required=True)
    q.set_defaults(func=cmd_mel_classify)
    q = msub.add_parser("mv", help="nested-Wronskian hierarchy term")
    q.add_argument("--i", type=int, required=True)
    for name in ("a1", "a2", "a3"):
        q.add_argument(f"--{name}", required=True)
    q.set_defaults(func=cmd_mel_mv)
    q = msub.add_parser("center", help="center family from (A, c1, lambda1, lambda)")
    q.add_argument("--A", required=True)
    q.add_argument("--c1", default="0")
    q.add_argument("--lambda1", default="1")
    q.add_argument("--lambda", dest="lam", default="0")
    q.set_defaults(func=cmd_mel_center)

    num = sub.add_parser("num", help="numerical geometry on the curve")
    nsub = num.add_subparsers(dest="cmd", required=True)
    q = nsub.add_parser("pairing", help="saddle-loop period table")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(func=cmd_num_pairing)
    q = nsub.add_parser("iterated", help="iterated integral along a word cycle")
    q.add_argument("--word", required=True)
    q.add_argument("--forms", required=True,
                   help="comma list from eta1..eta4, dphi1..dphi4, phiI*dphiJ")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(func=cmd_num_iterated)
    q = nsub.add_parser("cauchy-suite", help="the vanishing iterated integrals")
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(func=cmd_num_cauchy)
    q = nsub.add_parser("jet", help="return-map coefficients c1..c3 and their witness orders")
    q.add_argument("--word", required=True)
    q.add_argument("--t", type=float, required=True)
    for name in ("a1", "a2", "a3"):
        q.add_argument(f"--{name}", required=True)
    q.set_defaults(func=cmd_num_jet)
    q = nsub.add_parser("holonomy", help="single return-map evaluation")
    q.add_argument("--word", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--eps", type=float, required=True)
    for name in ("a1", "a2", "a3"):
        q.add_argument(f"--{name}", required=True)
    q.set_defaults(func=cmd_num_holonomy)
    q = nsub.add_parser("center-check", help="order-3 center cross-check")
    q.add_argument("--A", required=True)
    q.add_argument("--c1", default="0")
    q.add_argument("--lambda1", default="1")
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--t", type=float, required=True)
    q.set_defaults(func=cmd_num_center_check)

    ver = sub.add_parser("verify", help="run a check suite")
    ver.add_argument("suite", choices=("orbit", "repr", "melnikov", "numeric", "all"))
    ver.add_argument("--t0", type=float, help="the level of the numeric suite")
    ver.add_argument("--k-max", dest="k_max", type=int,
                     help="the last level of the separation certificates")
    ver.add_argument("--out", help="the report file, else report_<suites>.json in $OUTPUT_DIR")
    ver.add_argument("--format", choices=("json", "csv"), default="json",
                     help="csv writes one row per record to --out")
    ver.add_argument("--trace", action="store_true",
                     help="print each suite's record runtimes after the report")
    ver.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
