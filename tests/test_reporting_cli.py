import collections
import csv
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import orbitdepth
from orbitdepth.cli import main
from orbitdepth import cli, curves, integrals, melnikov, reporting
from orbitdepth.reporting import Config, numeric_suite, repr_suite, run_suite
from orbitdepth.representation import Representation, depth_certificate
from orbitdepth import words
from orbitdepth.words import D1, D3, G, Endo, Gen, RhoGen


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("bogus")


def test_suite_report_schema(tmp_path):
    cfg = Config(k_max=2)
    code, records, path = run_suite("melnikov", cfg, str(tmp_path / "rep.json"))
    assert code == 0
    data = json.loads(open(path).read())
    assert data["pass"] is True
    assert {"manifest", "checks", "pass"} <= set(data)
    for rec in data["checks"]:
        assert {"id", "claim", "expected", "computed", "error", "tolerance",
                "passed", "runtime_ms"} <= set(rec)
    ids = [r["id"] for r in data["checks"]]
    assert len(ids) == len(set(ids))


def test_report_manifest_records_the_environment(tmp_path):
    _, _, path = run_suite("melnikov", Config(), str(tmp_path / "rep.json"))
    manifest = json.loads(open(path).read())["manifest"]
    assert {"version", "seed", "t0", "k_max", "suites",
            "timestamp", "python", "numpy", "cpu_count",
            "commit"} == set(manifest)
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["commit"] == "unknown" or re.fullmatch(r"[0-9a-f]{40}", manifest["commit"])


def test_the_commit_is_read_once_per_process_without_starting_git(tmp_path, monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError(f"a process was started: {args}")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(os, "system", no_process)
    reporting._git_commit.cache_clear()
    for i in range(2):
        run_suite("melnikov", Config(), str(tmp_path / f"rep{i}.json"))
    info = reporting._git_commit.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _git(cwd, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                           "-c", "init.defaultBranch=main", *args],
                          cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def test_the_commit_read_from_dot_git_is_what_git_rev_parse_says(tmp_path):
    read = reporting._git_commit.__wrapped__  # uncached
    repo, linked, plain = tmp_path / "repo", tmp_path / "linked", tmp_path / "plain"
    _git(tmp_path, "init", "-q", str(repo))
    _git(repo, "commit", "-q", "--allow-empty", "-m", "one")
    assert (repo / ".git" / "refs" / "heads" / "main").is_file()
    assert read(repo) == _git(repo, "rev-parse", "HEAD")  # a loose ref
    _git(repo, "commit", "-q", "--allow-empty", "-m", "two")
    _git(repo, "pack-refs", "--all")
    assert not (repo / ".git" / "refs" / "heads" / "main").exists()
    assert read(repo) == _git(repo, "rev-parse", "HEAD")  # a packed ref
    first = _git(repo, "rev-parse", "HEAD~1")
    _git(repo, "checkout", "-q", "--detach", first)
    assert read(repo) == first  # a detached HEAD
    _git(repo, "worktree", "add", "-q", "-b", "side", str(linked), "main")
    _git(linked, "commit", "-q", "--allow-empty", "-m", "three")
    assert (linked / ".git").is_file()
    assert read(linked) == _git(linked, "rev-parse", "HEAD") != first  # a linked worktree
    assert read(repo) == first
    plain.mkdir()
    assert read(plain) == "unknown"  # no repository
    (plain / ".git").write_text("not a gitdir line\n")
    assert read(plain) == "unknown"


def _modules_loaded_by_the_package(top: str,
                                   imports: str = "orbitdepth.cli, orbitdepth.reporting") -> str:
    """Modules under `top` that importing `imports` (the CLI and reporting
    by default) loads."""
    src = str(Path(orbitdepth.__file__).resolve().parents[1])
    code = (f"import sys, {imports}; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.strip()


def test_package_imports_without_scipy():
    assert _modules_loaded_by_the_package("scipy") == "[]"


def test_package_imports_without_sympy():
    assert _modules_loaded_by_the_package("sympy") == "[]"


def test_exact_layers_import_without_numpy():
    assert _modules_loaded_by_the_package(
        "numpy", "orbitdepth.representation, orbitdepth.melnikov") == "[]"


def test_verify_trace_prints_every_record_and_suite_total(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reporting, "SUITES", {"repr": reporting.repr_suite,
                                              "melnikov": reporting.melnikov_suite})
    path = tmp_path / "rep.json"
    assert main(["verify", "all", "--k-max", "2", "--out", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    tree = out[out.index(f"report: {path}"):]
    checks = json.loads(path.read_text())["checks"]
    for rec in checks:
        assert re.search(rf"^  {re.escape(rec['id'])} +{rec['runtime_ms']:.1f} ms$", tree, re.M)
    for suite, prefix in (("repr", "repr."), ("melnikov", "mel.")):
        total = sum(r["runtime_ms"] for r in checks if r["id"].startswith(prefix))
        assert re.search(rf"^{suite} +{total:.1f} ms$", tree, re.M)


def test_exact_suites_time_every_record(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(reporting, "SUITES", {"orbit": reporting.orbit_suite,
                                              "melnikov": reporting.melnikov_suite})
    path = tmp_path / "rep.json"
    assert main(["verify", "all", "--out", str(path), "--trace"]) == 0
    out = capsys.readouterr().out
    tree = out[out.index(f"report: {path}"):]
    checks = json.loads(path.read_text())["checks"]
    for suite, prefix, count in (("orbit", "orbit.", 36), ("melnikov", "mel.", 10)):
        records = [r for r in checks if r["id"].startswith(prefix)]
        assert len(records) == count
        assert all(r["runtime_ms"] > 0 for r in records), [
            r["id"] for r in records if not r["runtime_ms"] > 0]
        shown = re.search(rf"^{suite} +([0-9.]+) ms$", tree, re.M)
        assert shown and float(shown.group(1)) > 0


@pytest.mark.parametrize("name", list(reporting.SUITES))
def test_a_suites_runtimes_add_up_to_at_most_its_wall_time(name):
    # each record is timed from the previous one, so no time counts twice
    start = time.perf_counter()
    records = reporting.SUITES[name](Config())
    wall_ms = (time.perf_counter() - start) * 1e3
    assert sum(r.runtime_ms for r in records) <= wall_ms


def test_suite_rerun_deterministic(tmp_path):
    cfg = Config(k_max=2)
    _, rec1, _ = run_suite("orbit", cfg, str(tmp_path / "a.json"))
    _, rec2, _ = run_suite("orbit", cfg, str(tmp_path / "b.json"))
    assert [(r.id, r.passed, r.error) for r in rec1] == \
           [(r.id, r.passed, r.error) for r in rec2]


def test_orbit_suite_is_seed_independent():
    def outcome(seed):
        return [(r.id, r.passed, r.computed, r.params)
                for r in reporting.orbit_suite(Config(seed=seed))]

    assert outcome(1) == outcome(2)


def _with_image(endo, g, image):
    images = list(endo.images)
    images[g] = image
    return Endo(tuple(images))


@pytest.mark.parametrize("name, mutant, red", [
    ("mon0_inverse", lambda: _with_image(words.mon0_inverse(), Gen.D1, D1),
     {"orbit.automorphisms"}),
    ("m_endo", lambda: _with_image(words.m_endo(), Gen.D3, D3),
     {"orbit.m_is_conjugated_mon0"}),
    ("mon1", lambda: _with_image(words.mon1(), Gen.D2, G * D3),
     {"orbit.monodromy_images", "orbit.automorphisms", "orbit.mon1_trivial_mod_gamma"}),
], ids=["mon0_inverse", "m_endo", "mon1"])
def test_orbit_generator_records_catch_one_wrong_image(monkeypatch, name, mutant, red):
    monkeypatch.setattr(reporting, name, mutant)
    records = reporting.orbit_suite(Config())
    assert len(records) == 36
    assert {r.id for r in records if not r.passed} == red


def test_cli_orbit(capsys):
    assert main(["orbit", "var", "--word", "g", "--times", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "d0 d1 d2 d3"
    assert main(["orbit", "depth", "--word", "[x,z]", "--max-degree", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["depth"] == 2
    assert main(["orbit", "project", "--word", "d0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projection"] == "d3^-1 d2^-1 d1^-1"
    assert main(["orbit", "mon", "--operator", "m", "--word", "d3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "d2 d3 d2^-1"
    # a negative count is a usage error, as in var_iterate
    assert main(["orbit", "var", "--word", "g", "--times", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: iterate count must be >= 0\n"


def test_cli_repr(capsys):
    assert main(["repr", "matrices", "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == {"0,0": "1*a", "1,1": "1", "2,2": "1"}
    assert out["B"] == {"0,0": "1", "0,1": "1", "1,1": "1", "1,2": "1", "2,2": "1"}
    assert out["C"] == {"0,0": "1", "1,1": "1", "2,2": "1*c"}
    assert main(["repr", "check-v", "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 7 and all(rec["passed"] for rec in out)
    assert out[0]["id"] == "repr.k1.rho_1(v_2)"
    assert main(["repr", "comm-scalar", "--k", "1", "--word", "x"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["m"], out["n"]) == (1, 0)
    assert main(["repr", "certificate", "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 11 and all(rec["passed"] for rec in out)
    assert out[-1]["id"] == "repr.k1.certificate"
    # --imax below k + 2 leaves no distinguished row: a usage error
    assert main(["repr", "check-v", "--k", "2", "--imax", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_mel(capsys):
    assert main(["mel", "wronskian", "--f", "t", "--g", "t^2"]) == 0
    assert json.loads(capsys.readouterr().out)["wronskian"] == "t**2"
    assert main(["mel", "build", "--alpha1", "t", "--alpha2", "t^2",
                 "--c0", "1", "--lambda", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a1"] == "t**2 + 2*t" and out["a2"] == "t" and out["a3"] == "t**2 + t"
    assert main(["mel", "classify", "--a1", "t^2+2t", "--a2", "t",
                 "--a3", "t^2+t"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "LENGTH3"
    assert main(["mel", "mv", "--i", "3", "--a1", "t^2+2t", "--a2", "t",
                 "--a3", "t^2+t"]) == 0
    assert json.loads(capsys.readouterr().out)["mv"] == "t**2"
    assert main(["mel", "center", "--A", "t", "--c1", "0", "--lambda1", "1",
                 "--lambda", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a1"] == "t" and out["a3"] == "t - 1"


def test_cli_mel_errors(capsys):
    assert main(["mel", "build", "--alpha1", "t", "--alpha2", "t",
                 "--c0", "0", "--lambda", "1"]) == 2
    assert "error" in capsys.readouterr().err
    for f in ("x+t", "0.5*t", "sqrt(2)*t", "t^1000000000"):
        assert main(["mel", "wronskian", "--f", f, "--g", "t^2"]) == 2
        assert "error" in capsys.readouterr().err


def test_cli_num(capsys):
    assert main(["num", "pairing", "--t", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [rec["id"] for rec in out] == ["num.pairing.t0.25"] and out[0]["passed"]
    assert main(["num", "cauchy-suite", "--t", "0.36"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 3 and all(rec["passed"] for rec in out)
    assert main(["num", "iterated", "--word", "[x,z]", "--forms",
                 "dphi2,dphi3", "--t", "0.36"]) == 0
    out = json.loads(capsys.readouterr().out)
    val = complex(out["computed"].replace("j", "j"))
    assert abs(val.real - 39.478) < 1e-2
    assert main(["num", "holonomy", "--word", "g", "--t", "0.36", "--eps",
                 "0.0", "--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert main(["num", "jet", "--word", "g", "--t", "0.36",
                 "--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(complex(out["c1"])) <= 1e-12 and abs(complex(out["c2"])) <= 1e-12
    assert len(out["remainder_orders"]) == 2
    assert all(abs(order - 4) <= 0.1 for order in out["remainder_orders"])
    # d0 d0' reduces to the empty cycle: its iterated integrals are 0, and
    # the witness orders of its jet mean nothing, which is a usage error
    assert main(["num", "iterated", "--word", "d0 d0'", "--forms", "phi1*dphi3",
                 "--t", "0.36"]) == 0
    assert json.loads(capsys.readouterr().out)["computed"] == "0+0j"
    # a moment form is exactly phiI*dphiJ with I, J in 1..4
    for name in ("phi12*dphi3", "phi1x*dphi3", "phi1*dphi5", "phi0*dphi3", "phi1*dphi"):
        assert main(["num", "iterated", "--word", "g", "--forms", name, "--t", "0.36"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: unknown form {name!r}\n"
    assert main(["num", "jet", "--word", "d0 d0'", "--t", "0.36",
                 "--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    # at t = 0 the saddle loops shrink to the punctures: a usage error
    assert main(["num", "pairing", "--t", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "t = 0" in captured.err
    # so is a level that is not finite
    for argv in (["num", "pairing", "--t", "nan"],
                 ["num", "iterated", "--word", "d1", "--forms", "eta1", "--t", "inf"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: the level t = ")
        assert "is not finite" in captured.err


def test_cli_num_refuses_a_pole_at_the_level_and_a_remainder_at_roundoff(capsys):
    # 25 t - 9 vanishes at t = 0.36: both commands stop before any sweep
    pole = ["--word", "g", "--t", "0.36", "--a1", "1/(25t-9)", "--a2", "0", "--a3", "1"]
    for argv in (["num", "jet"] + pole, ["num", "holonomy", "--eps", "0.01"] + pole):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a1 = 1/(25*t - 9) is not finite at the level t = 0.36")
    # the symmetric center returns to itself: the remainder past its jet is roundoff
    assert main(["num", "jet", "--word", "g", "--t", "0.36",
                 "--a1", "1", "--a2", "0", "--a3", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: the remainder past the jet")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cli_num_reports_a_failing_numeric_layer_as_a_usage_error(capsys):
    # a leaf at eps = nan never settles (TransportError), the oval at
    # t = 0.001 passes 0.016 from the pole x = 1 (PoleOnPathError), and at
    # t = 5 no root is tracked along the tail of d0 (BranchTrackingError)
    deformation = ["--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t"]
    for argv, message in (
            (["num", "holonomy", "--word", "g", "--t", "0.36", "--eps", "nan"] + deformation,
             "error: level fixed point on "),
            (["num", "iterated", "--word", "g", "--forms", "eta3", "--t", "0.001"],
             "error: pole within "),
            (["num", "iterated", "--word", "d0", "--forms", "eta1", "--t", "5"],
             "error: branch tracking failed ")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message), captured.err


def test_cli_verify_and_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    assert main(["verify", "melnikov"]) == 0
    captured = capsys.readouterr().out
    assert "checks passed" in captured
    out_csv = str(tmp_path / "all.csv")
    # a flag sets the certificate levels
    assert main(["verify", "repr", "--k-max", "1"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out
    # verify all --format csv writes every record of every suite as one CSV row
    assert main(["verify", "all", "--out", out_csv, "--format", "csv", "--k-max", "1"]) == 0
    assert f"report: {out_csv}" in capsys.readouterr().out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "claim", "expected", "computed", "error",
                       "tolerance", "pass", "runtime_ms"]
    checks = json.loads((tmp_path / "report_orbit_repr_melnikov_numeric.json").read_text())["checks"]
    assert [row[0] for row in rows[1:]] == [c["id"] for c in checks]
    assert len(checks) == 77  # 36 orbit, 11 repr at k = 1, 10 melnikov, 20 numeric
    assert all(row[6] == "True" for row in rows[1:])
    # a CSV has nowhere to go without --out
    assert main(["verify", "melnikov", "--format", "csv"]) == 2
    assert capsys.readouterr().err == "error: --format csv needs --out\n"


def _without_runtime(record: dict) -> dict:
    """The record with runtime_ms dropped, also from a certificate's params."""
    out = {k: v for k, v in record.items() if k != "runtime_ms"}
    out["params"] = {k: v for k, v in record["params"].items() if k != "runtime_ms"}
    return out


def test_check_subcommands_print_the_report_records(capsys):
    repr_records = [r.to_dict() for r in repr_suite(Config(k_max=2))
                    if r.id.startswith("repr.k2.")]
    num_records = {r.id: r.to_dict() for r in numeric_suite(Config())}
    cases = [
        (["repr", "check-v", "--k", "2"], repr_records[:8]),
        (["repr", "certificate", "--k", "2"], repr_records),
        (["num", "pairing", "--t", "0.25"], [num_records["num.pairing.t0.25"]]),
        (["num", "cauchy-suite", "--t", "0.36"],
         [v for k, v in num_records.items() if k.startswith("num.cauchy.")]),
        (["num", "center-check", "--A", "t", "--c1", "0", "--lambda1", "1", "--lambda", "1",
          "--t", "0.36"], [num_records["num.center.order3"]]),
    ]
    for argv, expected in cases:
        assert main(argv) == 0, argv
        printed = json.loads(capsys.readouterr().out)
        assert [_without_runtime(r) for r in printed] == \
               [_without_runtime(r) for r in expected], argv


def test_repr_suite_records():
    records = repr_suite(Config())
    assert len(records) == 65
    assert len({r.id for r in records}) == 65
    assert all(r.passed for r in records)
    assert all(r.runtime_ms > 0 for r in records), [
        r.id for r in records if not r.runtime_ms > 0]
    for k in range(1, 6):
        level = [r for r in records if r.id.startswith(f"repr.k{k}.")]
        assert len(level) == k + 10  # k + 9 certificate items and the verdict
        assert level[-1].id == f"repr.k{k}.certificate"


def test_certificate_verdict_lists_the_ids_of_its_items_and_of_the_failed_ones():
    rec = reporting.Recorder()
    depth_certificate(rec, 2)
    *items, verdict = rec.records
    assert verdict.passed and verdict.params["failed"] == []
    assert verdict.params["items"] == [r.id for r in items]
    assert set(verdict.params) == {"k", "items", "failed", "pass", "runtime_ms"}
    # a real mutant through the rep seam: z -> C^-1 moves the corner of v_4
    rep = Representation(2)
    rep.images[RhoGen.Z], rep.inverses[RhoGen.Z] = rep.inverses[RhoGen.Z], rep.images[RhoGen.Z]
    rec = reporting.Recorder()
    depth_certificate(rec, 2, rep)
    *items, verdict = rec.records
    assert not verdict.passed and not verdict.params["pass"]
    assert verdict.params["items"] == [r.id for r in items]
    assert verdict.params["failed"] == [r.id for r in items if not r.passed] == [
        "repr.k2.rho_2(v_4) = I + corner", "repr.k2.rho_2(v_4)",
        "repr.k2.rho_2(v_4) via word product", "repr.k2.corner lemma on the generator images",
        "repr.k2.v_4 outside K"]


def test_numeric_suite_records():
    records = numeric_suite(Config())
    assert len(records) == 20
    assert len({r.id for r in records}) == 20
    assert all(r.passed for r in records)
    assert all(r.runtime_ms > 0 for r in records), [
        r.id for r in records if not r.runtime_ms > 0]


def count_calls(monkeypatch, counts, module, name):
    """Count the calls of module.name under its name, wherever an orbitdepth
    module bound it."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("orbitdepth") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)


def test_one_numeric_pass_takes_its_cycles_from_one_factory(monkeypatch):
    # one CycleFactory at t0 and one oval serve every record; the Cauchy
    # suite runs once and the three num.m2 records reuse its values.
    # Iterated integrals, all distinct: 24 pairing, 1 orientation, 1 [x, z],
    # 3 Cauchy, 4 shuffle, 4 period determinant, 1 center prediction and the
    # 2 moments of the order-2 assembly (its I_13 is the Cauchy phi1 dphi3).
    counts = collections.Counter()
    count_calls(monkeypatch, counts, curves, "real_oval")
    count_calls(monkeypatch, counts, integrals, "cauchy_suite")
    count_calls(monkeypatch, counts, integrals, "iterated_integral")
    init = curves.CycleFactory.__init__

    def counted_init(self, t):
        counts["CycleFactory"] += 1
        init(self, t)

    monkeypatch.setattr(curves.CycleFactory, "__init__", counted_init)
    records = numeric_suite(Config())
    assert all(r.passed for r in records)
    assert counts == {"real_oval": 1, "CycleFactory": 1, "cauchy_suite": 1,
                      "iterated_integral": 40}


def test_determinant_record_fails_on_its_own(monkeypatch):
    # num.determinant compares the shared [x, z] double integral with the
    # period determinant; a wrong determinant leaves num.v2_double_integral green
    period_determinant = reporting.period_determinant
    monkeypatch.setattr(reporting, "period_determinant",
                        lambda *args, **kw: period_determinant(*args, **kw) + 1e-5)
    records = {r.id: r for r in numeric_suite(Config())}
    assert not records["num.determinant"].passed
    assert records["num.v2_double_integral"].passed


def test_v3_crosscheck_takes_its_prediction_from_the_wronskian_layer(monkeypatch):
    # a chain whose mv(3) is doubled turns the one record that ties the jets
    # to mv red, and only that record
    chain = melnikov.mv_chain
    monkeypatch.setattr(melnikov, "mv_chain",
                        lambda n, d: [2 * m if i == 1 else m for i, m in enumerate(chain(n, d))])
    assert [r.id for r in numeric_suite(Config()) if not r.passed] == ["num.v3_crosscheck"]


def test_run_suite_turns_a_raise_into_a_failed_record(tmp_path, monkeypatch):
    def crashing(cfg):
        raise RuntimeError("leaf transport failed")

    def fine(cfg):
        return [reporting.Recorder().add_bool("fine.check", "a passing check", True)]

    monkeypatch.setattr(reporting, "SUITES", {"crashing": crashing, "fine": fine})
    path = tmp_path / "report.json"
    code, records, out = run_suite("all", Config(), str(path))
    assert code == 1 and out == str(path)
    assert [r.id for r in records] == ["crashing.error", "fine.check"]
    assert not records[0].passed and records[1].passed
    assert records[0].computed == "RuntimeError: leaf transport failed"
    report = json.loads(path.read_text())
    assert report["pass"] is False
    assert [c["id"] for c in report["checks"]] == ["crashing.error", "fine.check"]


def test_cli_malformed_config(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
    # a bad value stops verify before any suite runs
    for suite in ("repr", "numeric", "orbit", "all"):
        for flags in (["--t0", "nan"], ["--t0", "inf"], ["--k-max", "0"], ["--k-max", "9"]):
            assert main(["verify", suite, *flags]) == 2, flags
            assert capsys.readouterr().err.startswith("error: config "), flags
            assert not out_dir.exists(), flags
    # the config file, the seed and the output directory are no options of verify
    for flags in (["--config", str(tmp_path / "cfg.json")], ["--seed", "7"],
                  ["--output-dir", str(out_dir)]):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "all", *flags])
        assert exit_.value.code == 2, flags
        assert "error: unrecognized arguments" in capsys.readouterr().err, flags
        assert not out_dir.exists(), flags


def test_cli_out_leaves_the_output_directory_alone(tmp_path, monkeypatch):
    out_dir = tmp_path / "o2"
    monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
    report = tmp_path / "r.json"
    assert main(["verify", "melnikov", "--out", str(report)]) == 0
    assert report.exists() and not out_dir.exists()
    # a CSV report still leaves its JSON report in the output directory
    assert main(["verify", "melnikov", "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    assert (out_dir / "report_melnikov.json").exists()


def test_cli_reports_a_file_it_cannot_open_as_a_usage_error(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing"
    assert main(["verify", "melnikov", "--out", str(missing / "report.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory")
    assert not missing.exists()

    def no_suite(*args, **kwargs):
        pytest.fail("a suite ran before --out was checked")

    # an --out that cannot be opened stops verify before any suite runs, so
    # it leaves no report in the output directory
    monkeypatch.setattr(cli, "run_suite", no_suite)
    out_dir = tmp_path / "reports"
    monkeypatch.setenv("OUTPUT_DIR", str(out_dir))
    for fmt in ("json", "csv"):
        assert main(["verify", "all", "--format", fmt, "--out", str(missing / f"r.{fmt}")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
    assert not out_dir.exists() and not missing.exists()
