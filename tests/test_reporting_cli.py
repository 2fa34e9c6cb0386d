import csv
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitdepth
from orbitdepth.cli import main
from orbitdepth import reporting
from orbitdepth.reporting import Config, numeric_suite, repr_suite, run_suite
from orbitdepth import words
from orbitdepth.words import D1, D3, G, Endo, Gen


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
    assert {"version", "seed", "t0", "k_max", "magnus_degree", "eps_grid", "suites",
            "timestamp", "python", "numpy", "cpu_count",
            "commit"} == set(manifest)
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["commit"] == "unknown" or re.fullmatch(r"[0-9a-f]{40}", manifest["commit"])


def _modules_loaded_by_the_package(top: str) -> str:
    """Modules under `top` that importing the CLI and reporting loads."""
    src = str(Path(orbitdepth.__file__).resolve().parents[1])
    code = ("import sys, orbitdepth.cli, orbitdepth.reporting; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.strip()


def test_package_imports_without_scipy():
    assert _modules_loaded_by_the_package("scipy") == "[]"


def test_package_imports_without_sympy():
    assert _modules_loaded_by_the_package("sympy") == "[]"


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


def test_cli_repr(capsys):
    assert main(["repr", "matrices", "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == {"0,0": "1*a", "1,1": "1", "2,2": "1"}
    assert out["B"] == {"0,0": "1", "0,1": "1", "1,1": "1", "1,2": "1", "2,2": "1"}
    assert out["C"] == {"0,0": "1", "1,1": "1", "2,2": "1*c"}
    assert main(["repr", "check-v", "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert main(["repr", "comm-scalar", "--k", "1", "--word", "x"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["m"], out["n"]) == (1, 0)
    assert main(["repr", "certificate", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


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


def test_cli_num(capsys, tmp_path):
    assert main(["num", "pairing", "--t", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(rec["pass"] for rec in out)
    assert main(["num", "cauchy-suite", "--t", "0.36"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(rec["pass"] for rec in out)
    assert main(["num", "iterated", "--word", "[x,z]", "--forms",
                 "dphi2,dphi3", "--t", "0.36"]) == 0
    out = json.loads(capsys.readouterr().out)
    val = complex(out["computed"].replace("j", "j"))
    assert abs(val.real - 39.478) < 1e-2
    assert main(["num", "holonomy", "--word", "g", "--t", "0.36", "--eps",
                 "0.0", "--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t"]) == 0
    out = json.loads(capsys.readouterr().out)
    csv_path = str(tmp_path / "samples.csv")
    assert main(["num", "fit", "--word", "g", "--t", "0.36",
                 "--a1", "t^2+2t", "--a2", "t", "--a3", "t^2+t",
                 "--csv", csv_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zero_flags"]["1"] and out["zero_flags"]["2"]
    assert os.path.exists(csv_path)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "eps,re_displacement,im_displacement"
    assert len(lines) == 13


def test_cli_verify_and_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    assert main(["verify", "melnikov"]) == 0
    captured = capsys.readouterr().out
    assert "checks passed" in captured
    out_csv = str(tmp_path / "all.csv")
    # config file with overrides
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k_max": 1, "seed": 7}))
    assert main(["verify", "repr", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    # report writes every record of every suite as one CSV row
    assert main(["report", "--out", out_csv, "--format", "csv", "--k-max", "1"]) == 0
    assert f"report: {out_csv}" in capsys.readouterr().out
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "claim", "expected", "computed", "error",
                       "tolerance", "pass", "runtime_ms"]
    checks = json.loads((tmp_path / "report_orbit_repr_melnikov_numeric.json").read_text())["checks"]
    assert [row[0] for row in rows[1:]] == [c["id"] for c in checks]
    assert len(checks) == 77  # 36 orbit, 11 repr at k = 1, 10 melnikov, 20 numeric
    assert all(row[6] == "True" for row in rows[1:])


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


def test_numeric_suite_records():
    records = numeric_suite(Config())
    assert len(records) == 20
    assert len({r.id for r in records}) == 20
    assert all(r.passed for r in records)
    assert all(r.runtime_ms > 0 for r in records), [
        r.id for r in records if not r.runtime_ms > 0]


def test_determinant_record_fails_on_its_own(monkeypatch):
    # num.determinant compares the shared [x, z] double integral with the
    # period determinant; a wrong determinant leaves num.v2_double_integral green
    period_determinant = reporting.period_determinant
    monkeypatch.setattr(reporting, "period_determinant",
                        lambda *args, **kw: period_determinant(*args, **kw) + 1e-5)
    records = {r.id: r for r in numeric_suite(Config())}
    assert not records["num.determinant"].passed
    assert records["num.v2_double_integral"].passed


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
    bad = tmp_path / "bad.json"
    texts = ["{not json", "[1, 2]"] + [json.dumps(raw) for raw in (
        {"k_max": 0}, {"k_max": 9}, {"k_max": 2.0}, {"t0": "0.36"},
        {"t0": None}, {"magnus_degree": 2}, {"seed": "7"}, {"seed": True},
        {"eps_grid": [1e-3, 2e-3, 4e-3, 8e-3]}, {"eps_grid": [1e-3, 2e-3, 4e-3, 8e-3, 0]},
        {"eps_grid": 0.001})]
    for suite in ("repr", "numeric", "orbit"):
        for text in texts:
            bad.write_text(text)
            assert main(["verify", suite, "--config", str(bad)]) == 2, text
            assert "error" in capsys.readouterr().err
            assert not out_dir.exists(), text
    # flag overrides go through the same validation
    for flags in (["--k-max", "0"], ["--eps-grid", "0.001,0.002"], ["--t0", "nan"]):
        assert main(["verify", "repr", *flags]) == 2, flags
        assert "error" in capsys.readouterr().err
        assert not out_dir.exists(), flags


@pytest.mark.parametrize("raw, key", [({"tolerances": {}}, "tolerances"),
                                      ({"samples": 5}, "samples"),
                                      ({"plots": True}, "plots")])
def test_config_rejects_unknown_keys(tmp_path, capsys, raw, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=key):
        Config.from_file(str(path))
    assert main(["verify", "melnikov", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err
