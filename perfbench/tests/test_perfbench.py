"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Unit, run_pass, score, sweep_inputs  # noqa: E402


def test_sweep_inputs_repeat_for_a_seed():
    assert sweep_inputs(7) == sweep_inputs(7)
    assert sweep_inputs(7) != sweep_inputs(8)
    assert len(sweep_inputs(7)) == workloads.SWEEP_PAIRS


def test_sweep_inputs_are_valid():
    # the first 12 pairs hold every combination of shapes once
    units = run_pass("wronskian_sweep", sweep_inputs(20259)[:12])
    assert score(units) == {"checks": 24, "failed": 0, "errors": [], "correct": True}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    # a(0..11) holds b(1..9), which holds a again (4..8); a's helper runs
    # in place (same layer on top of the stack) for 2 time units.
    inner_a = tracer.span("a", lambda: advance(4))
    b = tracer.span("b", lambda: (advance(3), inner_a(), advance(1)))
    helper = tracer.span("a", lambda: advance(2))
    outer_a = tracer.span("a", lambda: (advance(1), b(), helper()))
    outer_a()

    assert clock.now == 11
    assert tracer.busy["a"] == 11  # union of a's intervals
    assert tracer.busy["b"] == 8
    assert tracer.self_time["b"] == 8 - 4
    assert tracer.self_time["a"] == (11 - 8) + 4
    assert tracer.calls == {"a": 3, "b": 1}


def test_span_closes_on_exception():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 5
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("a", boom)()
    assert tracer.busy["a"] == 5 and not tracer._stack


def test_wrong_verdict_counts_as_failed(monkeypatch, tmp_path):
    from orbitdepth import reporting

    def suite(n, wrong=0):
        def run(cfg):
            rec = reporting.Recorder()
            for i in range(n):
                rec.add_bool(f"fake.{i}", "fake check", i >= wrong)
            return rec.records
        return run

    def crashing(cfg):
        raise RuntimeError("transport failed")

    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(reporting, "SUITES", {
        "orbit": suite(36), "repr": suite(65, wrong=1), "melnikov": crashing})
    result = score(run_pass("verify_exact", reporting.Config()))
    assert result["checks"] == 111
    assert result["failed"] == 1 + 10  # one wrong verdict, ten missing checks
    assert result["errors"] == ["melnikov: RuntimeError: transport failed"]
    assert not result["correct"]


def test_count_mismatch_is_incorrect():
    assert Unit("u", 2, [True, True, True]).failed == 0
    assert not Unit("u", 2, [True, True, True]).ok
    assert Unit("u", 2, [True]).failed == 1
    assert Unit("u", 2, [True, True]).ok


def test_sweep_keeps_going_after_a_bad_input(monkeypatch):
    import orbitdepth.melnikov as melnikov

    good = sweep_inputs(3)[0]
    dependent = (("t", "2*t", 0, 1), good[1])  # alpha2 a multiple of alpha1
    monkeypatch.setattr(melnikov, "hierarchy_collapse_check", lambda d, i_max: False)
    result = score(run_pass("wronskian_sweep", [dependent, good]))
    assert result["checks"] == 4
    assert result["failed"] == 1 + 2  # the raising input and both wrong verdicts
    assert result["errors"][0].startswith("length3[0]: DependentCoefficients")


def _bindings():
    """Identity of every module-level and class-level name in the package."""
    from orbitdepth import reporting

    out = {"SUITES": {k: id(v) for k, v in reporting.SUITES.items()}}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "orbitdepth":
            continue
        out[name] = {k: id(v) for k, v in vars(mod).items()}
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == name:
                out[f"{name}.{obj.__qualname__}"] = {k: id(v) for k, v in vars(obj).items()}
    return out


def test_traced_counters_repeat_and_everything_is_restored():
    before = _bindings()
    inputs = sweep_inputs(11)[:1]
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            assert score(run_pass("wronskian_sweep", inputs))["correct"]
        runs.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["ratfunc.constructions"] > 0 and runs[0]["melnikov.mv_calls"] > 0
    assert _bindings() == before


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = {name: unit for name, (value, unit) in spans.Tracer().metrics().items()}
    reported.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert reported == declared


def test_traced_passes_repeat_counters_across_interpreters(tmp_path):
    import run

    runner = run.Runner("wronskian_sweep", 5, tmp_path, time.monotonic())
    first, second = runner.start("traced"), runner.start("traced")
    assert first["score"]["correct"] and second["score"]["correct"]
    counts = [{k: v for k, (v, unit) in p["layers"].items() if unit == "count"}
              for p in (first, second)]
    assert counts[0] == counts[1]
