"""orbitdepth benchmark: wall time to a fully checked report, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its `src/`.  Every pass runs in a fresh interpreter (perfbench/worker.py),
one at a time, with BLAS threads pinned to one, as `orbitdepth verify` runs
for a user.  Workloads (perfbench/workloads.py):

* verify_exact: `run_suite` for orbit, repr and melnikov at Config(seed=N);
* verify_numeric: `run_suite("numeric")` at Config(seed=N);
* wronskian_sweep: seeded length-3 and center deformations, each checked.

With --trace 0, passes are started until S seconds have gone by (at least
one), and the end-to-end metrics are medians over them.  A verify_exact
pass takes about the 20 s of BENCHMARK.json, so there wall_s and
peak_rss_mb mostly come from one pass per run, sometimes from two:

* wall_s: first call into the package to the last check verdict;
* setup_s: interpreter start to the first timed call (imports and inputs),
  over the passes plus set-up-only starts, at least five in all;
* peak_rss_mb: peak resident memory of a pass's interpreter.

Failed checks, counting missing ones, go to the result's `failed` out of
`attempted`.  With --trace 1 one untraced and one traced pass run, and the
per-layer metrics of perfbench/spans.py are reported with the traced wall
time and its overhead over the untraced pass.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout; git is kept from looking above it."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Starts worker interpreters one at a time inside a scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path, started: float):
        self.workload, self.seed, self.scratch, self.started = workload, seed, scratch, started
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED="0",
            OUTPUT_DIR=str(scratch),  # run_suite writes its report_*.json here
            TMPDIR=str(scratch),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def start(self, mode: str) -> dict:
        self.count += 1
        out = self.scratch / f"pass{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(out)]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError(f"out of time before {mode} pass {self.count}")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass {self.count} did not end within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass {self.count} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - spawned
        return result


def measure(runner: Runner, seconds: float) -> tuple:
    """Untraced passes for `seconds`, then set-up-only starts up to the minimum."""
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(runner.start("plain"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.start("setup")["setup_s"])
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"# wall_s over {len(walls)} passes: {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"# setup_s over {len(setups)} starts: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"# peak_rss_mb over {len(rss)} passes: {', '.join(f'{r:.1f}' for r in rss)}")
    return passes, metrics


def trace(runner: Runner) -> tuple:
    """One untraced and one traced pass; per-layer metrics and overhead."""
    plain = runner.start("plain")
    traced = runner.start("traced")
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"# tracing overhead: {overhead:+.3f} s (traced {traced['wall_s']:.3f} s, "
          f"untraced {plain['wall_s']:.3f} s)")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=20259)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM unwind normally: the running pass is killed and waited for,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "orbitdepth" / "__init__.py").is_file():
        print(f"perfbench: no orbitdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "seed": args.seed, "commit": git_commit(ROOT), "workload": wl.name}
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            runner = Runner(wl.name, args.seed, Path(scratch), started)
            if args.trace:
                passes, metrics = trace(runner)
            else:
                passes, metrics = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env.update(passes[0]["versions"])
    scores = [p["score"] for p in passes]
    attempted = sum(s["checks"] for s in scores)
    failed = sum(s["failed"] for s in scores)
    print("# environment: " + json.dumps(env))
    for metric, layers in wl.moves.items():
        print(f"# on {wl.name}, {metric} should move with: {', '.join(layers)}")
    if wl.unchanged:
        print(f"# on {wl.name}, predicted unchanged: {', '.join(wl.unchanged)}")
    print(f"# checks_failed = {failed} of {attempted} over {len(passes)} passes "
          f"({wl.expected_checks} expected per pass)")
    for error in sorted({e for s in scores for e in s["errors"]}):
        print(f"# error: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": all(s["correct"] for s in scores),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
