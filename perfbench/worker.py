"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --out FILE

MODE is `setup` (import and make inputs only), `plain` (one untraced pass)
or `traced` (one pass under perfbench/spans.py).  The result goes to FILE
as JSON.  `ready` is the CLOCK_MONOTONIC reading at the end of set-up, which
run.py compares with its own reading taken just before starting this
process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import workloads
    import orbitdepth.reporting  # noqa: F401  numpy, scipy and sympy load here

    inputs = workloads.make_inputs(args.workload, args.seed)
    result = {"ready": time.monotonic()}
    if args.mode != "setup":
        tracing = contextlib.nullcontext()
        if args.mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracing = spans.instrument(tracer)
        with tracing:
            start = time.perf_counter()
            units = workloads.run_pass(args.workload, inputs)
            result["wall_s"] = time.perf_counter() - start
        if args.mode == "traced":
            result["layers"] = tracer.metrics()
        result["score"] = workloads.score(units)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import numpy, scipy, sympy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "sympy": sympy.__version__}
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
