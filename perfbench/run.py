"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads: ``ingest``, ``dashboard_read``, ``remote_mixed`` (see
``perfbench/README.md`` for why each exists).  The program is driven
only through its public API, from ``src/`` of the checkout this file
sits in.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics declared in ``BENCHMARK.json``, with ``--trace 1``
the per-layer ones from a run with span wrappers installed.  A full
report (provenance, sample counts, span trees, every metric) goes to
``perfbench/_work/reports/``.  Any oracle mismatch or failed operation
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ingest", "dashboard_read", "remote_mixed")
TAILS = ("insert_p99_ms", "range_query_p99_ms", "latest_p99_ms",
         "rollup_p99_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench import common, harness

    e2e_units, layer_units = common.load_declared(ROOT)
    module = importlib.import_module(f"perfbench.{args.workload}")
    run = harness.Run(ROOT, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    report = {"provenance": common.provenance(
        ROOT, args.seed, args.seconds, args.workload, bool(args.trace))}
    try:
        module.run(run)
    finally:
        run.cleanup()
    e2e = run.end_to_end()
    # Tails move with the host far more than medians do, even at
    # reference speed: they are reported with the per-layer figures,
    # without a bound.  So is the generator's lag.
    for name in TAILS:
        run.layers[name] = e2e.pop(name)
    run.layers["generator_lag_p99_ms"] = run.generator_lag_ms()
    correct = run.failed == 0
    report.update({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures,
        "failed_fraction": common.ratio(run.failed, run.attempted),
        "samples": run.sample_counts(),
        "setup_reps_wall_s": [end - start for start, end in run.setup_spans],
        "host": run.meter.summary(),
        "end_to_end": e2e, "end_to_end_wall": run.end_to_end(scaled=False),
        "per_layer": run.layers, "detail": run.detail,
        "finished_unix": time.time()})
    out_dir = os.path.join(ROOT, "perfbench", "_work", "reports")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.trace:
        common.emit(run.layers, layer_units, correct, run.attempted,
                    run.failed)
    else:
        common.emit(e2e, e2e_units, correct, run.attempted, run.failed)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
