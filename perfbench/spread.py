"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload ingest --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one after another, and prints
per metric the median, the interquartile distance as a share of the
median (``statistics.quantiles(values, n=4)``) and that share over the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when
every ratio except ``setup_s``'s stays below one (below a third is the
aim).  Raw results go to ``perfbench/_work/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({name: m["value"]
                     for name, m in result["metrics"].items()})
        print(f"seed {seed}: done", file=sys.stderr, flush=True)
    out = os.path.join(ROOT, "perfbench", "_work",
                       f"spread-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(runs, handle, indent=1)
    worst = 0.0
    for name in sorted(bounds):
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:24s} median {median:12.4f}  spread {spread:7.3f}  "
              f"bound {bounds[name]:5.2f}  spread/bound {share:5.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
