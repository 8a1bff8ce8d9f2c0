"""Tracing overhead: the traced minus the untraced end-to-end numbers.

    python3 perfbench/overhead.py --workload ingest --seed 1

Runs ``run.py`` untraced and then traced with the same seed and run
length, reads both reports (a traced run still measures every
end-to-end figure, it just prints the per-layer ones) and prints, per
metric, both values, their difference and the traced/untraced ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(ROOT, "perfbench", "_work", "reports",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = args.seconds or json.load(handle)["run_seconds"]
    plain = report(args.workload, args.seed, seconds, 0)["end_to_end"]
    traced = report(args.workload, args.seed, seconds, 1)["end_to_end"]
    print(f"{'metric':24s} {'untraced':>12s} {'traced':>12s} "
          f"{'traced-untraced':>16s} {'ratio':>7s}")
    for name in sorted(plain):
        a, b = plain[name], traced[name]
        ratio = b / a if a else float("nan")
        print(f"{name:24s} {a:12.4f} {b:12.4f} {b - a:16.4f} {ratio:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
