"""Shared pieces: latency summaries, counter deltas, provenance, output."""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Latency that a failed operation is charged in every percentile: it
#: missed every latency limit.
MISSED = math.inf


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    a, b = sorted_values[lo], sorted_values[hi]
    if frac == 0 or a == b:
        return a
    return a + (b - a) * frac


def tail_quantile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it,
    capped at the 99th: p99 from 1000 samples up."""
    if n <= 10:
        return 0.5
    return min(0.99, 1.0 - 10.0 / n)


class HostMeter:
    """How fast the host runs right now, sampled from inside the run.

    On a 2-core virtual machine that shares its host, the same
    pure-Python loop runs 1.1 to 1.8 times slower for stretches of a
    fraction of a second to minutes, and whole ten-minute periods run a
    third slower than others.  A closed-loop timing over a 20 s window
    moves with that by 0.2 of its median, more than a regression bound
    can tolerate.  So the
    workload loops call :meth:`tick`, which every ``EVERY_S`` runs a
    fixed probe (a loop of the benchmark's own, no program code) and
    records its thread CPU time, and every end-to-end timing is scaled
    to the speed at which the probe takes ``REF_S``: an operation that
    took ``t`` wall seconds while nearby probes took ``p`` counts as
    ``t * REF_S / p``.  Thread CPU time keeps a probe from being
    charged for time another thread of the benchmark held the GIL.
    Raw wall-clock figures stay in the run report.
    """

    EVERY_S = 0.1
    PROBE_ITERS = 15000
    # Close to the fastest the probe ran (1.06 ms) on the 2-core host
    # the benchmark was tuned on: there, undisturbed, figures read as
    # plain wall-clock time.
    REF_S = 1e-3

    def __init__(self) -> None:
        self.at: List[float] = []       # probe midpoints (perf_counter)
        self.cost: List[float] = []     # probe thread-CPU seconds
        self.spent = 0.0                # wall seconds spent probing
        self._next = 0.0

    @staticmethod
    def _work() -> int:
        total = 0
        for i in range(HostMeter.PROBE_ITERS):
            total += i * i % 7
        return total

    def probe(self) -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        self._work()
        cost = time.thread_time() - cpu
        ended = time.perf_counter()
        self.at.append((started + ended) / 2)
        self.cost.append(cost)
        self.spent += ended - started
        self._next = ended + self.EVERY_S

    def tick(self) -> bool:
        """Probe if one is due; True if it did."""
        if time.perf_counter() < self._next:
            return False
        self.probe()
        return True

    def slowdown(self, at: float) -> float:
        """Probe cost over ``REF_S`` around moment ``at``: the mean of
        the probes just before and just after it."""
        if not self.cost:
            return 1.0
        i = bisect.bisect_left(self.at, at)
        near = self.cost[max(i - 1, 0):i + 1]
        return (sum(near) / len(near)) / self.REF_S

    def scale(self, seconds: float, at: float) -> float:
        """Reference-speed seconds of an operation that ended at ``at``."""
        return seconds / self.slowdown(at - seconds / 2)

    def summary(self) -> Dict[str, float]:
        costs = sorted(self.cost)
        return {"probes": len(costs), "ref_ms": self.REF_S * 1e3,
                "probe_p50_ms": percentile(costs, 0.5) * 1e3,
                "probe_min_ms": costs[0] * 1e3 if costs else math.nan,
                "probing_s": self.spent}

    def span(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end]``,
        piecewise between probes."""
        cuts = [start] + [a for a in self.at if start < a < end] + [end]
        return sum((b - a) / self.slowdown((a + b) / 2)
                   for a, b in zip(cuts, cuts[1:]))


class Latencies:
    """Per-operation latency samples (seconds); failures are MISSED."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.at: List[float] = []
        self.weight: List[int] = []

    def add(self, seconds: float, weight: int = 1) -> None:
        self.samples.append(seconds)
        self.at.append(time.perf_counter())
        self.weight.append(weight)

    def miss(self) -> None:
        self.add(MISSED, 0)

    def scaled(self, meter: Optional[HostMeter]) -> List[float]:
        """The samples at reference speed (as measured without a meter)."""
        if meter is None:
            return list(self.samples)
        return [meter.scale(s, at) for s, at in zip(self.samples, self.at)]

    def summary(self, meter: Optional[HostMeter] = None
                ) -> Dict[str, float]:
        """Median and tail in milliseconds, with the sample count and
        the percentile the tail stands for."""
        values = sorted(self.scaled(meter))
        q = tail_quantile(len(values))
        return {"n": len(values), "tail_q": q,
                "p50_ms": percentile(values, 0.5) * 1000.0,
                "tail_ms": percentile(values, q) * 1000.0}


def finite(value: float) -> float:
    """JSON has no infinity: a missed latency prints as 1e9 ms."""
    if value is None or math.isnan(value):
        return 0.0
    return value if math.isfinite(value) else 1e9


def counter_deltas(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Dict[str, float]:
    """Registry snapshot deltas: counters, plus ``<hist>.count`` and
    ``<hist>.sum`` for every histogram."""
    def flat(snapshot: Dict[str, Any]) -> Dict[str, float]:
        out = dict(snapshot.get("counters", {}))
        for name, summary in snapshot.get("histograms", {}).items():
            out[f"{name}.count"] = summary.get("count", 0)
            out[f"{name}.sum"] = summary.get("sum", 0.0)
        return out
    a, b = flat(before), flat(after)
    return {name: b[name] - a.get(name, 0) for name in b}


def model_stats(disks: Iterable[Any]) -> Dict[str, float]:
    """Summed disk-model counters of several simulated disks.  Modeled
    time is never mixed into wall-clock figures (DESIGN.md §2)."""
    out = {"modeled_s": 0.0, "seeks": 0, "bytes_read": 0,
           "read_s": 0.0, "write_s": 0.0}
    for disk in disks:
        stats = disk.model.stats
        out["modeled_s"] += disk.model.elapsed_s
        out["seeks"] += stats.seeks
        out["bytes_read"] += stats.bytes_read
        out["read_s"] += stats.read_time_s
        out["write_s"] += stats.write_time_s
    return out


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def provenance(root: str, seed: int, seconds: int, workload: str,
               trace: bool) -> Dict[str, Any]:
    return {"workload": workload, "seed": seed, "run_seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(root),
            "started_unix": time.time()}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git (an
    exported source tree has no ``.git``: "unknown")."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def load_declared(root: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def emit(metrics: Dict[str, float], units: Dict[str, str], correct: bool,
         attempted: int, failed: int) -> str:
    """The last stdout line: exactly the declared metrics, with units."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    line = json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": finite(metrics[name]),
                           "unit": units[name]}
                    for name in sorted(units)}})
    print(line, flush=True)
    return line
