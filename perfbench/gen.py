"""Seeded input generators and the result oracle's model.

Everything a workload feeds the database comes from here, derived only
from ``--seed`` (plus, for the served workload, the wall-clock anchor
the server's own clock forces on timestamps).  Rows follow the
UsageGrabber shape of the paper (§4.1.1): key ``(network, device, ts)``
and value ``(prev_ts, counter, rate)``, one sample per device per poll.

The model side keeps, per device, the rows in timestamp order, so the
oracle can recompute any dashboard answer: a device graph is a slice,
a network graph is the concatenation of its devices' slices (key
order), ``latest`` is the last row, and a rollup is a bucketed sum.
"""

from __future__ import annotations

import bisect
import heapq
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

SECOND = 1_000_000
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR
WEEK = 7 * DAY

#: Fixed device-time anchor for the embedded workloads: Thursday
#: 2026-01-01 22:00 UTC, two hours before a day boundary, so an ingest
#: run crosses 4-hour periods, a day and (for dashboard_read's history)
#: a week boundary.
EMBEDDED_T0 = 1767304800 * SECOND

#: Plain byte size of one usage row: six 8-byte values.  The logical
#: user bytes behind ``space_amp``.
ROW_BYTES = 48

Row = Tuple[int, int, int, int, int, float]


def sub_rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose; string seeds hash with SHA-512,
    so the stream is the same in every process."""
    return random.Random(f"perfbench:{seed}:{purpose}")


class Fleet:
    """``networks`` x ``per_network`` devices, in key order."""

    def __init__(self, networks: int, per_network: int):
        self.networks = [1000 + n for n in range(networks)]
        self.per_network = per_network
        self.devices: List[Tuple[int, int]] = [
            (network, network * 100 + j)
            for network in self.networks for j in range(per_network)]

    def devices_of(self, network: int) -> List[Tuple[int, int]]:
        start = (network - 1000) * self.per_network
        return self.devices[start:start + self.per_network]


class DeviceCounters:
    """Cumulative byte counters, one per device, advanced per sample."""

    def __init__(self, rng: random.Random, fleet: Fleet):
        self.rng = rng
        self.counter = {dev: rng.randrange(1 << 30) for dev in fleet.devices}
        self.prev_ts: Dict[Tuple[int, int], int] = {}

    def sample(self, dev: Tuple[int, int], ts: int) -> Row:
        delta = self.rng.randrange(1 << 20)
        counter = self.counter[dev] + delta
        self.counter[dev] = counter
        prev = self.prev_ts.get(dev, ts - MINUTE)
        self.prev_ts[dev] = ts
        # Integer-valued rate: sums stay exact in any order.
        return (dev[0], dev[1], ts, prev, counter, float(delta // 60))


# ------------------------------------------------------------- ingest

def ingest_batches(seed: int, fleet: Fleet, t0: int = EMBEDDED_T0,
                   batch_rows: int = 200, late_share: float = 0.02
                   ) -> Iterator[Tuple[int, List[Row]]]:
    """Endless ``(device_now, rows)`` batches of a one-minute poller.

    Each minute every device yields one sample stamped inside that
    minute.  A ``late_share`` of samples is held back 30 to 300 minutes
    before delivery, so a batch can carry rows of older periods and
    several memtables fill at once (§3.4.3).  ``device_now`` is the end
    of the delivery minute of the batch's last row: the virtual clock
    the engine runs on follows it.

    The seed sets the counter values; when each sample is taken and
    which samples arrive late, and by how much, is the same for every
    seed.  That shape decides the tablet layout and so what an insert's
    uniqueness probes cost: drawn from the seed, it moved the median
    insert latency by up to 1.6 times between seeds.
    """
    counters = DeviceCounters(sub_rng(seed, "ingest"), fleet)
    rng = sub_rng(0, "ingest-shape")
    offsets = {dev: rng.randrange(MINUTE - SECOND) for dev in fleet.devices}
    held: List[Tuple[int, int, Row]] = []  # (due minute, order, row)
    order = 0
    pending: List[Row] = []
    minute = 0
    while True:
        delivered: List[Row] = []
        for dev in fleet.devices:
            row = counters.sample(dev, t0 + minute * MINUTE + offsets[dev])
            if rng.random() < late_share:
                due = minute + rng.randint(30, 300)
                heapq.heappush(held, (due, order, row))
                order += 1
            else:
                delivered.append(row)
        while held and held[0][0] <= minute:
            delivered.append(heapq.heappop(held)[2])
        device_now = t0 + (minute + 1) * MINUTE
        pending.extend(delivered)
        while len(pending) >= batch_rows:
            yield device_now, pending[:batch_rows]
            pending = pending[batch_rows:]
        minute += 1


# ---------------------------------------------------------- history

def history_batches(seed: int, fleet: Fleet, start: int, end: int,
                    interval: int, batch_rows: int = 200
                    ) -> Iterator[Tuple[int, List[Row]]]:
    """On-time samples every ``interval`` in ``[start, end)``, in time
    order, as ``(device_now, rows)`` batches."""
    rng = sub_rng(seed, f"history:{start}:{interval}")
    counters = DeviceCounters(rng, fleet)
    offsets = {dev: rng.randrange(interval // 2) for dev in fleet.devices}
    pending: List[Row] = []
    ts0 = start
    while ts0 < end:
        for dev in fleet.devices:
            pending.append(counters.sample(dev, ts0 + offsets[dev]))
            if len(pending) == batch_rows:
                yield ts0 + interval, pending
                pending = []
        ts0 += interval
    if pending:
        yield end, pending


# -------------------------------------------------------------- model

class Model:
    """Per-device rows in timestamp order: the oracle's ground truth."""

    def __init__(self) -> None:
        self.rows: Dict[Tuple[int, int], List[Row]] = {}
        self.ts: Dict[Tuple[int, int], List[int]] = {}

    def add(self, rows: Sequence[Row]) -> None:
        for row in rows:
            dev = (row[0], row[1])
            series = self.rows.get(dev)
            if series is None:
                series = self.rows[dev] = []
                self.ts[dev] = []
            stamps = self.ts[dev]
            if not stamps or row[2] > stamps[-1]:
                series.append(row)
                stamps.append(row[2])
            else:  # a late sample: keep timestamp order
                at = bisect.bisect_left(stamps, row[2])
                series.insert(at, row)
                stamps.insert(at, row[2])

    def row_count(self) -> int:
        return sum(len(series) for series in self.rows.values())

    def device_range(self, dev: Tuple[int, int], lo: int, hi: int
                     ) -> List[Row]:
        """Rows of one device with ``lo <= ts <= hi``."""
        stamps = self.ts.get(dev)
        if not stamps:
            return []
        a = bisect.bisect_left(stamps, lo)
        b = bisect.bisect_right(stamps, hi)
        return self.rows[dev][a:b]

    def range(self, devices: Sequence[Tuple[int, int]], lo: int, hi: int
              ) -> List[Row]:
        """Rows of several devices (given in key order), key order."""
        out: List[Row] = []
        for dev in devices:
            out.extend(self.device_range(dev, lo, hi))
        return out

    def latest(self, dev: Tuple[int, int]) -> Optional[Row]:
        series = self.rows.get(dev)
        return series[-1] if series else None

    def rollup(self, devices: Sequence[Tuple[int, int]], lo: int, hi: int,
               width: int) -> List[Tuple[int, int, int]]:
        """``(bucket, COUNT(*), SUM(counter))`` over ``lo <= ts < hi``."""
        buckets: Dict[int, List[int]] = {}
        for dev in devices:
            for row in self.device_range(dev, lo, hi - 1):
                slot = buckets.setdefault(row[2] // width * width, [0, 0])
                slot[0] += 1
                slot[1] += row[4]
        return [(bucket, slot[0], slot[1])
                for bucket, slot in sorted(buckets.items())]


def digest(rows: Sequence[tuple]) -> Tuple[int, int]:
    """Compact fingerprint of an answer: ``(len, hash)``.  Rows hold
    only ints and floats, whose hashes do not depend on PYTHONHASHSEED."""
    return len(rows), hash(tuple(rows))


# ------------------------------------------------------ served feed

class ServedFeed:
    """History plus an open-loop live schedule for ``remote_mixed``.

    The server runs on the wall clock, so timestamps hang off ``t0``,
    the live start rounded down to the minute; for a given ``t0`` the
    inputs are fixed by the seed.  History is one sample per device per
    minute before ``t0``.  Live batch ``i`` is due ``i * gap_us`` after
    the window opens and carries ``batch_rows`` consecutive devices of
    the fleet, stamped ``t0 + i * gap_us + j`` - so a row's batch is
    ``(ts - t0) // gap_us``, and each device's live rows arrive in
    batch order.
    """

    def __init__(self, seed: int, fleet: Fleet, t0: int, history_s: int,
                 batch_rows: int, rows_per_s: int):
        self.fleet = fleet
        self.t0 = t0
        self.batch_rows = batch_rows
        self.gap_us = round(batch_rows * SECOND / rows_per_s)
        self.rounds = len(fleet.devices) // batch_rows
        if self.rounds * batch_rows != len(fleet.devices):
            raise ValueError("batch_rows must divide the fleet size")
        rng = sub_rng(seed, "served")
        self.counters = DeviceCounters(rng, fleet)
        self.history: List[List[Row]] = []
        pending: List[Row] = []
        for minute in range(history_s // 60, 0, -1):
            for dev in fleet.devices:
                pending.append(self.counters.sample(
                    dev, t0 - minute * MINUTE + rng.randrange(MINUTE // 2)))
                if len(pending) == 500:
                    self.history.append(pending)
                    pending = []
        if pending:
            self.history.append(pending)

    def live_batch(self, index: int) -> List[Row]:
        """Batch ``index``; call in order (counters advance)."""
        first = (index % self.rounds) * self.batch_rows
        base = self.t0 + index * self.gap_us
        return [self.counters.sample(dev, base + j) for j, dev in
                enumerate(self.fleet.devices[first:first + self.batch_rows])]

    def batch_of(self, ts: int) -> int:
        """The live batch a row belongs to (-1 for history)."""
        return -1 if ts < self.t0 else (ts - self.t0) // self.gap_us

    def live_count(self, dev_pos: int, batches: int) -> int:
        """Live rows of the device at fleet position ``dev_pos`` in
        batches ``0 .. batches - 1``."""
        slot = dev_pos // self.batch_rows
        if batches <= slot:
            return 0
        return (batches - slot + self.rounds - 1) // self.rounds
