"""What every workload shares: the run record, the embedded dashboard
read mix with its oracle, and the end-to-end metric assembly."""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import gen
from .common import (HostMeter, Latencies, dir_bytes, percentile, ratio,
                     tail_quantile)
from .trace import Recorder, install

_now = time.perf_counter


class Run:
    """Everything one benchmark run measures, plus its context."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int,
                 trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, "perfbench", "_work",
                                 f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.recorder: Optional[Recorder] = None
        if trace:
            self.recorder = Recorder()
            install(self.recorder)
        self.meter = HostMeter()
        # Wall intervals: set-up repetitions, insert and read phases.
        self.setup_spans: List[Tuple[float, float]] = []
        self.insert_spans: List[Tuple[float, float]] = []
        self.read_spans: List[Tuple[float, float]] = []
        # An open-loop writer's row rate is set by its schedule, not by
        # the host: it stays in wall-clock seconds.
        self.open_loop_insert = False
        self.insert = Latencies()
        self.range = Latencies()
        self.latest = Latencies()
        self.rollup = Latencies()
        self.slice = Latencies()
        self.lag = Latencies()
        # Two threads (remote_mixed's writer and reader) count here.
        self._count_lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.rows_acked = 0
        self.reads_done = 0
        self.space_amp = 0.0
        self.peak_rss_mb = 0.0
        self.layers: Dict[str, float] = {}
        self.detail: Dict[str, Any] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def attempt(self) -> None:
        with self._count_lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._count_lock:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        """The end-to-end figures: at the reference host speed of
        :class:`HostMeter` (``scaled``), or in plain wall-clock time."""
        meter = self.meter if scaled else None

        def seconds(spans: List[Tuple[float, float]],
                    wall: bool = False) -> float:
            if meter is None or wall:
                return sum(end - start for start, end in spans)
            return sum(meter.span(start, end) for start, end in spans)

        scans = self.range.scaled(meter) + self.slice.scaled(meter)
        scan_rows = sum(self.range.weight) + sum(self.slice.weight)
        out = {
            "setup_s": statistics.median(
                seconds([span]) for span in self.setup_spans),
            "ingest_rows_per_s": ratio(self.rows_acked, seconds(
                self.insert_spans, wall=self.open_loop_insert)),
            "read_ops_per_s": ratio(self.reads_done,
                                    seconds(self.read_spans)),
            "scan_rows_per_s": ratio(scan_rows, sum(scans)),
            "space_amp": self.space_amp,
            "peak_rss_mb": self.peak_rss_mb,
        }
        for name, lat in (("insert", self.insert),
                          ("range_query", self.range),
                          ("latest", self.latest), ("rollup", self.rollup)):
            summary = lat.summary(meter)
            out[f"{name}_p50_ms"] = summary["p50_ms"]
            out[f"{name}_p99_ms"] = summary["tail_ms"]
        return out

    def generator_lag_ms(self) -> float:
        """Tail of how late the generator sent (a per-layer figure)."""
        lag = sorted(self.lag.samples)
        return percentile(lag, tail_quantile(len(lag))) * 1000.0

    def sample_counts(self) -> Dict[str, Dict[str, float]]:
        counts = {name: lat.summary() for name, lat in (
            ("insert", self.insert), ("range_query", self.range),
            ("latest", self.latest), ("rollup", self.rollup),
            ("generator_lag", self.lag))}
        for summary in counts.values():
            summary.pop("p50_ms")
            summary.pop("tail_ms")
        return counts


def timed_setup(run: Run, build: Callable[[int], Any],
                discard: Callable[[Any], None], reps: int = 3) -> Any:
    """Set the workload up ``reps`` times from nothing, keep the last.

    Each repetition is timed on its own; ``setup_s`` is their median,
    so work moved into set-up shows without one slow start deciding it.
    """
    state = None
    for rep in range(reps):
        if state is not None:
            discard(state)
        run.meter.probe()
        started = _now()
        state = build(rep)
        run.setup_spans.append((started, _now()))
        run.meter.probe()
    return state


# ------------------------------------------------- the dashboard mix

class Deck:
    """Cards dealt from a shuffled deck, reshuffled when empty.  A closed
    loop drawing op kinds (or devices) this way issues them in the same
    proportions in every run, instead of a binomial sample of them, so a
    percentile over a mix of costs does not move with the luck of the
    draw."""

    def __init__(self, rng: Any, cards: Sequence[Any]):
        self.rng = rng
        self.cards = list(cards)
        self.hand: List[Any] = []

    @classmethod
    def weighted(cls, rng: Any, weights: Sequence[Tuple[str, int]]
                 ) -> "Deck":
        return cls(rng, [kind for kind, weight in weights
                         for _ in range(weight)])

    def draw(self) -> Any:
        if not self.hand:
            self.hand = list(self.cards)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


WIDTH_HOUR = gen.HOUR


class DashboardMix:
    """Seeded dashboard read mix over a fixed embedded dataset.

    Device graph (one device, last day), network graph (one network,
    last 6 h), ``latest`` per device, hourly ``TIME_BUCKET`` rollup per
    network over the last day, and an all-keys slice of the first half
    of one of the last four hours (hourly history has one sample per
    device there).  Answers are fingerprinted while timing and checked
    against the model afterwards, so checking costs no timed work.
    """

    # Device graphs dominate the range queries, so the range p50 sits
    # inside their cost rather than on the step between the (cheaper)
    # network graphs and them.
    WEIGHTS = (("device", 60), ("network", 10), ("latest", 15),
               ("rollup", 10), ("slice", 5))

    def __init__(self, seed: int, purpose: str, fleet: gen.Fleet,
                 now: int, table: str = "usage"):
        self.rng = gen.sub_rng(seed, purpose)
        self.fleet = fleet
        self.now = now
        self.table = table
        self.deck = Deck.weighted(self.rng, self.WEIGHTS)
        self.devices = Deck(self.rng, fleet.devices)
        self.networks = Deck(self.rng, fleet.networks)
        self.hours = Deck(self.rng, range(1, 5))
        self.answers: List[Tuple[str, tuple, Any]] = []

    def plan(self, counts: Dict[str, int]) -> List[str]:
        """A shuffled op sequence with exactly ``counts`` of each kind."""
        kinds = [kind for kind, count in counts.items()
                 for _ in range(count)]
        self.rng.shuffle(kinds)
        return kinds

    def next_op(self, kind: Optional[str] = None) -> Tuple[str, tuple]:
        if kind is None:
            kind = self.deck.draw()
        if kind in ("device", "latest"):
            item = self.devices.draw()
        elif kind in ("network", "rollup"):
            item = self.networks.draw()
        else:
            item = self.now - self.hours.draw() * gen.HOUR
        return kind, self.args_for(kind, item)

    def args_for(self, kind: str, item: Any) -> tuple:
        """The op's arguments for one device, network or slice start."""
        now = self.now
        if kind == "device":
            return (item, now - gen.DAY, now)
        if kind == "network":
            return (item, now - 6 * gen.HOUR, now)
        if kind == "latest":
            return (item,)
        if kind == "rollup":
            return (item, now - gen.DAY, now)
        return (item, item + 30 * gen.MINUTE - 1)

    def cover(self, run: Run, db: Any, sql: Any, kind: str) -> None:
        """Untimed: ``kind`` once for every device (or network), checked
        like any other answer."""
        items = (self.fleet.devices if kind in ("device", "latest")
                 else self.fleet.networks)
        for item in items:
            self.timed_op(run, db, sql, record=False,
                          op=(kind, self.args_for(kind, item)))

    def execute(self, db: Any, sql: Any, kind: str, args: tuple
                ) -> Tuple[Any, int]:
        """Run one op; returns ``(fingerprint, rows returned)``."""
        from repro.core.row import KeyRange, Query, TimeRange

        if kind == "device":
            dev, lo, hi = args
            rows = db.query(self.table, Query(KeyRange.prefix(dev),
                                           TimeRange.between(lo, hi))).rows
        elif kind == "network":
            network, lo, hi = args
            rows = db.query(self.table, Query(KeyRange.prefix((network,)),
                                           TimeRange.between(lo, hi))).rows
        elif kind == "slice":
            lo, hi = args
            rows = db.query(self.table, Query(KeyRange.all(),
                                           TimeRange.between(lo, hi))).rows
        elif kind == "latest":
            row = db.latest(self.table, args[0])
            return row, 1
        else:
            network, lo, hi = args
            rows = sql.execute(rollup_sql(self.table, network, lo, hi)).rows
        return gen.digest(rows), len(rows)

    def expected(self, model: gen.Model, kind: str, args: tuple) -> Any:
        if kind == "device":
            dev, lo, hi = args
            return gen.digest(model.device_range(dev, lo, hi))
        if kind == "network":
            network, lo, hi = args
            return gen.digest(model.range(self.fleet.devices_of(network),
                                          lo, hi))
        if kind == "slice":
            lo, hi = args
            return gen.digest(model.range(self.fleet.devices, lo, hi))
        if kind == "latest":
            return model.latest(args[0])
        network, lo, hi = args
        return gen.digest(model.rollup(self.fleet.devices_of(network), lo,
                                       hi, WIDTH_HOUR))

    def timed_op(self, run: Run, db: Any, sql: Any, record: bool = True,
                 kind: Optional[str] = None,
                 op: Optional[Tuple[str, tuple]] = None) -> float:
        """One closed-loop op (the next of the mix, one of ``kind``, or
        ``op`` itself), timed and recorded into ``run``; returns the
        moment it was sent."""
        kind, args = op if op is not None else self.next_op(kind)
        run.attempt()
        started = _now()
        try:
            answer, nrows = self.execute(db, sql, kind, args)
        except Exception as exc:  # counted, never hidden
            run.fail(f"{kind}{args}: {type(exc).__name__}: {exc}")
            if record:
                _bucket(run, kind).miss()
            return started
        elapsed = _now() - started
        self.answers.append((kind, args, answer))
        if not record:
            return started
        run.reads_done += 1
        _bucket(run, kind).add(elapsed, nrows)
        return started

    def verify(self, run: Run, model: gen.Model) -> None:
        for kind, args, answer in self.answers:
            if answer != self.expected(model, kind, args):
                run.fail(f"wrong answer: {kind}{args}")
        self.answers = []


class History:
    """A fixed dashboard dataset: hourly UsageGrabber history for
    ``fleet`` over the ``days`` before ``gen.EMBEDDED_T0``, loaded
    through the insert path with maintenance in step with device time,
    quiesced, and reopened with the read cache at ``1 / cache_share``
    of the bytes on disk and 4 KiB blocks.  The cache charges decoded
    bytes plus a per-row overhead, so it holds a few blocks and most
    block reads miss.  The ``latest`` hot-row cache is off, so
    ``latest`` times the lookup itself rather than a dict hit."""

    BLOCK_BYTES = 4 * 1024
    MAINTAIN_EVERY = 25          # batches between maintenance passes

    def __init__(self, seed: int, fleet: gen.Fleet, days: int,
                 cache_share: int, table: str = "usage"):
        self.seed = seed
        self.fleet = fleet
        self.now = gen.EMBEDDED_T0
        self.start = self.now - days * gen.DAY
        self.cache_share = cache_share
        self.table = table
        self.model = gen.Model()
        for _device_now, rows in self.batches():
            self.model.add(rows)

    def batches(self):
        return gen.history_batches(self.seed, self.fleet, self.start,
                                   self.now, gen.HOUR)

    def load(self, run: Run, data: str, timed: bool) -> int:
        """Load into ``data``; with ``timed`` every insert batch counts
        in ``run``'s insert figures.  Returns the bytes on disk."""
        from repro import EngineConfig, FileStorage, LittleTable, SimulatedDisk
        from repro.dashboard.schemas import usage_schema
        from repro.util.clock import VirtualClock

        clock = VirtualClock(self.start)
        loader = LittleTable(
            disk=SimulatedDisk(FileStorage(data)), clock=clock,
            config=EngineConfig(block_size_bytes=self.BLOCK_BYTES))
        table = loader.create_table(self.table, usage_schema())
        started = _now()
        for index, (device_now, rows) in enumerate(self.batches()):
            run.meter.tick()
            clock.set(max(device_now, clock.now()))
            run.attempt()
            sent = _now()
            try:
                table.insert_tuples(rows)
            except Exception as exc:  # counted, never hidden
                run.fail(f"load: {type(exc).__name__}: {exc}")
                if timed:
                    run.insert.miss()
                continue
            if timed:
                run.insert.add(_now() - sent, len(rows))
                run.rows_acked += len(rows)
            if index % self.MAINTAIN_EVERY == self.MAINTAIN_EVERY - 1:
                loader.maintenance()
        clock.set(max(self.now, clock.now()))
        loader.flush_all()
        loader.maintenance_until_quiet()
        if timed:
            run.insert_spans.append((started, _now()))
        loader.close()
        return dir_bytes(data)

    def open(self, data: str, on_disk: int) -> Tuple[Any, Any]:
        """``(db, sql)`` over a loaded copy, frozen at the last hour."""
        from repro import EngineConfig, FileStorage, LittleTable, SimulatedDisk
        from repro.sqlapi import SqlSession
        from repro.util.clock import VirtualClock

        db = LittleTable(
            disk=SimulatedDisk(FileStorage(data)),
            clock=VirtualClock(self.now),
            config=EngineConfig(
                block_size_bytes=self.BLOCK_BYTES,
                read_cache_bytes=on_disk // self.cache_share,
                latest_cache_entries=0))
        return db, SqlSession(db)

    def mix(self, purpose: str) -> "DashboardMix":
        return DashboardMix(self.seed, purpose, self.fleet, self.now,
                            self.table)


def _bucket(run: Run, kind: str) -> Latencies:
    if kind in ("device", "network"):
        return run.range
    if kind == "latest":
        return run.latest
    if kind == "rollup":
        return run.rollup
    return run.slice  # slices count in scan_rows_per_s only


def rollup_sql(table: str, network: int, lo: int, hi: int) -> str:
    return (f"SELECT TIME_BUCKET(ts, {WIDTH_HOUR}), COUNT(*), SUM(counter) "
            f"FROM {table} WHERE network = {network} AND ts >= {lo} "
            f"AND ts < {hi} GROUP BY TIME_BUCKET(ts, {WIDTH_HOUR})")


def read_loop(run: Run, mix: DashboardMix, db: Any, sql: Any,
              seconds: float, record: bool = True) -> None:
    """Closed-loop reader for ``seconds``; a recorded loop is one of
    ``run``'s read phases."""
    started = _now()
    deadline = started + seconds
    done = started
    while done < deadline:
        if run.meter.tick():
            done = _now()  # the probe is not the generator's lag
        sent = mix.timed_op(run, db, sql, record)
        if record and done > started:
            # Closed loop: an op is due when the previous one returns;
            # the lag is the harness's own time between the two.
            run.lag.add(sent - done)
        done = _now()
    if record:
        run.read_spans.append((started, done))
