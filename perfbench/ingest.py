"""Workload ``ingest``: UsageGrabber-shaped writes into an embedded
engine at tier ``wal``.

One closed-loop writer sends 200-row batches keyed (network, device,
ts) for 100 devices.  A share of samples arrives late, so several
memtables fill at once.  The engine runs on a virtual clock that
follows device time, and the writer runs a maintenance pass (flush by
age, merges) every ``MAINTAIN_EVERY`` batches, timed as part of the
batch that ran it: a repetition covers about three device-hours, so
flushes, merges and the midnight period boundary all happen in it.
The write path does almost all the work: ``core.table`` insert and its
uniqueness probes, ``core.memtable``, codec encode, ``core.wal``, and
flush/merge through ``core.tablet`` and ``core.merge``.

The window is a run of repetitions of the same work: the first
``REPEAT_BATCHES`` batches of the seeded stream into a fresh engine,
until ``--seconds`` have passed.  Every repetition therefore costs the
same, however far the run gets; the background scheduler is not used,
because with it the work done in a window depended on how its thread
interleaved with the writer's.  After each repetition the engine's
row count is checked; after the last, the engine is quiesced and the
oracle checks every row and every device's and network's dashboard
answers.  The read metrics on this workload come from a fixed-size
read-back, before the window, over a small history dataset loaded in
set-up (``harness.History``).
"""

from __future__ import annotations

import gc
import time

from . import gen
from .common import counter_deltas, dir_bytes, model_stats, self_peak_rss_mb
from .harness import DashboardMix, History, Run, timed_setup
from .ledger import per_layer

FLEET = (10, 10)          # networks x devices per network
REPEAT_BATCHES = 100      # one repetition: 200 device-minutes
MAINTAIN_EVERY = 10       # batches between maintenance passes
WARMUP_BATCHES = 30
# The fixed dataset the timed read-back reads: two days of hourly
# history in a second engine with a small read cache.
HISTORY_FLEET = (6, 20)
HISTORY_DAYS = 2
HISTORY_CACHE_SHARE = 32
# Read-back ops per kind, about 10 s: enough samples behind every
# tail, and long enough that one slow stretch of a shared host does
# not cover the whole phase.
READBACK = {"device": 1200, "network": 200, "latest": 800, "rollup": 600,
            "slice": 60}

_now = time.perf_counter


class Engines:
    """Fresh wal-tier engines sharing one metrics registry, so counter
    deltas span every repetition."""

    def __init__(self, r: Run):
        from repro import MetricsRegistry

        self.r = r
        self.metrics = MetricsRegistry()
        self.disks = []
        self.made = 0

    def open(self):
        from repro import (DurabilityPolicy, FileStorage, LittleTable,
                           SimulatedDisk)
        from repro.dashboard.schemas import usage_schema
        from repro.util.clock import VirtualClock

        data = self.r.path(f"data-{self.made}")
        self.made += 1
        clock = VirtualClock(gen.EMBEDDED_T0)
        disk = SimulatedDisk(FileStorage(data))
        self.disks.append(disk)
        db = LittleTable(disk=disk, clock=clock, metrics=self.metrics,
                         durability=DurabilityPolicy(tier="wal"))
        return data, clock, db, db.create_table("usage", usage_schema())


def ingest(r: Run, clock, db, table, batches, record: bool) -> None:
    """One repetition: ``batches`` in order, closed loop."""
    started = done = _now()
    for index, (device_now, rows) in enumerate(batches):
        if r.meter.tick():
            done = _now()  # the probe is not the generator's lag
        clock.set(max(device_now, clock.now()))
        r.attempt()
        sent = _now()
        if record and index:
            r.lag.add(sent - done)
        try:
            table.insert_tuples(rows)
            if index % MAINTAIN_EVERY == MAINTAIN_EVERY - 1:
                db.maintenance()
        except Exception as exc:  # counted, never hidden
            r.fail(f"insert: {type(exc).__name__}: {exc}")
            if record:
                r.insert.miss()
            done = _now()
            continue
        done = _now()
        if record:
            r.insert.add(done - sent, len(rows))
            r.rows_acked += len(rows)
    if record:
        r.insert_spans.append((started, done))


def run(r: Run) -> None:
    from repro.core.row import Query
    from repro.sqlapi import SqlSession

    fleet = gen.Fleet(*FLEET)
    stream = gen.ingest_batches(r.seed, fleet)
    batches = [next(stream) for _ in range(REPEAT_BATCHES)]
    model = gen.Model()
    for _device_now, rows in batches:
        model.add(rows)
    expected_rows = model.row_count()
    history = History(r.seed, gen.Fleet(*HISTORY_FLEET), HISTORY_DAYS,
                      HISTORY_CACHE_SHARE)
    engines = Engines(r)

    def build(rep: int):
        history_data = r.path(f"history-{rep}")
        history_bytes = history.load(r, history_data, timed=False)
        _data, clock, db, table = engines.open()
        ingest(r, clock, db, table, batches[:WARMUP_BATCHES], record=False)
        db.close()
        return history_data, history_bytes

    history_data, history_bytes = timed_setup(r, build, lambda _state: None)

    # Timed read-back: the dashboard mix over a fixed history dataset
    # loaded in set-up, in a second engine with a small read cache.  It
    # runs before the window, so what the repetitions leave on the heap
    # (their number varies with the host) does not reach it.
    reader, reader_sql = history.open(history_data, history_bytes)
    mix = history.mix("ingest-readback")
    gc.collect()
    r.meter.probe()
    started = _now()
    for kind in mix.plan(READBACK):
        r.meter.tick()
        mix.timed_op(r, reader, reader_sql, kind=kind)
    r.read_spans.append((started, _now()))
    r.meter.probe()
    mix.verify(r, history.model)
    reader.close()

    before = engines.metrics.snapshot()
    disks_before = len(engines.disks)
    if r.recorder is not None:
        r.recorder.reset()
    gc.collect()
    r.meter.probe()
    deadline = _now() + r.seconds
    repeats = 0
    while _now() < deadline:
        data, clock, db, table = engines.open()
        ingest(r, clock, db, table, batches, record=True)
        repeats += 1
        if _now() < deadline:
            db.close()
    r.meter.probe()
    spans = r.recorder.snapshot() if r.recorder is not None else None
    deltas = counter_deltas(before, engines.metrics.snapshot())
    disk = counter_deltas(
        {"counters": model_stats([])},
        {"counters": model_stats(engines.disks[disks_before:])})
    r.peak_rss_mb = self_peak_rss_mb()
    r.layers = per_layer(spans, None, deltas, disk, 0)
    r.detail.update(spans=spans, repetitions=repeats,
                    rows_per_repetition=expected_rows)
    if deltas.get("insert.rows", 0) != repeats * expected_rows:
        r.fail(f"insert.rows counted {deltas.get('insert.rows', 0)}, "
               f"expected {repeats} x {expected_rows}")

    # Quiesce the last repetition: flush, and move the clock three
    # weeks on so every period rolls over and merges to the end.
    db.flush_all()
    clock.advance(3 * gen.WEEK)
    db.maintenance_until_quiet()
    r.detail["tablets_after_quiesce"] = len(table.descriptor.tablets)
    r.space_amp = dir_bytes(data) / (expected_rows * gen.ROW_BYTES)

    # Oracle: every acked row, exactly once, in key order.
    stored = list(table.scan(Query()))
    if gen.digest(stored) != gen.digest(model.range(fleet.devices, 0,
                                                    1 << 62)):
        r.fail(f"final rows: {len(stored)} stored, {expected_rows} acked")
    stored = None

    # Every device and network of the ingested data, once, checked.
    last = max(stamps[-1] for stamps in model.ts.values())
    sql = SqlSession(db)
    check = DashboardMix(r.seed, "ingest-check", fleet, last)
    for kind in ("device", "latest", "network", "rollup"):
        check.cover(r, db, sql, kind)
    check.verify(r, model)
    db.close()
