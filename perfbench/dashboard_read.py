"""Workload ``dashboard_read``: the Dashboard's read mix, embedded.

Set-up loads three days of hourly UsageGrabber history for 480 devices
through the insert path with maintenance run in step with device time,
quiesces it, and reopens the data directory with the read cache
(``EngineConfig.read_cache_bytes``) at 1/32 of the bytes on disk, so
the working set is far larger than the cache (``harness.History``).
An untimed warm-up pass brings the block LRU to its steady churn.  One closed-loop reader then runs
the dashboard mix (device graph, network graph, ``latest``, hourly
``TIME_BUCKET`` rollup, short all-keys time slice) over a frozen
clock.  The work lands in ``core.cursor``, ``core.tablet``, codec
decode, ``core.readcache`` misses, ``core.vector`` and ``sqlapi``;
memtable, WAL and ``net`` sit idle.

The insert metrics on this workload time the history load of every
set-up repetition (tier ``none``, synchronous maintenance).
"""

from __future__ import annotations

import gc

from .common import counter_deltas, model_stats, self_peak_rss_mb
from .gen import Fleet, ROW_BYTES
from .harness import History, Run, read_loop, timed_setup
from .ledger import per_layer

FLEET = (24, 20)                 # networks x devices per network
DAYS = 3
CACHE_SHARE = 32                 # cache = bytes on disk / CACHE_SHARE
WARMUP_S = 0.5


def run(r: Run) -> None:
    history = History(r.seed, Fleet(*FLEET), DAYS, CACHE_SHARE)

    def build(rep: int):
        data = r.path(f"data-{rep}")
        on_disk = history.load(r, data, timed=True)
        db, sql = history.open(data, on_disk)
        warmup = history.mix(f"dashboard-warmup-{rep}")
        read_loop(r, warmup, db, sql, WARMUP_S, record=False)
        warmup.verify(r, history.model)
        return on_disk, db, sql

    def discard(state) -> None:
        state[1].close()

    on_disk, db, sql = timed_setup(r, build, discard)
    r.space_amp = on_disk / (history.model.row_count() * ROW_BYTES)
    r.detail.update(bytes_on_disk=on_disk,
                    read_cache_bytes=db.config.read_cache_bytes,
                    rows=history.model.row_count())

    mix = history.mix("dashboard")
    before = db.stats()
    disk_before = model_stats([db.disk])
    if r.recorder is not None:
        r.recorder.reset()
    gc.collect()
    r.meter.probe()
    read_loop(r, mix, db, sql, r.seconds)
    r.meter.probe()
    spans = r.recorder.snapshot() if r.recorder is not None else None
    deltas = counter_deltas(before, db.stats())
    disk = counter_deltas({"counters": disk_before},
                          {"counters": model_stats([db.disk])})
    r.peak_rss_mb = self_peak_rss_mb()
    r.layers = per_layer(spans, None, deltas, disk, 0)
    r.detail["spans"] = spans
    mix.verify(r, history.model)
    db.close()
