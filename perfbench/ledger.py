"""The per-layer ledger: span totals and registry deltas -> metrics.

Inputs, all taken over the measured window only:

* ``spans`` - :meth:`trace.Recorder.snapshot` of each process (the
  benchmark process, and the server process on ``remote_mixed``);
* ``deltas`` - :func:`common.counter_deltas` of the engine's own
  metrics registry (``db.stats()`` or ``client.stats()``), the same
  counters an operator reads;
* ``disk`` - disk-model deltas (modeled, never added to wall time);
* ``wire_rows`` - rows the client sent plus rows it received.

Which end-to-end metric each layer metric should move, on which
workload, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .common import ratio

#: Engine counters reported as raw window deltas (``ctr.<name>``).
COUNTERS = [
    "block.decoded", "block.rows_decoded",
    "bloom.probes", "bloom.negatives", "bloom.positives",
    "codec.rows_encoded", "codec.rows_decoded",
    "disk.reads", "disk.read_bytes", "disk.writes", "disk.write_bytes",
    "flush.count", "flush.bytes",
    "insert.rows", "insert.backpressure_stalls",
    "insert.uniqueness.slow_path",
    "maintenance.ticks", "maintenance.table_runs", "maintenance.errors",
    "merge.count", "merge.bytes_written", "merge.rows_rewritten",
    "query.count", "query.rows_scanned", "query.rows_returned",
    "query.tablets_pruned",
    "readcache.block.hits", "readcache.block.misses",
    "readcache.block.evictions", "readcache.footer.hits",
    "readcache.footer.misses", "readcache.latest.hits",
    "readcache.latest.misses", "readcache.invalidations",
    "sched.flush_priority_runs", "sched.merge_priority_runs",
    "server.requests", "server.admission.shed",
    "server.admission.deadline_sheds",
    "shard.scatter_queries", "shard.single_shard_queries",
    "shard.rows_routed", "shard.overload_sheds",
    "tablet.blocks_read", "tablet.block_bytes_read", "tablet.footer_loads",
    "wal.appends", "wal.records", "wal.bytes_appended",
]


class _Spans:
    """Per-name span totals summed over processes."""

    def __init__(self, snapshots: List[Optional[Dict[str, Any]]]):
        self.totals: Dict[str, Dict[str, float]] = {}
        self.straggler: List[float] = []
        for snap in snapshots:
            if not snap:
                continue
            self.straggler.extend(snap.get("straggler", []))
            for name, t in snap["totals"].items():
                mine = self.totals.setdefault(
                    name, {"count": 0, "busy_s": 0.0, "self_s": 0.0,
                           "units": 0})
                for key in mine:
                    mine[key] += t[key]

    def get(self, name: str, field: str) -> float:
        return self.totals.get(name, {}).get(field, 0)

    def mean(self, name: str, field: str, per: str = "count",
             scale: float = 1.0) -> float:
        return ratio(self.get(name, field), self.get(name, per)) * scale


def per_layer(client: Optional[Dict[str, Any]],
              server: Optional[Dict[str, Any]],
              deltas: Dict[str, float], disk: Dict[str, float],
              wire_rows: int) -> Dict[str, float]:
    s = _Spans([client, server])
    c = _Spans([client])
    d = deltas.get
    ms, us = 1e3, 1e6
    flushes = s.get("core.maintenance.flush", "count")
    rows_in = d("insert.rows", 0)
    rows_out = d("query.rows_returned", 0)
    flushed = d("flush.bytes", 0)
    merged = d("merge.bytes_written", 0)
    straggler = s.straggler
    out: Dict[str, float] = {
        # net
        "net.protocol.encode_us": s.mean("net.protocol.encode", "busy_s",
                                         scale=us),
        "net.protocol.decode_us": s.mean("net.protocol.decode", "busy_s",
                                         scale=us),
        "net.protocol.bytes_per_row": ratio(
            c.get("net.protocol.encode", "units")
            + c.get("net.protocol.decode", "units"), wire_rows),
        "net.client.wire_ms": ratio(
            c.get("net.client.call", "busy_s")
            - s.get("net.async_server.dispatch", "busy_s"),
            c.get("net.client.call", "count")) * ms,
        "net.async_server.admission_wait_us": s.mean(
            "net.async_server.admit", "busy_s", scale=us),
        "net.async_server.shed": d("server.admission.shed", 0)
        + d("server.admission.deadline_sheds", 0),
        "net.async_server.dispatch_self_ms": s.mean(
            "net.async_server.dispatch", "self_s", scale=ms),
        "net.shard.route_self_ms": s.mean("net.shard.route", "self_s",
                                          scale=ms),
        "net.shard.shards_per_query": ratio(
            s.get("net.shard.run", "count"),
            s.get("net.shard.route", "count")),
        "net.shard.straggler_ratio": ratio(sum(straggler), len(straggler)),
        # core.table
        "core.table.insert_self_ms": s.mean("core.table.insert", "self_s",
                                            scale=ms),
        "core.table.query_self_ms": s.mean("core.table.query", "self_s",
                                           scale=ms),
        "core.table.latest_self_ms": s.mean("core.table.latest", "self_s",
                                            scale=ms),
        "core.table.backpressure_stall_ms": d(
            "insert.backpressure_wait_us.sum", 0.0) / 1e3,
        # core.memtable
        "core.memtable.insert_us_per_row": s.mean(
            "core.memtable.insert", "busy_s", scale=us),
        "core.memtable.scan_ms": s.get("core.memtable.scan", "busy_s") * ms,
        "core.memtable.sorted_ms_per_flush": ratio(
            s.get("core.memtable.sorted", "busy_s"), flushes) * ms,
        # core.codec
        "core.codec.encode_us_per_row": s.mean(
            "core.codec.encode", "busy_s", per="units", scale=us),
        "core.codec.decode_us_per_row": s.mean(
            "core.codec.decode", "busy_s", per="units", scale=us),
        "core.codec.rows_decoded_per_row_returned": ratio(
            d("codec.rows_decoded", 0), rows_out),
        # core.tablet
        "core.tablet.blocks_read_per_query": ratio(
            d("tablet.blocks_read", 0), d("query.count", 0)),
        "core.tablet.scan_self_ms": s.get("core.tablet.scan", "self_s") * ms,
        "core.tablet.write_ms_per_flush": ratio(
            s.get("core.tablet.write", "busy_s"), flushes) * ms,
        # core.readcache
        "core.readcache.block_hit_rate": _hit_rate(deltas, "block"),
        "core.readcache.footer_hit_rate": _hit_rate(deltas, "footer"),
        "core.readcache.latest_hit_rate": _hit_rate(deltas, "latest"),
        "core.readcache.evictions": d("readcache.block.evictions", 0),
        # core.wal
        "core.wal.append_us_per_batch": s.mean("core.wal.append", "busy_s",
                                               scale=us),
        "core.wal.commit_wait_us": s.mean("core.wal.commit", "busy_s",
                                          scale=us),
        "core.wal.batches_per_sync": ratio(d("wal.records", 0),
                                           d("wal.appends", 0)),
        "core.wal.bytes_per_row": ratio(d("wal.bytes_appended", 0), rows_in),
        # core.maintenance (registry: exact in both modes)
        "core.maintenance.flushes": d("flush.count", 0),
        "core.maintenance.merges": d("merge.count", 0),
        "core.maintenance.flush_ms": ratio(
            d("flush.duration_us.sum", 0.0),
            d("flush.duration_us.count", 0)) / 1e3,
        "core.maintenance.merge_ms": ratio(
            d("merge.duration_us.sum", 0.0),
            d("merge.duration_us.count", 0)) / 1e3,
        "core.maintenance.write_amp": ratio(flushed + merged, flushed),
        "core.maintenance.merge_rewrite_bytes_per_row": ratio(merged,
                                                               rows_in),
        # sqlapi + vector
        "sqlapi.parse_plan_us": ratio(
            s.get("sqlapi.parse", "busy_s") + s.get("sqlapi.plan", "busy_s"),
            s.get("sqlapi.execute", "count")) * us,
        "sqlapi.pushdown_fallbacks": d("query.pushdown.fallback_queries", 0),
        "core.vector.aggregate_self_ms": s.mean(
            "core.vector.aggregate", "self_s", scale=ms),
        # disk: wall time in FileStorage; modeled time labelled apart
        "disk.storage.fsyncs": s.get("disk.storage.write", "count")
        + s.get("disk.storage.append", "count"),
        "disk.storage.write_ms": (s.get("disk.storage.write", "busy_s")
                                  + s.get("disk.storage.append", "busy_s"))
        * ms,
        "disk.storage.read_ms": s.get("disk.storage.read", "busy_s") * ms,
        "disk.model.modeled_s": disk.get("modeled_s", 0.0),
        "disk.model.modeled_read_s": disk.get("read_s", 0.0),
        "disk.model.modeled_write_s": disk.get("write_s", 0.0),
        "disk.model.seeks": disk.get("seeks", 0),
        "disk.model.bytes_read_per_row_returned": ratio(
            disk.get("bytes_read", 0), rows_out),
    }
    for name in COUNTERS:
        out[f"ctr.{name}"] = d(name, 0)
    return out


def _hit_rate(deltas: Dict[str, float], kind: str) -> float:
    hits = deltas.get(f"readcache.{kind}.hits", 0)
    misses = deltas.get(f"readcache.{kind}.misses", 0)
    return ratio(hits, hits + misses)
