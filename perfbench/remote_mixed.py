"""Workload ``remote_mixed``: writes and reads through the served stack.

``ltdb serve --shards 4 --durability wal --maintenance`` runs as its own
process (``perfbench/server.py``).  Set-up preloads ten minutes of
history for 3000 devices, flushes it to tablets (it fits the read
cache) and warms the reader.  Then, on two connections from this one
process:

* one writer sends 300-row UsageGrabber batches in an open loop at
  3000 rows/s - well under what the seed sustains with the reader
  running - timing each batch from when it was due.  Batches are
  100 ms apart, longer than most pauses of the server, so one pause
  delays one batch rather than a queue of them;
* one closed-loop reader sends device graphs (last 10 min), network
  graphs (last 2 min), ``latest`` and, rarely, a history rollup, so
  reads hit both cached tablets and live memtables.

This puts the wire, admission, dispatch and shard routing in front of
the same engine.  Every read is checked while it runs: with one writer
and one batch in flight at most, a device's visible rows must be a
prefix of its model rows no shorter than what was acked before the
read was sent.  After the window the server is SIGKILLed, its data
directory reopened, and every acked row must be readable (the page
cache survives a SIGKILL; the crash-matrix tests own fsync ordering).
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

from . import gen
from .common import Latencies, counter_deltas, dir_bytes, self_peak_rss_mb
from .harness import Deck, Run, timed_setup
from .ledger import per_layer

FLEET = (300, 10)                # networks x devices per network
HISTORY_S = 600
BATCH_ROWS = 300
ROWS_PER_S = 3000                # open-loop writer rate
DEVICE_WINDOW = 10 * gen.MINUTE
NETWORK_WINDOW = 2 * gen.MINUTE
ROLLUP_WIDTH = gen.MINUTE
WARMUP_S = 0.5
WEIGHTS = (("device", 40), ("network", 25), ("latest", 25), ("rollup", 10))
SERVE_ARGS = ["--port", "0", "--shards", "4", "--durability", "wal",
              "--maintenance"]

_now = time.perf_counter


class Served:
    """One server process and the benchmark's two connections to it."""

    def __init__(self, r: Run, rep: int):
        self.r = r
        self.data = r.path(f"data-{rep}")
        self.dumps = r.path(f"dumps-{rep}")
        os.makedirs(self.dumps)
        ready = r.path(f"ready-{rep}")
        self.log = open(r.path(f"server-{rep}.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(r.root, "perfbench", "server.py"),
             "--trace", str(int(r.trace)), "--ready", ready,
             "--dumps", self.dumps, "--", "--data", self.data] + SERVE_ARGS,
            stdout=self.log, stderr=subprocess.STDOUT)
        self.dumped = 0
        self.writer = self.reader = None
        deadline = time.monotonic() + 60
        while not os.path.exists(ready):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop(kill=True)
                raise RuntimeError("server failed to start; see its log")
            r.meter.tick()
            time.sleep(0.01)
        with open(ready) as handle:
            port = int(handle.read())
        import repro
        from repro.net.client import ClientConfig

        config = ClientConfig(request_timeout_s=10.0)
        self.writer = repro.connect(("127.0.0.1", port), config=config)
        self.reader = repro.connect(("127.0.0.1", port), config=config)

    def dump(self) -> Dict[str, Any]:
        """Ask the server for its span totals since the last dump."""
        path = os.path.join(self.dumps, f"dump-{self.dumped}.json")
        self.dumped += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError("server did not answer the dump signal")
            time.sleep(0.005)
        with open(path) as handle:
            return json.load(handle)

    def stop(self, kill: bool = False) -> None:
        for db in (self.writer, self.reader):
            if db is not None:
                db.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Checker:
    """Inline read oracle for a store written by one open-loop writer."""

    def __init__(self, feed: gen.ServedFeed, model: gen.Model,
                 lock: threading.Lock):
        self.feed = feed
        self.model = model
        self.lock = lock
        self.position = {dev: i for i, dev in enumerate(feed.fleet.devices)}

    def device_rows(self, dev, rows: List[tuple], lo: int, hi: int,
                    acked: int) -> bool:
        """Rows in ``[lo, hi]`` must be a prefix of the model's, holding
        at least every row of a batch acked before the read was sent."""
        with self.lock:
            expected = self.model.device_range(dev, lo, hi)
        batch_of = self.feed.batch_of
        required = sum(1 for row in expected if batch_of(row[2]) < acked)
        return (len(rows) >= required
                and rows == expected[:len(rows)])

    def latest(self, dev, row, acked: int, sent: int) -> bool:
        with self.lock:
            series = self.model.rows[dev]
        history = sum(1 for r in series if r[2] < self.feed.t0)
        pos = self.position[dev]
        lo = history + self.feed.live_count(pos, acked)
        hi = history + self.feed.live_count(pos, sent)
        return row is not None and row in series[max(lo - 1, 0):hi]


def run(r: Run) -> None:
    from repro.core.row import Query
    from repro.dashboard.schemas import usage_schema

    fleet = gen.Fleet(*FLEET)
    t0 = int(time.time()) // 60 * 60 * gen.SECOND
    state: Dict[str, Any] = {}
    servers: List[Served] = []

    def build(rep: int) -> Served:
        served = Served(r, rep)
        servers.append(served)
        feed = gen.ServedFeed(r.seed, fleet, t0, HISTORY_S, BATCH_ROWS,
                              ROWS_PER_S)
        model = gen.Model()
        served.writer.create_table("usage", usage_schema())
        table = served.writer.table("usage")
        for rows in feed.history:
            r.meter.tick()
            table.insert_tuples(rows)
            model.add(rows)
        table.flush_all()
        state.update(feed=feed, model=model)
        reader = Reader(r, served.reader, fleet, feed, model, record=False,
                        lock=threading.Lock(), shared={"acked": 0, "sent": 0,
                                                       "now": t0})
        reader.loop(_now() + WARMUP_S)
        return served

    def discard(served: Served) -> None:
        served.stop()

    try:
        served = timed_setup(r, build, discard)
        feed, model = state["feed"], state["model"]
        window(r, served, fleet, feed, model)
    finally:
        for started in servers:
            if started.proc.poll() is None:
                started.stop(kill=True)

    # Recovery oracle: reopen what the SIGKILLed server left behind.
    from repro.core.durability import DurabilityPolicy
    from repro.net.shard import ShardRouter

    r.space_amp = dir_bytes(served.data) / (model.row_count()
                                           * gen.ROW_BYTES)
    router = ShardRouter(shards=4, data_dir=served.data,
                         durability=DurabilityPolicy(tier="wal"))
    try:
        stored = list(router.table("usage").scan(Query()))
    finally:
        router.close()
    if gen.digest(stored) != gen.digest(model.range(fleet.devices, 0,
                                                    1 << 62)):
        r.fail(f"after SIGKILL: {len(stored)} rows readable, "
               f"{model.row_count()} acked")


class Reader:
    """The closed-loop reader; checks each answer as it arrives."""

    def __init__(self, r: Run, db, fleet: gen.Fleet, feed: gen.ServedFeed,
                 model: gen.Model, record: bool, lock: threading.Lock,
                 shared: Dict[str, int]):
        from repro.sqlapi import SqlSession

        self.r = r
        self.db = db
        self.sql = SqlSession(db)
        self.fleet = fleet
        self.feed = feed
        self.model = model
        self.record = record
        self.lock = lock
        self.shared = shared
        self.check = Checker(feed, model, lock)
        self.rng = gen.sub_rng(r.seed, f"remote-reader-{record}")
        self.deck = Deck.weighted(self.rng, WEIGHTS)
        self.devices = Deck(self.rng, fleet.devices)
        self.networks = Deck(self.rng, fleet.networks)
        self.wire_rows = 0

    def loop(self, deadline: float) -> float:
        started = _now()
        done = started
        while done < deadline:
            self.r.meter.tick()
            self.op()
            done = _now()
        return done - started

    def op(self) -> None:
        from repro.core.row import KeyRange, Query, TimeRange

        r, shared = self.r, self.shared
        kind = self.deck.draw()
        now = shared["now"]
        acked = shared["acked"]
        r.attempt()
        started = _now()
        try:
            if kind == "device":
                dev = self.devices.draw()
                lo, hi = now - DEVICE_WINDOW, now
                rows = self.db.query("usage", Query(
                    KeyRange.prefix(dev), TimeRange.between(lo, hi))).rows
                elapsed = _now() - started
                ok = self.check.device_rows(dev, rows, lo, hi, acked)
            elif kind == "network":
                network = self.networks.draw()
                lo, hi = now - NETWORK_WINDOW, now
                rows = self.db.query("usage", Query(
                    KeyRange.prefix((network,)),
                    TimeRange.between(lo, hi))).rows
                elapsed = _now() - started
                ok = all(self.check.device_rows(
                    dev, [row for row in rows if row[1] == dev[1]],
                    lo, hi, acked) for dev in self.fleet.devices_of(network))
                ok = ok and rows == sorted(rows)
            elif kind == "latest":
                dev = self.devices.draw()
                row = self.db.latest("usage", dev)
                elapsed = _now() - started
                rows = [row]
                ok = self.check.latest(dev, row, acked, shared["sent"])
            else:
                network = self.networks.draw()
                lo, hi = self.feed.t0 - HISTORY_S * gen.SECOND, self.feed.t0
                rows = self.sql.execute(
                    f"SELECT TIME_BUCKET(ts, {ROLLUP_WIDTH}), COUNT(*), "
                    f"SUM(counter) FROM usage WHERE network = {network} "
                    f"AND ts >= {lo} AND ts < {hi} "
                    f"GROUP BY TIME_BUCKET(ts, {ROLLUP_WIDTH})").rows
                elapsed = _now() - started
                with self.lock:
                    expected = self.model.rollup(
                        self.fleet.devices_of(network), lo, hi, ROLLUP_WIDTH)
                ok = rows == expected
        except Exception as exc:  # counted, never hidden
            r.fail(f"{kind}: {type(exc).__name__}: {exc}")
            if self.record:
                _bucket(r, kind).miss()
            return
        if not ok:
            r.fail(f"wrong answer: {kind} at acked batch {acked}")
            if self.record:
                _bucket(r, kind).miss()
            return
        if not self.record:
            return
        r.reads_done += 1
        _bucket(r, kind).add(elapsed, len(rows))
        self.wire_rows += len(rows)


def _bucket(r: Run, kind: str) -> Latencies:
    return {"device": r.range, "network": r.range, "latest": r.latest,
            "rollup": r.rollup}[kind]


def window(r: Run, served: Served, fleet: gen.Fleet, feed: gen.ServedFeed,
           model: gen.Model) -> None:
    lock = threading.Lock()
    shared = {"acked": 0, "sent": 0, "now": feed.t0}
    reader = Reader(r, served.reader, fleet, feed, model, record=True,
                    lock=lock, shared=shared)
    table = served.writer.table("usage")
    gap_s = feed.gap_us / gen.SECOND
    written = {"rows": 0, "last_ack": 0.0}

    def write(start: float, end: float) -> None:
        index = 0
        # Batches still unsent when the window closes are not sent: a
        # backlog shows in the due-time latencies and the row rate.
        while start + index * gap_s < end and _now() < end:
            due = start + index * gap_s
            rows = feed.live_batch(index)
            with lock:
                model.add(rows)
            pause = due - _now()
            if pause > 0:
                time.sleep(pause)
            sent = _now()
            r.lag.add(sent - due)
            shared["sent"] = index + 1
            shared["now"] = rows[-1][2]
            r.attempt()
            try:
                table.insert_tuples(rows)
            except Exception as exc:  # counted, never hidden
                r.fail(f"insert batch {index}: {type(exc).__name__}: {exc}")
                r.insert.miss()
            else:
                acked = _now()
                r.insert.add(acked - due, len(rows))
                shared["acked"] = index + 1
                written["rows"] += len(rows)
                written["last_ack"] = acked
            index += 1

    before = served.reader.stats()
    opened = served.dump()  # opens the server's span window
    if r.recorder is not None:
        r.recorder.reset()
    gc.collect()
    r.meter.probe()
    start = _now()
    end = start + r.seconds
    writer = threading.Thread(target=write, args=(start, end),
                              name="perfbench-writer")
    writer.start()
    try:
        r.read_spans.append((start, start + reader.loop(end)))
    finally:
        writer.join()
    r.meter.probe()
    r.rows_acked = written["rows"]
    r.open_loop_insert = True
    r.insert_spans.append((start, written["last_ack"]))
    client_spans = r.recorder.snapshot() if r.recorder is not None else None
    server = served.dump()
    deltas = counter_deltas(before, served.reader.stats())
    r.peak_rss_mb = self_peak_rss_mb() + server["peak_rss_mb"]
    disk = counter_deltas({"counters": opened["disk"]},
                          {"counters": server["disk"]})
    r.layers = per_layer(client_spans, server["spans"], deltas, disk,
                         reader.wire_rows + r.rows_acked)
    r.detail["spans"] = {"client": client_spans, "server": server["spans"]}
    served.stop(kill=True)
