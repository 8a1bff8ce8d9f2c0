"""Span recording for the traced run, from the benchmark's own files.

:func:`install` wraps the public entry points of each layer (and, where
a layer has no public seam, the one private method every caller goes
through) so that every call records a span: name, start, end, parent
span and request id.  Nothing in ``src/`` changes; an untraced run never
calls :func:`install`, so its code paths are exactly the program's.

Self time is a span's busy time minus the part of it covered by child
spans.  Children on the same thread nest on a per-thread stack; the
shard router's fan-out runs children on pool threads, so the router's
pool carries the parent across (see :func:`_adopting_submit`) and those
children are subtracted as the union of their intervals.

Generators (tablet and memtable scans) are spans too: a span is active
only while the consumer is inside ``next()``, so its busy time is the
sum of those slices.

Hot leaf calls (a memtable insert is one per row) keep no span record:
their time and count go straight into the per-name totals and into the
enclosing span's child time.  Per-name totals are what the ledger
reads; full span trees are kept for the first ``keep_requests``
requests and written to the report.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter


class Span:
    __slots__ = ("sid", "parent", "name", "req", "start", "end", "busy",
                 "child", "xchild", "units", "kept")

    def __init__(self, sid: int, parent: Optional["Span"], name: str,
                 req: int, kept: bool):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.req = req
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0
        self.child = 0.0
        self.xchild: List[Tuple[float, float, str]] = []
        self.units = 0
        self.kept = kept

    def self_time(self) -> float:
        return max(0.0, self.busy - self.child - _union(self.xchild))


def _union(intervals: List[Tuple[float, float, str]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi, _name in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Totals:
    """Per-name aggregate: calls, busy and self seconds, work units."""

    __slots__ = ("count", "busy", "self", "units")

    def __init__(self) -> None:
        self.count = 0
        self.busy = 0.0
        self.self = 0.0
        self.units = 0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "busy_s": self.busy,
                "self_s": self.self, "units": self.units}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, keep_requests: int = 50):
        self.keep_requests = keep_requests
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (start of the window)."""
        with self._lock:
            self.totals: Dict[str, Totals] = {}
            self.kept: List[Dict[str, Any]] = []
            self.straggler: List[float] = []
            self._kept_reqs = 0

    # ------------------------------------------------------ stack

    def _stack(self) -> List[Tuple[Span, bool]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def open(self, name: str) -> Span:
        parent = self.current()
        if parent is None:
            req = next(self._reqs)
            with self._lock:
                kept = self._kept_reqs < self.keep_requests
                if kept:
                    self._kept_reqs += 1
        else:
            req, kept = parent.req, parent.kept
        span = Span(next(self._ids), parent, name, req, kept)
        span.start = _now()
        return span

    def activate(self, span: Span) -> float:
        self._stack().append((span, True))
        return _now()

    def deactivate(self, span: Span, started: float) -> None:
        ended = _now()
        elapsed = ended - started
        span.busy += elapsed
        span.end = ended
        stack = self._stack()
        stack.pop()
        self._charge_enclosing(stack, started, ended, span.name)

    def _charge_enclosing(self, stack, started: float, ended: float,
                          name: str) -> None:
        if not stack:
            return
        below, active_here = stack[-1]
        if active_here:
            below.child += ended - started
        else:  # adopted from another thread: an interval, unioned later
            below.xchild.append((started, ended, name))

    def close(self, span: Span) -> None:
        own = span.self_time()
        with self._lock:
            totals = self.totals.get(span.name)
            if totals is None:
                totals = self.totals[span.name] = Totals()
            totals.count += 1
            totals.busy += span.busy
            totals.self += own
            totals.units += span.units
            shards = [hi - lo for lo, hi, name in span.xchild
                      if name == "net.shard.run"]
            if len(shards) >= 2:
                mean = sum(shards) / len(shards)
                if mean > 0:
                    self.straggler.append(max(shards) / mean)
            if span.kept:
                self.kept.append({
                    "id": span.sid, "req": span.req, "name": span.name,
                    "parent": span.parent.sid if span.parent else None,
                    "start": span.start, "end": span.end,
                    "busy": span.busy, "self": own, "units": span.units})

    def leaf(self, name: str, started: float, units: int) -> None:
        ended = _now()
        with self._lock:
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = Totals()
            totals.count += 1
            totals.busy += ended - started
            totals.self += ended - started
            totals.units += units
        self._charge_enclosing(self._stack(), started, ended, name)

    # -------------------------------------------------- cross-thread

    @contextlib.contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Spans opened on this thread inside the block get ``parent``."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append((parent, False))
        try:
            yield
        finally:
            stack.pop()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"totals": {name: t.as_dict()
                               for name, t in sorted(self.totals.items())},
                    "straggler": list(self.straggler),
                    "spans": list(self.kept)}


# -------------------------------------------------------- wrapping

Units = Optional[Callable[[tuple, Any], int]]


def _wrap_span(rec: Recorder, fn: Callable, name: str, units: Units):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        started = rec.activate(span)
        try:
            result = fn(*args, **kwargs)
            if units is not None:
                span.units = units(args, result)
            return result
        finally:
            rec.deactivate(span, started)
            rec.close(span)
    return wrapper


def _wrap_generator(rec: Recorder, fn: Callable, name: str, units: Units):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        produced = 0
        try:
            started = rec.activate(span)
            try:
                inner = fn(*args, **kwargs)
            finally:
                rec.deactivate(span, started)
            while True:
                started = rec.activate(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.deactivate(span, started)
                produced += 1
                yield item
        finally:
            span.units = produced
            rec.close(span)
    return wrapper


def _wrap_leaf(rec: Recorder, fn: Callable, name: str, units: Units):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = _now()
        done = 0
        try:
            result = fn(*args, **kwargs)
            done = units(args, result) if units is not None else 1
            return result
        finally:
            rec.leaf(name, started, done)
    return wrapper


def wrap(rec: Recorder, owner: Any, attr: str, name: str,
         kind: str = "span", units: Units = None) -> None:
    """Replace ``owner.attr`` with a recording wrapper.

    ``kind`` is ``span`` (a span record), ``leaf`` (totals only) or
    ``gen`` (a span active while the generator runs).  ``units``
    computes the work a call did from ``(args, result)``.
    """
    fn = getattr(owner, attr)
    if kind == "gen" or (kind == "span" and inspect.isgeneratorfunction(fn)):
        wrapper = _wrap_generator(rec, fn, name, units)
    elif kind == "leaf":
        wrapper = _wrap_leaf(rec, fn, name, units)
    else:
        wrapper = _wrap_span(rec, fn, name, units)
    setattr(owner, attr, wrapper)


def _adopting_submit(rec: Recorder, submit: Callable) -> Callable:
    @functools.wraps(submit)
    def wrapper(fn, *args, **kwargs):
        parent = rec.current()

        def run():
            with rec.adopt(parent):
                return fn(*args, **kwargs)
        return submit(run)
    return wrapper


def _len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index])


def _len_result(args: tuple, result: Any) -> int:
    return len(result) if result is not None else 0


def _decoded_rows(args: tuple, result: Any) -> int:
    if not result:
        return 0
    first = result[0]
    return len(first) if isinstance(first, (list, tuple)) else 0


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the ledger reads (idempotent per
    process: call once, before any engine or client is built)."""
    from repro.core import memtable, table, tablet, wal
    from repro.core.codec import SchemaCodec
    from repro.disk.storage import FileStorage
    from repro.net import client, protocol, server, shard
    from repro.sqlapi import executor

    # net: client call, frame codec, dispatch, admission, shard routing
    wrap(rec, client.LittleTableClient, "_call", "net.client.call")
    wrap(rec, protocol, "encode_frame", "net.protocol.encode", "leaf",
         _len_result)
    wrap(rec, protocol, "decode_payload", "net.protocol.decode", "leaf",
         _len_arg(0))
    wrap(rec, server.RequestDispatcher, "dispatch",
         "net.async_server.dispatch")
    wrap(rec, server.AdmissionController, "admit",
         "net.async_server.admit", "leaf")
    for route in ("_insert", "_query", "_latest"):
        wrap(rec, shard.ShardRouter, route, "net.shard.route")
    wrap(rec, shard.ShardRouter, "_run", "net.shard.run")
    init = shard.ShardRouter.__init__

    @functools.wraps(init)
    def router_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._pool.submit = _adopting_submit(rec, self._pool.submit)
    shard.ShardRouter.__init__ = router_init

    # core.table
    wrap(rec, table.Table, "insert_tuples", "core.table.insert",
         units=_len_arg(1))
    wrap(rec, table.Table, "query", "core.table.query",
         units=lambda args, result: len(result.rows))
    wrap(rec, table.Table, "latest", "core.table.latest")
    wrap(rec, table.Table, "aggregate_partials", "core.vector.aggregate")
    wrap(rec, table.Table, "flush_memtable", "core.maintenance.flush")
    wrap(rec, table.Table, "maybe_merge", "core.maintenance.merge",
         units=lambda args, result: 0 if result is None else 1)
    # core.memtable
    wrap(rec, memtable.MemTable, "insert_sized", "core.memtable.insert",
         "leaf")
    wrap(rec, memtable.MemTable, "scan", "core.memtable.scan", "gen")
    wrap(rec, memtable.MemTable, "sorted_sized", "core.memtable.sorted",
         "gen")
    # core.codec
    wrap(rec, SchemaCodec, "encode_rows", "core.codec.encode", "leaf",
         _len_arg(1))
    wrap(rec, SchemaCodec, "decode_block", "core.codec.decode", "leaf",
         _decoded_rows)
    wrap(rec, SchemaCodec, "decode_range", "core.codec.decode", "leaf",
         _decoded_rows)
    wrap(rec, SchemaCodec, "decode_block_columns", "core.codec.decode",
         "leaf", lambda args, result: len(result[0]) if result else 0)
    # core.tablet
    wrap(rec, tablet.TabletReader, "scan", "core.tablet.scan", "gen")
    wrap(rec, tablet.TabletReader, "scan_block_columns", "core.tablet.scan")
    wrap(rec, tablet.TabletWriter, "write", "core.tablet.write")
    # core.wal
    wrap(rec, wal.WriteAheadLog, "log_batch_block", "core.wal.append",
         "leaf")
    wrap(rec, wal.WriteAheadLog, "commit", "core.wal.commit")
    # sqlapi: the executor holds its own references to parse and plan
    wrap(rec, executor.SqlSession, "execute", "sqlapi.execute")
    wrap(rec, executor, "parse", "sqlapi.parse", "leaf")
    wrap(rec, executor, "plan_where", "sqlapi.plan", "leaf")
    wrap(rec, executor, "plan_pushdown", "sqlapi.plan", "leaf")
    # disk: wall time in the real filesystem backend
    wrap(rec, FileStorage, "write_file", "disk.storage.write", "leaf",
         _len_arg(2))
    wrap(rec, FileStorage, "append", "disk.storage.append", "leaf",
         _len_arg(2))
    wrap(rec, FileStorage, "read", "disk.storage.read", "leaf",
         _len_result)
