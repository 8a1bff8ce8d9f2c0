"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q

They check that inputs are a pure function of the seed, that the
oracles reject a wrong answer, that the printed metric set is exactly
the one ``BENCHMARK.json`` declares, and that span self times nest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import common, gen, harness, ledger, remote_mixed  # noqa: E402
from perfbench.trace import Recorder, wrap  # noqa: E402


def _bytes(batches) -> bytes:
    return repr(list(batches)).encode()


# -------------------------------------------------------- determinism

def test_same_seed_same_inputs():
    fleet = gen.Fleet(5, 4)

    def ingest(seed):
        stream = gen.ingest_batches(seed, fleet, batch_rows=50)
        return _bytes(next(stream) for _ in range(40))

    def history(seed):
        return _bytes(gen.history_batches(seed, fleet, 0, gen.DAY,
                                          15 * gen.MINUTE))

    def served(seed):
        feed = gen.ServedFeed(seed, fleet, 600 * gen.SECOND, 300, 10, 4000)
        return _bytes(feed.history + [feed.live_batch(i) for i in range(9)])

    def reads(seed):
        mix = harness.DashboardMix(seed, "t", fleet, gen.EMBEDDED_T0)
        return _bytes(mix.next_op() for _ in range(200))

    for make in (ingest, history, served, reads):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_ingest_stream_keys_unique_and_some_late():
    fleet = gen.Fleet(5, 4)
    stream = gen.ingest_batches(3, fleet, batch_rows=20, late_share=0.1)
    rows = [row for _ in range(300) for row in next(stream)[1]]
    keys = [(row[0], row[1], row[2]) for row in rows]
    assert len(set(keys)) == len(keys)
    late = sum(1 for a, b in zip(rows, rows[1:]) if b[2] < a[2] - gen.HOUR)
    assert late > 0


# ------------------------------------------------------------- oracle

@pytest.fixture
def small_db(tmp_path):
    from repro import FileStorage, LittleTable, SimulatedDisk
    from repro.dashboard.schemas import usage_schema
    from repro.util.clock import VirtualClock

    fleet = gen.Fleet(3, 4)
    start = gen.EMBEDDED_T0 - gen.DAY
    clock = VirtualClock(gen.EMBEDDED_T0)
    db = LittleTable(disk=SimulatedDisk(FileStorage(str(tmp_path / "d"))),
                     clock=clock)
    db.create_table("usage", usage_schema())
    model = gen.Model()
    for _now, rows in gen.history_batches(1, fleet, start, gen.EMBEDDED_T0,
                                          15 * gen.MINUTE):
        db.table("usage").insert_tuples(rows)
        model.add(rows)
    yield fleet, db, model
    db.close()


def _run(tmp_path) -> harness.Run:
    run = harness.Run(str(tmp_path), "selftest", 1, 1, False)
    return run


def test_dashboard_oracle_accepts_right_and_rejects_corrupted(small_db,
                                                              tmp_path):
    from repro.sqlapi import SqlSession

    fleet, db, model = small_db
    run = _run(tmp_path)
    mix = harness.DashboardMix(1, "oracle", fleet, gen.EMBEDDED_T0)
    sql = SqlSession(db)
    for _ in range(100):  # one full deck: every kind
        mix.timed_op(run, db, sql)
    assert {kind for kind, _args, _answer in mix.answers} >= {
        "device", "network", "latest", "rollup"}
    answers = list(mix.answers)
    mix.verify(run, model)
    assert run.failed == 0, run.failures
    # Corrupt one answer of each kind: every one must be caught.
    for index, (kind, args, answer) in enumerate(answers):
        if kind == "latest":
            bad = answer[:4] + (answer[4] + 1,) + answer[5:]
        else:
            bad = (answer[0], answer[1] ^ 1)
        mix.answers = [(kind, args, bad)]
        before = run.failed
        mix.verify(run, model)
        assert run.failed == before + 1, (kind, args)
    run.cleanup()


def test_remote_checker_prefix_rule():
    fleet = gen.Fleet(2, 5)
    feed = gen.ServedFeed(1, fleet, 600 * gen.SECOND, 120, 5, 1000)
    model = gen.Model()
    for rows in feed.history:
        model.add(rows)
    batches = [feed.live_batch(i) for i in range(6)]
    for rows in batches:
        model.add(rows)
    check = remote_mixed.Checker(feed, model, threading.Lock())
    dev = fleet.devices[0]
    lo, hi = 0, 1 << 62
    full = model.device_range(dev, lo, hi)
    # Acked through batch 4 (device 0 is in batches 0, 2, 4): all of
    # them must be there; the in-flight batch 5 does not carry it.
    assert check.device_rows(dev, full, lo, hi, acked=5)
    assert not check.device_rows(dev, full[:-1], lo, hi, acked=5)
    assert check.device_rows(dev, full[:-1], lo, hi, acked=4)
    corrupted = full[:-1] + [full[-1][:4] + (full[-1][4] + 1, 1.0)]
    assert not check.device_rows(dev, corrupted, lo, hi, acked=5)
    assert check.latest(dev, full[-1], acked=5, sent=6)
    assert check.latest(dev, full[-2], acked=4, sent=5)
    assert not check.latest(dev, full[-2], acked=5, sent=6)
    assert not check.latest(dev, None, acked=5, sent=6)


# ------------------------------------------------ declared == printed

def _declared():
    return common.load_declared(ROOT)


def test_metric_sets_match_benchmark_json(tmp_path):
    from perfbench.run import TAILS

    e2e_units, layer_units = _declared()
    run = _run(tmp_path)
    run.setup_spans = [(0.0, 1.0)]
    assert set(run.end_to_end()) - set(TAILS) == set(e2e_units)
    layers = set(ledger.per_layer(None, None, {}, {}, 0))
    assert layers | {"generator_lag_p99_ms"} | set(TAILS) == set(layer_units)
    with pytest.raises(RuntimeError):
        common.emit({"setup_s": 1.0}, e2e_units, True, 1, 0)
    run.cleanup()


def test_spec_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == [
        "ingest", "dashboard_read", "remote_mixed"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def traced_ingest():
    """One short traced ingest run through the real command."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "ingest", "--seed", "11", "--seconds", "1",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "perfbench", "_work", "reports",
                           "ingest-seed11-trace1.json")) as handle:
        report = json.load(handle)
    return json.loads(proc.stdout.strip().splitlines()[-1]), report


def test_printed_names_are_the_declared_ones(traced_ingest):
    result, report = traced_ingest
    e2e_units, layer_units = _declared()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == layer_units
    assert set(report["end_to_end"]) == set(e2e_units)
    # The ingest window touches the write path and not the wire.
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["core.memtable.insert_us_per_row"] > 0
    assert metrics["core.wal.commit_wait_us"] > 0
    assert all(metrics[name] == 0 for name in metrics
               if name.startswith("net."))


# -------------------------------------------------- reference speed

def test_host_meter_scales_by_nearby_probes():
    meter = common.HostMeter()
    ref = meter.REF_S
    # Probes at t = 1, 2, 3: undisturbed, then twice, then four times
    # as slow.
    meter.at = [1.0, 2.0, 3.0]
    meter.cost = [ref, 2 * ref, 4 * ref]
    assert meter.slowdown(0.5) == pytest.approx(1.0)
    assert meter.slowdown(1.5) == pytest.approx(1.5)
    assert meter.slowdown(9.0) == pytest.approx(4.0)
    # An op of 10 ms ending at t = 2.5 ran at 3x: it counts 10/3 ms.
    assert meter.scale(0.010, 2.5) == pytest.approx(0.010 / 3)
    # [1.5, 2.5] is cut at the probe at 2: halves at 1.5x and 3x.
    assert meter.span(1.5, 2.5) == pytest.approx(0.5 / 1.5 + 0.5 / 3)
    lat = common.Latencies()
    lat.samples, lat.at, lat.weight = [0.004], [1.0], [1]
    assert lat.summary(meter)["p50_ms"] == pytest.approx(4.0 / 1.0)
    assert lat.summary()["p50_ms"] == pytest.approx(4.0)


def test_host_meter_probe_is_timed():
    meter = common.HostMeter()
    meter.probe()
    meter.tick()  # within EVERY_S of the probe: no second probe
    assert len(meter.cost) == 1 and meter.cost[0] > 0
    assert meter.summary()["probes"] == 1


# ------------------------------------------------------------- spans

def test_self_times_nest_synthetic():
    rec = Recorder(keep_requests=100)

    class Layer:
        def outer(self, pool):
            time.sleep(0.002)
            futures = [pool.submit(self.inner) for _ in range(3)]
            total = sum(f.result() for f in futures)
            return total + sum(self.rows())

        def inner(self):
            time.sleep(0.003)
            self.leafy()
            return 1

        def leafy(self):
            time.sleep(0.001)

        def rows(self):
            for i in range(3):
                time.sleep(0.001)
                yield i

    wrap(rec, Layer, "outer", "outer")
    wrap(rec, Layer, "inner", "inner")
    wrap(rec, Layer, "leafy", "leafy", "leaf")
    wrap(rec, Layer, "rows", "rows", "gen")
    pool = ThreadPoolExecutor(3)
    from perfbench.trace import _adopting_submit

    pool.submit = _adopting_submit(rec, pool.submit)
    Layer().outer(pool)
    pool.shutdown()
    _check_nesting(rec.snapshot()["spans"])
    totals = rec.snapshot()["totals"]
    outer = totals["outer"]
    # outer's own time is its sleep plus glue, not its children's.
    assert 0.002 <= outer["self_s"] < outer["busy_s"] - 0.006
    assert totals["leafy"]["count"] == 3
    assert totals["rows"]["units"] == 3


def test_self_times_nest_in_a_real_run(traced_ingest):
    _result, report = traced_ingest
    spans = report["detail"]["spans"]["spans"]
    assert spans
    _check_nesting(spans)


def _check_nesting(spans):
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["self"] >= 0
        assert span["self"] <= span["busy"] + 1e-9
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert span["self"] <= parent["end"] - parent["start"] + 1e-6, (
                span, parent)
