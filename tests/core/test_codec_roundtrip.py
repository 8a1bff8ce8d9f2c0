"""Schema-compiled codec: roundtrip, fuzz, corruption, and v1 compat.

The block format v2 codec (``core/codec.py``) compiles per-schema
encode/decode functions.  These tests pin down:

* bit-exact roundtrips over randomized schemas and value distributions
  (including varint width edges, NaN/inf doubles, empty and long
  strings, zero-byte blobs);
* agreement between the compiled v1 row encoder and the reference
  ``RowCodec``;
* ``decode_range`` returning exactly the restart chunk of key columns a
  brute-force search would, and ``contains_key`` finding every stored
  key and no absent one, while reading only key columns, each restart
  table once, and at most 2*K values per key column;
* corrupt or truncated buffers failing with ``CorruptTabletError``
  and nothing else;
* the checked-in v1 tablet fixture (written before format v2 existed)
  still reading back every row exactly, and mixed v1/v2 tablet sets
  merging cleanly into v2.
"""

import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core.codec import (BLOCK_FORMAT_V1, BLOCK_FORMAT_V2,
                              RESTART_INTERVAL, SchemaCodec,
                              _parse_v2_layout, compiled_ops)
from repro.core.encoding import RowCodec, decode_value
from repro.core.errors import CorruptTabletError, ValidationError
from repro.core.schema import Column, ColumnType, Schema
from repro.core.readcache import ReadCache
from repro.core.row import KeyRange
from repro.core.tablet import TabletReader, TabletWriter
from repro.disk import SimulatedDisk

FIXTURES = Path(__file__).parent / "fixtures"

# --------------------------------------------------------------- helpers

_VALUE_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.DOUBLE,
                ColumnType.STRING, ColumnType.BLOB]

_INT32_EDGES = [0, 1, -1, 127, 128, -128, 2**31 - 1, -(2**31), 16383, 16384]
_INT64_EDGES = [0, 1, -1, 2**63 - 1, -(2**63), 2**32, -(2**32),
                (1 << 35) - 1, 1 << 35]
_TS_EDGES = [0, 1, 127, 128, 2**31, 2**62 - 1]
_DOUBLE_EDGES = [0.0, -0.0, 1.5, -1e308, 1e-308, float("inf"),
                 float("-inf"), float("nan")]
_STRING_EDGES = ["", "a", "x" * 300, "snowman ☃", "é" * 5]
_BLOB_EDGES = [b"", b"\x00", b"\xff" * 200]


def random_schema(rng):
    """A random schema: 1-3 key columns (plus ts), 0-4 value columns."""
    n_key = rng.randint(0, 2)
    columns, key = [], []
    for i in range(n_key):
        kind = rng.choice([ColumnType.STRING, ColumnType.INT64,
                           ColumnType.INT32])
        columns.append(Column(f"k{i}", kind))
        key.append(f"k{i}")
    columns.append(Column("ts", ColumnType.TIMESTAMP))
    key.append("ts")
    for i in range(rng.randint(0, 4)):
        columns.append(Column(f"v{i}", rng.choice(_VALUE_TYPES)))
    return Schema(columns, key=key)


def random_value(rng, column_type):
    if column_type is ColumnType.INT32:
        if rng.random() < 0.3:
            return rng.choice(_INT32_EDGES)
        return rng.randint(-(2**31), 2**31 - 1)
    if column_type is ColumnType.INT64:
        if rng.random() < 0.3:
            return rng.choice(_INT64_EDGES)
        return rng.randint(-(2**63), 2**63 - 1)
    if column_type is ColumnType.TIMESTAMP:
        if rng.random() < 0.2:
            return rng.choice(_TS_EDGES)
        return rng.randint(0, 2**48)
    if column_type is ColumnType.DOUBLE:
        if rng.random() < 0.3:
            return rng.choice(_DOUBLE_EDGES)
        return rng.uniform(-1e6, 1e6)
    if column_type is ColumnType.STRING:
        if rng.random() < 0.3:
            return rng.choice(_STRING_EDGES)
        length = rng.randint(0, 40)
        return "".join(rng.choice("abcdefghij é☃")
                       for _ in range(length))
    if column_type is ColumnType.BLOB:
        if rng.random() < 0.3:
            return rng.choice(_BLOB_EDGES)
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))
    raise AssertionError(column_type)


def random_rows(rng, schema, count):
    """Sorted, key-unique random rows for ``schema``."""
    key_of = compiled_ops(schema).key_of
    rows, seen = [], set()
    types = [c.type for c in schema.columns]
    while len(rows) < count:
        row = tuple(random_value(rng, t) for t in types)
        key = key_of(row)
        if key in seen:
            continue
        seen.add(key)
        rows.append(row)
    rows.sort(key=key_of)
    return rows


def absent_probes(all_keys):
    """Keys a block of sorted ``all_keys`` does not hold, by kind.

    Each is a stored key with its ts moved by one: before the first
    key, after the last, either side of every restart row (strictly
    between the two rows), every key's prefix with another ts, and
    keys inside the final (possibly partial) chunk.
    """
    stored = set(all_keys)
    k = RESTART_INTERVAL

    def moved(key, delta):
        ts = key[-1] + delta
        probe = key[:-1] + (ts,)
        return probe if ts >= 0 and probe not in stored else None

    between = []
    for j in range(k, len(all_keys), k):
        for probe in (moved(all_keys[j], -1), moved(all_keys[j - 1], 1)):
            if probe is not None and all_keys[j - 1] < probe < all_keys[j]:
                between.append(probe)
    final = (len(all_keys) - 1) // k * k
    kinds = {
        "before_first": [moved(all_keys[0], -1)],
        "after_last": [moved(all_keys[-1], 1)],
        "between_restarts": between,
        "other_ts": [moved(key, delta) for key in all_keys
                     for delta in (-1, 1)],
        "final_chunk": [moved(key, delta) for key in all_keys[final:]
                        for delta in (-1, 1)],
    }
    return {kind: [p for p in probes if p is not None]
            for kind, probes in kinds.items()}


def values_equal(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    return a == b and type(a) is type(b)


def rows_equal(xs, ys):
    return len(xs) == len(ys) and all(
        len(x) == len(y) and all(values_equal(a, b) for a, b in zip(x, y))
        for x, y in zip(xs, ys))


# ------------------------------------------------------- fuzz roundtrips

class TestFuzzRoundtrip:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_schema_roundtrip(self, seed):
        rng = random.Random(0xC0DEC + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        rows = random_rows(rng, schema, rng.randint(1, 120))
        block = codec.encode_rows(rows)
        decoded, keys = codec.decode_block(block)
        assert rows_equal(decoded, rows)
        key_of = compiled_ops(schema).key_of
        assert keys == [key_of(r) for r in rows]

    @pytest.mark.parametrize("seed", range(12))
    def test_v1_row_encoder_matches_reference(self, seed):
        rng = random.Random(0xBEEF + seed)
        schema = random_schema(rng)
        ops = compiled_ops(schema)
        reference = RowCodec(schema)
        for row in random_rows(rng, schema, 40):
            assert ops.encode_row_v1(row) == reference.encode_row(row)
            assert ops.size_of(row) == len(reference.encode_row(row))

    @pytest.mark.parametrize("seed", range(8))
    def test_validate_and_size_matches_encoded_length(self, seed):
        rng = random.Random(0xFACE + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        for row in random_rows(rng, schema, 40):
            validated, size = codec.validate_and_size(row)
            assert size == len(codec.encode_row_v1(validated))

    @pytest.mark.parametrize("seed", range(8))
    def test_decode_range_matches_bruteforce(self, seed):
        rng = random.Random(0xD00D + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        key_of = compiled_ops(schema).key_of
        rows = random_rows(rng, schema, 200)
        block = codec.encode_rows(rows)
        all_keys = [key_of(r) for r in rows]
        probes = [key_of(rows[rng.randrange(len(rows))]) for _ in range(20)]
        absent = [probe for group in absent_probes(all_keys).values()
                  for probe in group]
        probes += rng.sample(absent, min(40, len(absent)))
        for probe in probes:
            got_keys, base = codec.decode_range(block, probe)
            if probe < all_keys[0]:
                assert got_keys == []
                continue
            # The one restart chunk that can hold the probe, key columns
            # only: starts at a restart row <= probe and ends before the
            # next restart row, which is > probe.
            assert base % RESTART_INTERVAL == 0
            assert got_keys == all_keys[base:base + RESTART_INTERVAL]
            assert got_keys[0] <= probe
            following = base + RESTART_INTERVAL
            assert following >= len(all_keys) or all_keys[following] > probe

    @pytest.mark.parametrize("seed", range(8))
    def test_contains_key_matches_bruteforce(self, seed):
        rng = random.Random(0xD00D + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        key_of = compiled_ops(schema).key_of
        rows = random_rows(rng, schema, 200)
        block = codec.encode_rows(rows)
        all_keys = [key_of(r) for r in rows]
        stored = set(all_keys)
        for key in all_keys:
            assert codec.contains_key(block, key)
        absent = absent_probes(all_keys)
        # 200 rows = 12 full chunks + a partial one; every category but
        # "before the first key" (impossible when it has ts 0) exists.
        for kind in ("after_last", "between_restarts", "other_ts",
                     "final_chunk"):
            assert absent[kind], kind
        for kind, probes in absent.items():
            for probe in probes:
                assert probe not in stored
                assert not codec.contains_key(block, probe), (kind, probe)

    @pytest.mark.parametrize("count", [1, 2, RESTART_INTERVAL,
                                       RESTART_INTERVAL + 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_contains_key_small_blocks(self, seed, count):
        rng = random.Random(0x5EED + seed)
        schema = random_schema(rng)
        codec = SchemaCodec(schema)
        key_of = compiled_ops(schema).key_of
        rows = random_rows(rng, schema, count)
        block = codec.encode_rows(rows)
        all_keys = [key_of(r) for r in rows]
        for key in all_keys:
            assert codec.contains_key(block, key)
        for probes in absent_probes(all_keys).values():
            for probe in probes:
                assert not codec.contains_key(block, probe)


def usage_block_schema():
    """UsageGrabber-shaped key plus one value column of every type."""
    return Schema([
        Column("network", ColumnType.STRING),
        Column("device", ColumnType.INT64),
        Column("ts", ColumnType.TIMESTAMP),
        Column("counter", ColumnType.INT64),
        Column("rate", ColumnType.DOUBLE),
        Column("note", ColumnType.STRING),
        Column("raw", ColumnType.BLOB),
    ], key=["network", "device", "ts"])


def usage_rows(networks=20, devices=10, samples=10):
    rows = [(f"net-{net:03d}", dev, 60_000 * (sample + 1) + dev,
             sample * 7, sample * 0.25, f"note {sample}", b"\x01" * sample)
            for net in range(networks) for dev in range(devices)
            for sample in range(samples)]
    rows.sort(key=lambda row: row[:3])
    return rows


class TestProbeCost:
    """Structural guard on one ``contains_key`` probe (not a timing
    gate): counts calls into the generic v2 readers."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import repro.core.codec as codec_module

        reads = {"tables": [], "values": Counter()}
        real_offsets = codec_module._segment_offsets
        real_span = codec_module._decode_span
        real_restart = codec_module._decode_restart_value

        def segment_offsets(buf, seg, r):
            reads["tables"].append(seg)
            return real_offsets(buf, seg, r)

        def decode_span(buf, schema, index, *args):
            values = real_span(buf, schema, index, *args)
            reads["values"][index] += len(values)
            return values

        def decode_restart_value(buf, schema, index, *args):
            reads["values"][index] += 1
            return real_restart(buf, schema, index, *args)

        monkeypatch.setattr(codec_module, "_segment_offsets",
                            segment_offsets)
        monkeypatch.setattr(codec_module, "_decode_span", decode_span)
        monkeypatch.setattr(codec_module, "_decode_restart_value",
                            decode_restart_value)
        return reads

    def test_one_probe_reads_one_chunk_of_key_columns(self, reads):
        schema = usage_block_schema()
        codec = SchemaCodec(schema)
        rows = usage_rows()
        assert len(rows) == 2000
        block = codec.encode_rows(rows)
        layout = _parse_v2_layout(block, schema)
        key_indexes = schema.key_indexes
        key_segs = {layout.segs[i] for i in key_indexes}
        all_keys = [row[:3] for row in rows]
        absent = [probe for group in absent_probes(all_keys).values()
                  for probe in group]
        probes = all_keys[::97] + [all_keys[-1]] + absent[::50]
        for probe in probes:
            reads["tables"].clear()
            reads["values"].clear()
            assert codec.contains_key(block, probe) == (probe in all_keys)
            # Each key column's restart table is parsed at most once...
            assert len(reads["tables"]) == len(set(reads["tables"]))
            # ...and no non-key column segment is read at all.
            assert set(reads["tables"]) <= key_segs
            assert set(reads["values"]) <= set(key_indexes)
            # Binary search (~log2(R) restart values) plus one chunk.
            for index in key_indexes:
                assert reads["values"][index] <= 2 * RESTART_INTERVAL


class TestProbeKey:
    """``TabletReader.probe_key`` over multi-block v2 tablets."""

    def _reader(self, cache):
        disk = SimulatedDisk()
        writer = TabletWriter(disk, usage_block_schema(), 2048, "zlib", 10)
        rows = usage_rows(networks=6)
        writer.write("t/probe.lt", rows, tablet_id=1, created_at=0)
        reader = TabletReader(disk, "t/probe.lt", cache=cache)
        reader.ensure_loaded()
        assert reader.block_format == BLOCK_FORMAT_V2
        assert reader.block_count > 3
        return reader, [row[:3] for row in rows]

    @pytest.mark.parametrize("warm", [False, True])
    def test_probe_key_cold_and_warm(self, warm):
        cache = ReadCache(1 << 24 if warm else 0)
        reader, all_keys = self._reader(cache)
        if warm:
            list(reader.scan(KeyRange.all()))
            assert cache.entry_count == reader.block_count
        stored = set(all_keys)
        for key in all_keys:
            assert reader.probe_key(key)
        for probes in absent_probes(all_keys).values():
            for probe in probes:
                assert probe not in stored
                assert not reader.probe_key(probe)
        assert not reader.probe_key(("net-999", 0, 0))

    def test_cold_probes_bypass_the_read_cache(self):
        cache = ReadCache(1 << 24)
        reader, all_keys = self._reader(cache)
        for key in all_keys[::7]:
            assert reader.probe_key(key)
        assert cache.entry_count == 0


class TestBoundaryValues:
    def test_edge_value_matrix(self):
        schema = Schema([
            Column("k", ColumnType.STRING),
            Column("ts", ColumnType.TIMESTAMP),
            Column("i32", ColumnType.INT32),
            Column("i64", ColumnType.INT64),
            Column("d", ColumnType.DOUBLE),
            Column("s", ColumnType.STRING),
            Column("b", ColumnType.BLOB),
        ], key=["k", "ts"])
        codec = SchemaCodec(schema)
        rows = []
        for i, (i32, i64, ts, d, s, b) in enumerate(zip(
                _INT32_EDGES, _INT64_EDGES * 2, _TS_EDGES * 2,
                _DOUBLE_EDGES * 2, _STRING_EDGES * 2, _BLOB_EDGES * 4)):
            rows.append((f"key-{i:04d}", ts + i, i32, i64, d, s, b))
        rows.sort(key=compiled_ops(schema).key_of)
        decoded, _keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)

    def test_single_row_and_ts_only_key(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("v", ColumnType.DOUBLE)], key=["ts"])
        codec = SchemaCodec(schema)
        rows = [(123456789, float("nan"))]
        decoded, keys = codec.decode_block(codec.encode_rows(rows))
        assert rows_equal(decoded, rows)
        assert keys == [(123456789,)]

    def test_restart_interval_boundaries(self):
        # Row counts straddling multiples of the restart interval.
        schema = Schema([Column("k", ColumnType.STRING),
                         Column("ts", ColumnType.TIMESTAMP)], key=["k", "ts"])
        codec = SchemaCodec(schema)
        for n in (1, 15, 16, 17, 31, 32, 33, 160):
            rows = [(f"prefix-shared-{i:06d}", 1000 + i) for i in range(n)]
            decoded, _keys = codec.decode_block(codec.encode_rows(rows))
            assert rows_equal(decoded, rows)

    def test_validation_errors_still_raise(self):
        schema = Schema([Column("ts", ColumnType.TIMESTAMP),
                         Column("n", ColumnType.INT32)], key=["ts"])
        codec = SchemaCodec(schema)
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, 2**31))       # int32 overflow
        with pytest.raises(ValidationError):
            codec.validate_and_size((-5, 0))            # negative ts
        with pytest.raises(ValidationError):
            codec.validate_and_size((100, "nope"))      # wrong type


# ------------------------------------------------------------ corruption

class TestCorruption:
    def _block(self):
        schema = Schema([
            Column("host", ColumnType.STRING),
            Column("ts", ColumnType.TIMESTAMP),
            Column("v", ColumnType.DOUBLE),
            Column("note", ColumnType.STRING),
        ], key=["host", "ts"])
        codec = SchemaCodec(schema)
        rows = [(f"host-{i % 7}", 1000 + i, i * 0.5, f"n{i}")
                for i in range(100)]
        rows.sort(key=compiled_ops(schema).key_of)
        return codec, codec.encode_rows(rows)

    def test_truncations_raise_corrupt(self):
        codec, block = self._block()
        for cut in list(range(0, 40)) + [len(block) // 2, len(block) - 1]:
            with pytest.raises(CorruptTabletError):
                codec.decode_block(block[:cut])

    def test_trailing_garbage_raises_corrupt(self):
        codec, block = self._block()
        with pytest.raises(CorruptTabletError):
            codec.decode_block(block + b"\x00")

    def test_bad_version_byte_raises_corrupt(self):
        codec, block = self._block()
        with pytest.raises(CorruptTabletError):
            codec.decode_block(b"\x07" + block[1:])

    def test_bit_flips_never_raise_anything_else(self):
        # A flipped bit may still decode (e.g. inside a double), but it
        # must never escape as anything but CorruptTabletError.
        codec, block = self._block()
        rng = random.Random(42)
        for _ in range(300):
            pos = rng.randrange(len(block))
            bit = 1 << rng.randrange(8)
            mutated = bytearray(block)
            mutated[pos] ^= bit
            try:
                codec.decode_block(bytes(mutated))
            except CorruptTabletError:
                pass

    def test_contains_key_truncations_and_bit_flips(self):
        codec, block = self._block()
        key = ("host-3", 1003)
        assert codec.contains_key(block, key)
        for cut in list(range(0, 40)) + [len(block) // 2, len(block) - 1]:
            with pytest.raises(CorruptTabletError):
                codec.contains_key(block[:cut], key)
        rng = random.Random(43)
        for _ in range(300):
            pos = rng.randrange(len(block))
            mutated = bytearray(block)
            mutated[pos] ^= 1 << rng.randrange(8)
            try:
                codec.contains_key(bytes(mutated), key)
            except CorruptTabletError:
                pass

    def test_contains_key_bad_restart_offset_table(self):
        codec, block = self._block()
        layout = _parse_v2_layout(block, codec.schema)
        host_seg = layout.segs[0][0]
        mutated = bytearray(block)
        mutated[host_seg] += 1  # offs_len one byte too long
        with pytest.raises(CorruptTabletError,
                           match="bad restart offset table"):
            codec.contains_key(bytes(mutated), ("host-3", 1003))

    def test_decode_value_truncated_length_prefix(self):
        # decode_value must turn an over-long length prefix into
        # CorruptTabletError before slicing.
        bad = bytes([0x80, 0x80, 0x04]) + b"ab"   # says 65536 bytes follow
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.STRING, bad, 0)
        with pytest.raises(CorruptTabletError):
            decode_value(ColumnType.BLOB, bad, 0)


# ------------------------------------------------------ v1 compatibility

def load_fixture_schema():
    return Schema.from_dict(
        json.loads((FIXTURES / "v1_tablet_schema.json").read_text()))


def load_fixture_rows(schema):
    raw = json.loads((FIXTURES / "v1_tablet_rows.json").read_text())
    blob_idx = [i for i, c in enumerate(schema.columns)
                if c.type is ColumnType.BLOB]
    rows = []
    for row in raw:
        row = list(row)
        for i in blob_idx:
            row[i] = bytes.fromhex(row[i])
        rows.append(tuple(row))
    return rows


class TestV1Compat:
    @pytest.mark.parametrize("name", ["v1_tablet_none.bin",
                                      "v1_tablet_zlib.bin"])
    def test_fixture_reads_bit_exactly(self, name):
        """Tablets written before format v2 existed still read exactly."""
        disk = SimulatedDisk()
        filename = "t/fixture.lt"
        disk.write_file(filename, (FIXTURES / name).read_bytes())
        reader = TabletReader(disk, filename)
        reader.ensure_loaded()
        assert reader.block_format == BLOCK_FORMAT_V1
        schema = load_fixture_schema()
        assert reader.schema.to_dict() == schema.to_dict()
        expected = load_fixture_rows(schema)
        got = list(reader.scan(KeyRange.all()))
        assert rows_equal(got, expected)

    def test_fixture_probe_key(self):
        disk = SimulatedDisk()
        disk.write_file("t/f.lt",
                        (FIXTURES / "v1_tablet_zlib.bin").read_bytes())
        reader = TabletReader(disk, "t/f.lt")
        reader.ensure_loaded()
        schema = load_fixture_schema()
        rows = load_fixture_rows(schema)
        key_of = compiled_ops(schema).key_of
        assert reader.probe_key(key_of(rows[0]))
        assert reader.probe_key(key_of(rows[len(rows) // 2]))
        assert reader.probe_key(key_of(rows[-1]))
        missing = list(rows[0])
        missing[0] = "host-that-does-not-exist"
        assert not reader.probe_key(key_of(tuple(missing)))


class TestMixedFormatMerge:
    def test_v1_tablets_merge_to_v2(self, db, clock):
        from ..conftest import usage_schema

        table = db.create_table("mixed", usage_schema())
        # Two tablets written in the legacy format...
        table.config.block_format_version = BLOCK_FORMAT_V1
        for batch in range(2):
            table.insert([
                {"network": 1, "device": d, "ts": clock.now(),
                 "bytes": batch * 100 + d, "rate": d * 0.25}
                for d in range(50)])
            table.flush_all()
            clock.advance_seconds(60)
        # ...one written as v2...
        table.config.block_format_version = BLOCK_FORMAT_V2
        table.insert([
            {"network": 2, "device": d, "ts": clock.now(),
             "bytes": d, "rate": 0.0} for d in range(50)])
        table.flush_all()
        formats = set()
        for meta in table.on_disk_tablets:
            reader = table._reader(meta)
            reader.ensure_loaded()
            formats.add(reader.block_format)
        assert formats == {BLOCK_FORMAT_V1, BLOCK_FORMAT_V2}
        from repro.core import Query
        before = table.query(Query()).rows
        # ...merging the mixed set must upgrade everything to v2.
        while table.maybe_merge() is not None:
            pass
        after = table.query(Query()).rows
        assert sorted(after) == sorted(before)
        for meta in table.on_disk_tablets:
            reader = table._reader(meta)
            reader.ensure_loaded()
            assert reader.block_format == BLOCK_FORMAT_V2
        counters = db.metrics.snapshot()["counters"]
        assert counters.get("codec.blocks_upgraded_v1_to_v2", 0) > 0
