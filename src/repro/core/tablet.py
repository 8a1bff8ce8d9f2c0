"""On-disk tablets: writer, reader, and cursors.

File layout (paper §3.2, §3.5):

    [block 0][block 1]...[block n-1][compressed footer][trailer]

* Each block holds rows sorted by primary key, compressed.
* The footer records the tablet's schema, its timespan, a block index
  with the **last key in each block**, (optionally) a key-prefix
  Bloom filter (§3.4.5), and - for tablets written since block format
  v2 - the block format version.  Old footers end at the Bloom bytes,
  so a missing version field means v1; v1 blocks carry no version
  byte of their own, which is why the negotiation lives here.
* The trailer is the "final two words of the file": the footer's
  decompressed size and its offset within the file, 8 bytes each,
  little-endian.  The compressed footer therefore spans
  ``[offset, file_size - 16)``.

Format v2.1 (checksummed storage) extends the trailer to 24 bytes:
the two legacy words, then the CRC of the *compressed* footer bytes
(4 bytes LE) and the magic ``b"LT21"``.  The footer additionally
carries one CRC per block (over each block's compressed payload),
appended after the ``block_format`` field through the same
trailing-field mechanism, so the footer CRC guards the block CRCs and
the block CRCs guard the data.  Readers detect v2.1 by the magic: a
legacy 16-byte trailer's last four bytes are the high bytes of the
footer offset, which are always zero for any real file, so the magic
can never collide.  Every flipped bit is therefore caught somewhere:
in a block (block CRC), in the footer (footer CRC), or in the trailer
itself (magic/offset validation or footer CRC mismatch).


Block bodies come in two formats.  v1 is row-major: each row's v1
encoding concatenated.  v2 (``core/codec.py``) is column-major with
delta timestamps, prefix-compressed key strings, and restart points;
whole blocks encode and decode through the schema-compiled batch
codec.  Readers handle both; merges rewrite v1 blocks as v2.

Reading a footer costs three seeks on a cold cache (inode, trailer,
footer - §3.5); once cached in memory the reader answers block lookups
with a single block read (one seek), which is exactly the 4-vs-1 seek
behaviour Figure 6 measures.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from ..disk.vfs import SimulatedDisk
from ..obs.metrics import NULL_REGISTRY
from ..util.bloom import KeyPrefixBloom
from ..util.checksum import crc32c
from ..util.varint import decode_uvarint, encode_uvarint
from .block import (
    BlockBuilder,
    codec_id,
    compress,
    decode_block_pairs,
    decode_rows,
    decompress,
)
from .codec import BLOCK_FORMAT_V1, BLOCK_FORMAT_V2, SchemaCodec
from .encoding import RowCodec
from .errors import ChecksumError, CorruptTabletError
from .readcache import NULL_READ_CACHE
from .row import KeyRange
from .schema import ColumnType, Schema

TRAILER_BYTES = 16

# Format v2.1: legacy trailer + footer CRC (4 bytes LE) + magic.
CHECKSUM_TRAILER_BYTES = 24
CHECKSUM_MAGIC = b"LT21"

_UNSET = object()


@dataclass
class TabletMeta:
    """Descriptor-level metadata for one on-disk tablet.

    ``tier`` is "hot" for the local spinning disk; "cold" marks
    tablets migrated to the write-once archive tier (the §6 LHAM-style
    extension: "we are considering using Amazon S3 or another cloud
    service as an additional backing store for old LittleTable data").

    ``min_key``/``max_key`` are the tablet's key-range zone map: the
    first and last primary key the writer saw.  The prune index skips
    tablets whose key interval misses a query's key range without
    opening their readers.  They are None for tablets written before
    zone maps existed (key columns are never BLOBs, so the values are
    JSON-safe).
    """

    tablet_id: int
    filename: str
    min_ts: int
    max_ts: int
    row_count: int
    size_bytes: int
    schema_version: int
    created_at: int  # engine time when the tablet was written
    tier: str = "hot"
    min_key: Optional[Tuple[Any, ...]] = None
    max_key: Optional[Tuple[Any, ...]] = None

    def to_dict(self) -> dict:
        out = {
            "tablet_id": self.tablet_id,
            "filename": self.filename,
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
            "row_count": self.row_count,
            "size_bytes": self.size_bytes,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "tier": self.tier,
        }
        if self.min_key is not None:
            out["min_key"] = list(self.min_key)
        if self.max_key is not None:
            out["max_key"] = list(self.max_key)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TabletMeta":
        data = dict(data)
        data.setdefault("tier", "hot")
        for zone in ("min_key", "max_key"):
            if data.get(zone) is not None:
                data[zone] = tuple(data[zone])
            else:
                data[zone] = None
        return cls(**data)


@dataclass
class _BlockEntry:
    offset: int
    compressed_len: int
    row_count: int
    last_key: Tuple[Any, ...]


def _prefix_column_encoders(schema: Schema):
    """Per-column encoders for Bloom prefix parts (key cols sans ts)."""

    def string_encoder(value: str) -> bytes:
        raw = value.encode("utf-8")
        return encode_uvarint(len(raw)) + raw

    def int_encoder(value: int) -> bytes:
        return encode_uvarint((value << 1) ^ (value >> 63))

    encoders = []
    for index in schema.key_indexes[:-1]:
        t = schema.columns[index].type
        if t is ColumnType.STRING:
            encoders.append(string_encoder)
        elif t is ColumnType.TIMESTAMP:
            encoders.append(encode_uvarint)
        else:
            encoders.append(int_encoder)
    return encoders


class TabletSink:
    """Streams sorted rows - or whole pre-compressed blocks - into one
    tablet file.

    The flush path feeds it (row, size) pairs from a memtable; the
    merge path feeds it decoded rows and, when an entire v2 block from
    one source survives unmodified, the block's compressed payload
    verbatim (``add_block_passthrough``), skipping the decode and
    re-encode entirely.

    Bloom filters are fed incrementally as keys arrive (sorted keys
    repeat their leading columns, so most prefix levels are skipped);
    when the expected row count is unknown the per-key prefix parts
    are buffered and the filter is sized and filled at finish.
    """

    def __init__(self, disk: SimulatedDisk, schema: Schema,
                 block_size: int, compression: str,
                 bloom_bits_per_row: int = 0,
                 block_format: int = BLOCK_FORMAT_V2,
                 metrics=None, expected_rows: int = 0,
                 checksums: bool = True, io_limiter=None):
        self.disk = disk
        self.schema = schema
        self.codec = codec_id(compression)
        self.block_size = block_size
        self.block_format = block_format
        self.checksums = checksums
        # Optional token bucket pacing background writes: debited once
        # per compressed block as it is cut, so a large merge yields
        # between blocks instead of bursting the whole rewrite.
        self.io_limiter = io_limiter
        self._block_crcs: List[int] = []
        self.bloom_bits_per_row = bloom_bits_per_row
        self.schema_codec = SchemaCodec(schema, metrics)
        self._key_of = self.schema_codec.key_of
        self._size_of = self.schema_codec.size_of
        self._ts_index = schema.ts_index
        self._row_codec = RowCodec(schema)  # footer keys only
        self._body = bytearray()
        self._entries: List[_BlockEntry] = []
        self._rows: List[Tuple[Any, ...]] = []
        self._keys: List[Tuple[Any, ...]] = []
        self._pending_bytes = 0
        self._builder = (BlockBuilder(block_size)
                         if block_format == BLOCK_FORMAT_V1 else None)
        self.row_count = 0
        self.min_ts: Optional[int] = None
        self.max_ts: Optional[int] = None
        self.first_key: Optional[Tuple[Any, ...]] = None
        self.last_key: Optional[Tuple[Any, ...]] = None
        self._expected_rows = expected_rows
        self._bloom: Optional[KeyPrefixBloom] = None
        self._bloom_buffered: Optional[List[Tuple[bytes, ...]]] = None
        self._bloom_state: list = []
        if bloom_bits_per_row:
            self._bloom_width = schema.key_width - 1
            self._bloom_encoders = _prefix_column_encoders(schema)
            self._bloom_prev_vals: List[Any] = [_UNSET] * self._bloom_width
            self._bloom_parts: List[bytes] = [b""] * self._bloom_width
            if expected_rows > 0:
                self._bloom = KeyPrefixBloom(
                    expected_keys=expected_rows,
                    key_width=max(1, self._bloom_width),
                    bits_per_key=bloom_bits_per_row,
                )
            else:
                self._bloom_buffered = []

    @property
    def wants_bloom(self) -> bool:
        return bool(self.bloom_bits_per_row)

    @property
    def pending_bytes(self) -> int:
        """Estimated uncompressed size of the block being built."""
        if self._builder is not None:
            return self._builder.size_bytes
        return self._pending_bytes

    # ------------------------------------------------------------- rows

    def _note_row(self, key: Tuple[Any, ...], ts: int) -> None:
        if self.min_ts is None or ts < self.min_ts:
            self.min_ts = ts
        if self.max_ts is None or ts > self.max_ts:
            self.max_ts = ts
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        self.row_count += 1
        if self.bloom_bits_per_row:
            self._bloom_add(key)

    def _bloom_add(self, key: Tuple[Any, ...]) -> None:
        prev_vals = self._bloom_prev_vals
        parts = self._bloom_parts
        encoders = self._bloom_encoders
        for level in range(self._bloom_width):
            value = key[level]
            if value != prev_vals[level]:
                parts[level] = encoders[level](value)
                prev_vals[level] = value
        if self._bloom is not None:
            self._bloom.add_key_incremental(parts, self._bloom_state)
        else:
            self._bloom_buffered.append(tuple(parts))

    def add_row(self, row: Tuple[Any, ...],
                key: Optional[Tuple[Any, ...]] = None,
                size: Optional[int] = None) -> None:
        """Append one decoded row (sorted, unique).

        ``size`` is the row's v1-encoded size when the caller already
        knows it (memtables do); it only drives block cutting.
        """
        if key is None:
            key = self._key_of(row)
        if self._builder is not None:
            self.add_encoded(row, self.schema_codec.encode_row_v1(row),
                             key=key)
            return
        if size is None:
            size = self._size_of(row)
        if self._pending_bytes and \
                self._pending_bytes + size > self.block_size:
            self._cut_v2()
        self._rows.append(row)
        self._keys.append(key)
        self._pending_bytes += size
        self._note_row(key, row[self._ts_index])

    def add_encoded(self, row: Tuple[Any, ...], encoded: bytes,
                    key: Optional[Tuple[Any, ...]] = None) -> None:
        """Append one row with its v1 encoding (v1-format sinks only)."""
        if key is None:
            key = self._key_of(row)
        if self._builder.would_overflow(len(encoded)):
            self._cut_v1()
        self._builder.add(encoded)
        self._note_row(key, row[self._ts_index])

    # ----------------------------------------------------------- blocks

    def _cut_v2(self) -> None:
        raw = self.schema_codec.encode_rows(self._rows)
        payload = compress(self.codec, raw)
        if self.io_limiter is not None:
            self.io_limiter.acquire(len(payload))
        self._entries.append(_BlockEntry(
            len(self._body), len(payload), len(self._rows), self._keys[-1]))
        if self.checksums:
            self._block_crcs.append(crc32c(payload))
        self._body += payload
        self._rows = []
        self._keys = []
        self._pending_bytes = 0

    def _cut_v1(self) -> None:
        payload, count, _raw = self._builder.finish(self.codec)
        if self.io_limiter is not None:
            self.io_limiter.acquire(len(payload))
        self._entries.append(_BlockEntry(
            len(self._body), len(payload), count, self.last_key))
        if self.checksums:
            self._block_crcs.append(crc32c(payload))
        self._body += payload

    def _cut_pending(self) -> None:
        if self._builder is not None:
            if len(self._builder):
                self._cut_v1()
        elif self._rows:
            self._cut_v2()

    def add_block_passthrough(self, payload: bytes, row_count: int,
                              last_key: Tuple[Any, ...]) -> None:
        """Append one already-compressed v2 block verbatim.

        The caller guarantees the block's rows are sorted after
        everything added so far and before everything added later,
        that the payload's codec matches the sink's, and that it
        feeds key/timestamp bookkeeping itself (``add_bloom_prefixes``
        / ``note_ts_bounds``) since the rows are never decoded here.
        """
        self._cut_pending()
        if self.io_limiter is not None:
            self.io_limiter.acquire(len(payload))
        self._entries.append(_BlockEntry(
            len(self._body), len(payload), row_count, last_key))
        if self.checksums:
            self._block_crcs.append(crc32c(payload))
        self._body += payload
        self.row_count += row_count
        if self.first_key is None:
            self.first_key = last_key  # refined by finish() overrides
        self.last_key = last_key

    def add_bloom_prefixes(self, prefix_rows: Iterable[Tuple[Any, ...]]
                           ) -> None:
        """Feed Bloom prefixes for rows added via passthrough blocks.

        ``prefix_rows`` yields key tuples *without* the trailing
        timestamp (e.g. ``zip(*decoded key columns)``).
        """
        if not self.bloom_bits_per_row:
            return
        for values in prefix_rows:
            self._bloom_add(values)

    def note_ts_bounds(self, min_ts: int, max_ts: int) -> None:
        """Widen the tablet's timespan (passthrough bookkeeping)."""
        if self.min_ts is None or min_ts < self.min_ts:
            self.min_ts = min_ts
        if self.max_ts is None or max_ts > self.max_ts:
            self.max_ts = max_ts

    # ----------------------------------------------------------- finish

    def finish(self, filename: str, tablet_id: int, created_at: int,
               min_key: Optional[Tuple[Any, ...]] = None,
               max_key: Optional[Tuple[Any, ...]] = None
               ) -> Optional[TabletMeta]:
        """Cut the final block, write the file, return its metadata.

        Returns None (writing nothing) if no rows were added.
        ``min_key``/``max_key`` override the tracked zone map - the
        merge path passes bounds derived from the source tablets'
        metadata because passed-through blocks never expose their
        first key.
        """
        self._cut_pending()
        if self.row_count == 0:
            return None
        bloom_bytes = b""
        if self.bloom_bits_per_row:
            bloom = self._bloom
            if bloom is None:
                bloom = KeyPrefixBloom(
                    expected_keys=max(self._expected_rows, self.row_count),
                    key_width=max(1, self._bloom_width),
                    bits_per_key=self.bloom_bits_per_row,
                )
                state: list = []
                for parts in self._bloom_buffered:
                    bloom.add_key_incremental(parts, state)
            bloom_bytes = bloom.serialize()
        footer = self._encode_footer(bloom_bytes)
        compressed_footer = compress(self.codec, footer)
        footer_offset = len(self._body)
        trailer = (len(footer).to_bytes(8, "little")
                   + footer_offset.to_bytes(8, "little"))
        if self.checksums:
            trailer += (crc32c(compressed_footer).to_bytes(4, "little")
                        + CHECKSUM_MAGIC)
        file_bytes = bytes(self._body) + compressed_footer + trailer
        if self.io_limiter is not None:
            self.io_limiter.acquire(len(compressed_footer) + len(trailer))
        self.disk.fire("tablet.write")
        self.disk.write_file(filename, file_bytes)
        return TabletMeta(
            tablet_id=tablet_id,
            filename=filename,
            min_ts=self.min_ts,
            max_ts=self.max_ts,
            row_count=self.row_count,
            size_bytes=len(file_bytes),
            schema_version=self.schema.version,
            created_at=created_at,
            min_key=min_key if min_key is not None else self.first_key,
            max_key=max_key if max_key is not None else self.last_key,
        )

    def _encode_footer(self, bloom_bytes: bytes) -> bytes:
        schema_json = json.dumps(self.schema.to_dict()).encode("utf-8")
        out = bytearray()
        out += encode_uvarint(len(schema_json))
        out += schema_json
        out += encode_uvarint(self.min_ts)
        out += encode_uvarint(self.max_ts)
        out += encode_uvarint(self.row_count)
        out.append(self.codec)
        out += encode_uvarint(len(self._entries))
        for entry in self._entries:
            key_bytes = self._row_codec.encode_key(entry.last_key)
            out += encode_uvarint(entry.offset)
            out += encode_uvarint(entry.compressed_len)
            out += encode_uvarint(entry.row_count)
            out += encode_uvarint(len(key_bytes))
            out += key_bytes
        out += encode_uvarint(len(bloom_bytes))
        out += bloom_bytes
        # Trailing fields: absent in pre-v2 footers (which end at the
        # Bloom bytes), so readers treat a missing version as v1.
        out += encode_uvarint(self.block_format)
        # v2.1: one CRC per block, over the compressed payload.  The
        # reader only looks for these when the trailer carries the
        # v2.1 magic, so legacy parsers stay compatible.
        if self.checksums:
            out += encode_uvarint(len(self._entries))
            for crc in self._block_crcs:
                out += crc.to_bytes(4, "little")
        return bytes(out)


class TabletWriter:
    """Writes one tablet file from an iterator of sorted rows."""

    def __init__(self, disk: SimulatedDisk, schema: Schema,
                 block_size: int, compression: str,
                 bloom_bits_per_row: int = 0,
                 block_format: int = BLOCK_FORMAT_V2,
                 metrics=None, checksums: bool = True, io_limiter=None):
        self.disk = disk
        self.schema = schema
        self.codec = codec_id(compression)
        self.compression = compression
        self.block_size = block_size
        self.bloom_bits_per_row = bloom_bits_per_row
        self.block_format = block_format
        self.checksums = checksums
        self.metrics = metrics
        self.io_limiter = io_limiter
        self._row_codec = RowCodec(schema)

    def write(self, filename: str, rows: Iterable[Tuple[Any, ...]],
              tablet_id: int, created_at: int, expected_rows: int = 0,
              encoded_pairs: Optional[Iterable[Tuple[Tuple[Any, ...], bytes]]]
              = None,
              sized_pairs: Optional[Iterable[Tuple[Tuple[Any, ...], int]]]
              = None) -> Optional[TabletMeta]:
        """Encode and write ``rows`` (already sorted by key, unique).

        Returns the tablet's metadata, or None if ``rows`` was empty
        (no file is written).  ``expected_rows`` sizes the Bloom
        filter up front (0 defers sizing to the actual count).  When
        the caller already knows each row's encoded size
        (memtables do, §3.2's flush path), ``sized_pairs`` supplies
        (row, size) pairs; ``encoded_pairs`` supplies (row, v1 bytes)
        pairs (the legacy merge path); in either case ``rows`` is
        ignored.
        """
        sink = TabletSink(self.disk, self.schema, self.block_size,
                          self.compression, self.bloom_bits_per_row,
                          self.block_format, metrics=self.metrics,
                          expected_rows=expected_rows,
                          checksums=self.checksums,
                          io_limiter=self.io_limiter)
        if sized_pairs is not None:
            for row, size in sized_pairs:
                sink.add_row(row, size=size)
        elif encoded_pairs is not None:
            if self.block_format == BLOCK_FORMAT_V1:
                for row, encoded in encoded_pairs:
                    sink.add_encoded(row, encoded)
            else:
                for row, encoded in encoded_pairs:
                    sink.add_row(row, size=len(encoded))
        else:
            for row in rows:
                sink.add_row(row)
        return sink.finish(filename, tablet_id, created_at)


class _ParsedFooter:
    """The reader state a parsed footer yields, cacheable by uid.

    Reopening a reader for a tablet whose footer is resident (same
    file identity, tracked by the read cache's uid) restores this
    without the three cold seeks or the parse.
    """

    __slots__ = ("schema", "row_codec", "min_ts", "max_ts", "row_count",
                 "codec", "entries", "last_keys", "bloom", "body_size",
                 "block_format", "block_crcs")

    def __init__(self, schema, row_codec, min_ts, max_ts, row_count,
                 codec, entries, last_keys, bloom, body_size,
                 block_format, block_crcs=None):
        self.schema = schema
        self.row_codec = row_codec
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.row_count = row_count
        self.codec = codec
        self.entries = entries
        self.last_keys = last_keys
        self.bloom = bloom
        self.body_size = body_size
        self.block_format = block_format
        self.block_crcs = block_crcs


class TabletReader:
    """Reads one tablet file; the parsed footer is cached in memory.

    §3.2: "On average, these indexes are only 0.5% of their tablets'
    sizes, so LittleTable caches them almost indefinitely in main
    memory."  The table keeps one reader per live tablet.

    ``cache`` (a :class:`~repro.core.readcache.ReadCache`) holds
    decoded blocks and parsed footers across readers, keyed by
    ``cache_uid`` - the tablet's process-unique identity, allocated
    when the table registers the tablet and invalidated when its file
    is deleted or replaced.  Without a cache every read decodes from
    the (simulated) disk, exactly the pre-cache behaviour.  Lists
    returned from cached blocks are shared: callers must not mutate
    them.
    """

    def __init__(self, disk: SimulatedDisk, filename: str, metrics=None,
                 cache=None, cache_uid: Optional[int] = None):
        self.disk = disk
        self.filename = filename
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_blocks_read = self.metrics.counter("tablet.blocks_read")
        self._m_block_bytes = self.metrics.counter("tablet.block_bytes_read")
        self._m_footer_loads = self.metrics.counter("tablet.footer_loads")
        self._m_checksum_failures = self.metrics.counter(
            "storage.checksum_failures")
        self._m_bloom_probes = self.metrics.counter("bloom.probes")
        self._m_bloom_negative = self.metrics.counter("bloom.negatives")
        self._m_bloom_positive = self.metrics.counter("bloom.positives")
        # decode_rows takes a real registry or None (never the null).
        self._decode_metrics = metrics if metrics is not None else None
        self._cache = cache if cache is not None else NULL_READ_CACHE
        self._cache_uid = (cache_uid if cache_uid is not None
                           else self._cache.allocate_uid())
        self._loaded = False
        self.schema: Optional[Schema] = None
        self.min_ts = 0
        self.max_ts = 0
        self.row_count = 0
        self._codec = 0
        self._entries: List[_BlockEntry] = []
        self._last_keys: List[Tuple[Any, ...]] = []
        self._row_codec: Optional[RowCodec] = None
        self._bloom: Optional[KeyPrefixBloom] = None
        self._body_size = 0
        self.block_format = BLOCK_FORMAT_V1
        self._block_crcs: Optional[List[int]] = None
        self._schema_codec: Optional[SchemaCodec] = None

    @property
    def has_checksums(self) -> bool:
        """True when this tablet carries v2.1 content CRCs."""
        self.ensure_loaded()
        return self._block_crcs is not None

    # ----------------------------------------------------------- footer

    def ensure_loaded(self) -> None:
        """Load and parse the footer on first use (3 cold seeks).

        A footer already resident in the read cache (keyed by the
        tablet's uid) is restored without touching the disk.
        """
        if self._loaded:
            return
        cached = self._cache.get_footer(self._cache_uid)
        if cached is not None:
            self._install_footer(cached)
            self._loaded = True
            return
        disk = self.disk
        disk.open(self.filename)  # inode
        size = disk.size(self.filename)
        if size < TRAILER_BYTES:
            raise CorruptTabletError(f"{self.filename}: too small")
        # v2.1 files end in a 24-byte trailer tagged with the magic; a
        # legacy trailer's last 4 bytes are the high bytes of the
        # footer offset (always zero), so the magic cannot collide.
        tail_len = min(size, CHECKSUM_TRAILER_BYTES)
        tail = disk.read(self.filename, size - tail_len, tail_len)
        footer_crc: Optional[int] = None
        if (tail_len == CHECKSUM_TRAILER_BYTES
                and tail[20:24] == CHECKSUM_MAGIC):
            footer_size = int.from_bytes(tail[0:8], "little")
            footer_offset = int.from_bytes(tail[8:16], "little")
            footer_crc = int.from_bytes(tail[16:20], "little")
            trailer_bytes = CHECKSUM_TRAILER_BYTES
        else:
            trailer = tail[-TRAILER_BYTES:]
            footer_size = int.from_bytes(trailer[:8], "little")
            footer_offset = int.from_bytes(trailer[8:16], "little")
            trailer_bytes = TRAILER_BYTES
        compressed_len = size - trailer_bytes - footer_offset
        if compressed_len < 0 or footer_offset > size:
            raise CorruptTabletError(f"{self.filename}: bad trailer")
        compressed = disk.read(self.filename, footer_offset, compressed_len)
        if footer_crc is not None and crc32c(compressed) != footer_crc:
            self._m_checksum_failures.inc()
            raise ChecksumError(
                f"{self.filename}: footer checksum mismatch")
        self._body_size = footer_offset
        self._parse_footer(compressed, footer_size,
                           has_checksums=footer_crc is not None)
        self._loaded = True
        self._m_footer_loads.inc()
        self._cache.put_footer(self._cache_uid, _ParsedFooter(
            self.schema, self._row_codec, self.min_ts, self.max_ts,
            self.row_count, self._codec, self._entries, self._last_keys,
            self._bloom, self._body_size, self.block_format,
            self._block_crcs))

    def _install_footer(self, footer: _ParsedFooter) -> None:
        self.schema = footer.schema
        self._row_codec = footer.row_codec
        self.min_ts = footer.min_ts
        self.max_ts = footer.max_ts
        self.row_count = footer.row_count
        self._codec = footer.codec
        self._entries = footer.entries
        self._last_keys = footer.last_keys
        self._bloom = footer.bloom
        self._body_size = footer.body_size
        self.block_format = footer.block_format
        self._block_crcs = footer.block_crcs
        self._schema_codec = SchemaCodec(self.schema, self._decode_metrics)

    def _parse_footer(self, compressed: bytes, footer_size: int,
                      has_checksums: bool = False) -> None:
        # The codec byte lives inside the (possibly compressed) footer,
        # so detect the footer's own encoding by attempting zlib first
        # and falling back to raw; the trailer's decompressed-size word
        # disambiguates.
        try:
            footer = decompress(1, compressed)
        except CorruptTabletError:
            footer = compressed
        if len(footer) != footer_size:
            if len(compressed) == footer_size:
                footer = compressed
            else:
                raise CorruptTabletError(
                    f"{self.filename}: footer size mismatch"
                )
        self._parse_footer_body(footer, has_checksums)

    def _parse_footer_body(self, footer: bytes,
                           has_checksums: bool = False) -> None:
        offset = 0
        schema_len, offset = decode_uvarint(footer, offset)
        try:
            schema_dict = json.loads(footer[offset:offset + schema_len])
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptTabletError(f"{self.filename}: bad schema: {exc}") from exc
        offset += schema_len
        self.schema = Schema.from_dict(schema_dict)
        self._row_codec = RowCodec(self.schema)
        self.min_ts, offset = decode_uvarint(footer, offset)
        self.max_ts, offset = decode_uvarint(footer, offset)
        self.row_count, offset = decode_uvarint(footer, offset)
        if offset >= len(footer):
            raise CorruptTabletError(f"{self.filename}: truncated footer")
        self._codec = footer[offset]
        offset += 1
        block_count, offset = decode_uvarint(footer, offset)
        entries: List[_BlockEntry] = []
        for _ in range(block_count):
            block_offset, offset = decode_uvarint(footer, offset)
            compressed_len, offset = decode_uvarint(footer, offset)
            row_count, offset = decode_uvarint(footer, offset)
            key_len, offset = decode_uvarint(footer, offset)
            key_bytes = footer[offset:offset + key_len]
            if len(key_bytes) != key_len:
                raise CorruptTabletError(f"{self.filename}: truncated key")
            offset += key_len
            last_key, _ = self._row_codec.decode_key(key_bytes)
            entries.append(_BlockEntry(block_offset, compressed_len,
                                       row_count, last_key))
        bloom_len, offset = decode_uvarint(footer, offset)
        bloom_bytes = footer[offset:offset + bloom_len]
        if len(bloom_bytes) != bloom_len:
            raise CorruptTabletError(f"{self.filename}: truncated bloom")
        offset += bloom_len
        self._bloom = (
            KeyPrefixBloom.deserialize(bloom_bytes) if bloom_len else None
        )
        # Footers written before block format v2 end here; the version
        # field's absence means the blocks are row-major v1.
        if offset < len(footer):
            block_format, offset = decode_uvarint(footer, offset)
            if block_format not in (BLOCK_FORMAT_V1, BLOCK_FORMAT_V2):
                raise CorruptTabletError(
                    f"{self.filename}: unknown block format {block_format}")
            self.block_format = block_format
        else:
            self.block_format = BLOCK_FORMAT_V1
        # v2.1 (signalled by the trailer magic): per-block CRCs.  The
        # footer CRC already vouched for these bytes, so failures here
        # mean a buggy writer, not bit rot - still refuse to serve.
        self._block_crcs = None
        if has_checksums:
            if offset >= len(footer):
                raise CorruptTabletError(
                    f"{self.filename}: missing block checksums")
            crc_count, offset = decode_uvarint(footer, offset)
            if crc_count != len(entries):
                raise CorruptTabletError(
                    f"{self.filename}: block checksum count mismatch")
            if offset + 4 * crc_count > len(footer):
                raise CorruptTabletError(
                    f"{self.filename}: truncated block checksums")
            self._block_crcs = [
                int.from_bytes(footer[offset + 4 * i:offset + 4 * i + 4],
                               "little")
                for i in range(crc_count)
            ]
            offset += 4 * crc_count
        self._entries = entries
        self._last_keys = [entry.last_key for entry in entries]
        self._schema_codec = SchemaCodec(self.schema, self._decode_metrics)

    # ------------------------------------------------------------ blocks

    @property
    def block_count(self) -> int:
        self.ensure_loaded()
        return len(self._entries)

    def block_entries(self) -> List[_BlockEntry]:
        """The footer's block index (offset, length, count, last key)."""
        self.ensure_loaded()
        return self._entries

    @property
    def codec_byte(self) -> int:
        """The compression codec id this tablet's blocks use."""
        self.ensure_loaded()
        return self._codec

    @property
    def schema_codec(self) -> SchemaCodec:
        self.ensure_loaded()
        return self._schema_codec

    def read_block_payload(self, index: int) -> bytes:
        """The compressed bytes of block ``index`` (one seek).

        On v2.1 tablets the payload's CRC is verified here - every
        disk read of a block passes through this method, so a flipped
        bit anywhere in the body surfaces as :class:`ChecksumError`
        before any row is decoded.
        """
        self.ensure_loaded()
        entry = self._entries[index]
        payload = self.disk.read(self.filename, entry.offset,
                                 entry.compressed_len)
        self._m_blocks_read.inc()
        self._m_block_bytes.inc(entry.compressed_len)
        crcs = self._block_crcs
        if crcs is not None and crc32c(payload) != crcs[index]:
            self._m_checksum_failures.inc()
            raise ChecksumError(
                f"{self.filename}: block {index} checksum mismatch")
        return payload

    def decode_payload(self, index: int, payload: bytes
                       ) -> Tuple[List[Tuple[Any, ...]],
                                  List[Tuple[Any, ...]]]:
        """Decode one block's compressed payload into (rows, keys)."""
        entry = self._entries[index]
        raw = decompress(self._codec, payload)
        if self.block_format == BLOCK_FORMAT_V2:
            rows, keys = self._schema_codec.decode_block(raw)
            if len(rows) != entry.row_count:
                raise CorruptTabletError(
                    f"{self.filename}: block {index} row count mismatch")
            self._count_decoded(len(rows), len(raw))
        else:
            rows = decode_rows(raw, self._row_codec, entry.row_count,
                               metrics=self._decode_metrics)
            key_of = self.schema.key_of
            keys = [key_of(row) for row in rows]
        return rows, keys

    def _count_decoded(self, row_count: int, raw_len: int) -> None:
        metrics = self._decode_metrics
        if metrics is not None:
            metrics.counter("block.decoded").inc()
            metrics.counter("block.rows_decoded").inc(row_count)
            metrics.counter("block.decoded_bytes").inc(raw_len)

    def read_block(self, index: int) -> List[Tuple[Any, ...]]:
        """Read and decode block ``index`` (one seek if uncached).

        Served from the read cache when the decoded block is resident;
        the returned list is shared with the cache - do not mutate.
        """
        self.ensure_loaded()
        cached = self._cache.get_block(self._cache_uid, index)
        if cached is not None:
            return cached.rows
        rows, raw_len, keys = self._read_block_uncached(index)
        self._cache.put_block(self._cache_uid, index, rows, raw_len,
                              keys=keys)
        return rows

    def _read_block_uncached(self, index: int
                             ) -> Tuple[List[Tuple[Any, ...]], int,
                                        Optional[List[Tuple[Any, ...]]]]:
        """Disk read + decompress + decode; (rows, raw bytes, keys).

        v2 blocks decode rows and keys in one batch pass; for v1
        blocks keys are None and extracted lazily by scans.
        """
        entry = self._entries[index]
        payload = self.read_block_payload(index)
        raw = decompress(self._codec, payload)
        if self.block_format == BLOCK_FORMAT_V2:
            rows, keys = self._schema_codec.decode_block(raw)
            if len(rows) != entry.row_count:
                raise CorruptTabletError(
                    f"{self.filename}: block {index} row count mismatch")
            self._count_decoded(len(rows), len(raw))
            return rows, len(raw), keys
        rows = decode_rows(raw, self._row_codec, entry.row_count,
                           metrics=self._decode_metrics)
        return rows, len(raw), None

    def _scan_block(self, index: int) -> Tuple[List[Tuple[Any, ...]],
                                               List[Tuple[Any, ...]]]:
        """Block rows plus their keys, both cache-resident when warm.

        Keys come straight out of the v2 batch decode; for v1 blocks
        they are extracted at most once per cached block (stored on
        the cache entry), so warm scans skip both the decode and the
        per-row key extraction.
        """
        cached = self._cache.get_block(self._cache_uid, index)
        if cached is None:
            rows, raw_len, keys = self._read_block_uncached(index)
            cached = self._cache.put_block(self._cache_uid, index, rows,
                                           raw_len, keys=keys)
            if cached is None:  # caching disabled
                if keys is None:
                    key_of = self.schema.key_of
                    keys = [key_of(row) for row in rows]
                return rows, keys
        if cached.keys is None:
            key_of = self.schema.key_of
            cached.keys = [key_of(row) for row in cached.rows]
        return cached.rows, cached.keys

    @property
    def last_keys(self) -> List[Tuple[Any, ...]]:
        """Each block's last key (the block index's search structure).

        The vectorized scan uses these to prove a block lies entirely
        inside the key bounds (so it can skip materializing keys):
        every key of block ``i`` is > ``last_keys[i-1]`` and <=
        ``last_keys[i]``, and the range predicates are monotone.
        """
        self.ensure_loaded()
        return self._last_keys

    def scan_block_columns(self, index: int, need_keys: bool = True
                           ) -> Tuple[List[List[Any]],
                                      Optional[List[Tuple[Any, ...]]], int]:
        """Block ``index`` as per-column value lists (vectorized path).

        Returns ``(columns, keys, row_count)``; ``keys`` is None when
        ``need_keys`` is false (interior blocks proven fully in range
        never pay for key materialization).  A warm cache entry is
        transposed once and the column view is kept on the entry;
        a cold read decodes columns straight from the v2 block body
        and deliberately does not populate the row cache - one-off
        rollup scans should not evict hot row blocks.
        """
        self.ensure_loaded()
        entry = self._entries[index]
        cached = self._cache.get_block(self._cache_uid, index)
        if cached is not None:
            columns = cached.columns
            if columns is None:
                columns = cached.columns = list(zip(*cached.rows))
            if not need_keys:
                return columns, None, len(cached.rows)
            if cached.keys is None:
                key_of = self.schema.key_of
                cached.keys = [key_of(row) for row in cached.rows]
            return columns, cached.keys, len(cached.rows)
        payload = self.read_block_payload(index)
        raw = decompress(self._codec, payload)
        columns = self._schema_codec.decode_block_columns(raw)
        count = len(columns[0]) if columns else 0
        if count != entry.row_count:
            raise CorruptTabletError(
                f"{self.filename}: block {index} row count mismatch")
        self._count_decoded(count, len(raw))
        keys = None
        if need_keys:
            key_indexes = self.schema.key_indexes
            keys = list(zip(*(columns[i] for i in key_indexes)))
        return columns, keys, count

    def probe_key(self, key: Tuple[Any, ...]) -> bool:
        """Does this tablet hold exactly ``key``?  (Duplicate checks.)

        Warm blocks answer from the cache.  Cold v2 blocks go through
        ``SchemaCodec.contains_key``: one restart-table parse per key
        column, a binary search over restart rows, and the key columns
        of one K-row chunk; they do not pollute the cache.
        """
        self.ensure_loaded()
        index = bisect.bisect_left(self._last_keys, key)
        if index >= len(self._entries):
            return False
        cached = self._cache.get_block(self._cache_uid, index)
        if cached is not None:
            if cached.keys is None:
                key_of = self.schema.key_of
                cached.keys = [key_of(row) for row in cached.rows]
            keys = cached.keys
        elif self.block_format == BLOCK_FORMAT_V2:
            payload = self.read_block_payload(index)
            return self._schema_codec.contains_key(
                decompress(self._codec, payload), key)
        else:
            _rows, keys = self._scan_block(index)
        position = bisect.bisect_left(keys, key)
        return position < len(keys) and keys[position] == key

    def scan_pairs(self) -> Iterator[Tuple[Tuple[Any, ...], bytes]]:
        """Full ascending scan yielding (row, v1 encoding) pairs.

        The legacy (v1-format) merge path streams these straight into
        the output tablet; v2 tablets re-encode through the compiled
        row encoder, since a v1-format consumer is asking.
        """
        self.ensure_loaded()
        if self.block_format == BLOCK_FORMAT_V2:
            encode = self._schema_codec.encode_row_v1
            for index in range(len(self._entries)):
                rows, _keys = self.decode_payload(
                    index, self.read_block_payload(index))
                for row in rows:
                    yield row, encode(row)
            return
        for index in range(len(self._entries)):
            entry = self._entries[index]
            payload = self.read_block_payload(index)
            yield from decode_block_pairs(payload, self._codec,
                                          self._row_codec, entry.row_count,
                                          metrics=self._decode_metrics)

    def first_block_for(self, key_range: KeyRange) -> int:
        """Index of the first block that may hold in-range keys."""
        self.ensure_loaded()
        seek = key_range.seek_min()
        if seek is None:
            return 0
        # First block whose last key is >= the seek prefix.  Tuple
        # comparison does the right thing for prefixes: (a,) <= (a, b).
        return bisect.bisect_left(self._last_keys, seek)

    def last_block_for(self, key_range: KeyRange) -> int:
        """Index of the last block that may hold in-range keys."""
        self.ensure_loaded()
        if key_range.max_prefix is None:
            return len(self._entries) - 1
        # First block whose last key is beyond the max bound may still
        # contain in-range keys (its earlier rows); blocks after it
        # cannot.
        low, high = 0, len(self._entries)
        while low < high:
            mid = (low + high) // 2
            if key_range.after_range(self._last_keys[mid]):
                high = mid
            else:
                low = mid + 1
        return min(low, len(self._entries) - 1)

    def may_contain_prefix(self, encoded_columns: List[bytes]) -> Optional[bool]:
        """Bloom-filter probe; None when no filter is stored.

        A negative probe is the filter's payoff: the caller skips this
        tablet entirely, so ``bloom.negatives / bloom.probes`` is the
        §3.4.5 skip rate.
        """
        self.ensure_loaded()
        if self._bloom is None:
            return None
        self._m_bloom_probes.inc()
        verdict = self._bloom.may_contain_prefix(encoded_columns)
        if verdict:
            self._m_bloom_positive.inc()
        else:
            self._m_bloom_negative.inc()
        return verdict

    # ----------------------------------------------------------- cursors

    def scan(self, key_range: KeyRange, descending: bool = False
             ) -> Iterator[Tuple[Any, ...]]:
        """Yield rows within the key range, in key order.

        Rows are *not* filtered by timestamp here; the merge cursor
        does that (and counts them as scanned, which is what Figure 9
        measures).
        """
        self.ensure_loaded()
        if not self._entries:
            return
        if descending:
            yield from self._scan_desc(key_range)
        else:
            yield from self._scan_asc(key_range)

    def _scan_asc(self, key_range: KeyRange) -> Iterator[Tuple[Any, ...]]:
        start_block = self.first_block_for(key_range)
        for index in range(start_block, len(self._entries)):
            rows, keys = self._scan_block(index)
            position = 0
            if index == start_block:
                seek = key_range.seek_min()
                if seek is not None:
                    position = bisect.bisect_left(keys, seek)
            for row_index in range(position, len(rows)):
                key = keys[row_index]
                # An exclusive prefix bound can exclude rows beyond the
                # seek position (and past the first block); the check is
                # monotone, so it stops firing once the scan passes it.
                if key_range.before_range(key):
                    continue
                if key_range.after_range(key):
                    return
                yield rows[row_index]

    def _scan_desc(self, key_range: KeyRange) -> Iterator[Tuple[Any, ...]]:
        start_block = self.last_block_for(key_range)
        for index in range(start_block, -1, -1):
            rows, keys = self._scan_block(index)
            position = len(rows) - 1
            for row_index in range(position, -1, -1):
                key = keys[row_index]
                if key_range.after_range(key):
                    continue
                if key_range.before_range(key):
                    return
                yield rows[row_index]
