"""On-disk framing for the packed segment store (``*.seg`` files).

A segment is one append-only record log per store table.  Its layout
(see ``docs/store_format.md`` for the full spec and diagram)::

    MAGIC (8 bytes)
    META frame      -- versioned header: structured JSON metadata
    frame*          -- RECORD / TOMBSTONE / TOUCH / FOOTER / TRAILER

Every frame is length-prefixed and checksummed::

    [kind: u8] [body_len: u32 LE] [body] [crc: u64 LE]

so a reader can walk the file frame by frame and stop at the first
truncated or corrupt one — everything before a crash is still readable,
everything after loads as a miss, never as a wrong answer.

Frame kinds:

* ``RECORD`` — one table entry: key, append timestamp, and the payload
  block-compressed with zlib.  The payload bytes are exactly the content
  of the legacy one-file-per-record JSON layout, which is what makes
  ``GraphStore.import_json``/``export_json`` byte-exact.
* ``BLOCK`` — many records sharing one zlib block: a struct-packed
  directory (count, key/payload lengths, timestamps) followed by the
  concatenated keys and payloads, compressed as one unit.  Bulk writers
  (JSON import, compaction) emit these so a warm load pays one
  decompression per ~64 records instead of one per record; the footer
  addresses a blocked record as ``(block offset, slot)``.
* ``TOMBSTONE`` — the key's entry is deleted (LRU eviction appends one
  of these instead of rewriting files; compaction reclaims the space).
* ``TOUCH`` — recency bump for a key, batched by the store.
* ``FOOTER`` — the segment's index: a zlib-compressed, sorted
  ``key -> (frame offset, frame length, slot, timestamp)`` table, so a
  lookup is an mmap + bisect + single-block decode instead of a
  directory walk (``slot`` >= 0 addresses a record inside a BLOCK).
* ``TRAILER`` — fixed-size locator at EOF pointing at the newest FOOTER
  and recording how much of the file that footer covers; frames after
  the covered length are the *tail* and are replayed sequentially.

The 64-bit record checksum follows SNIPPETS' zs format in width but is
computed as ``(crc32(data) << 32) | adler32(data)`` — two independent
C-speed stdlib checksums rather than a pure-Python CRC-64, which would
dominate the cost of every block read.  The goal is corruption
*detection* for cache integrity, not cryptographic authentication.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator, NamedTuple

from repro.errors import CacheError

__all__ = [
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
    "KIND_META",
    "KIND_RECORD",
    "KIND_TOMBSTONE",
    "KIND_TOUCH",
    "KIND_FOOTER",
    "KIND_TRAILER",
    "KIND_BLOCK",
    "FRAME_OVERHEAD",
    "TRAILER_FRAME_LEN",
    "SegmentFormatError",
    "IndexEntry",
    "RecordBody",
    "BlockBody",
    "FooterBody",
    "TrailerBody",
    "crc64",
    "encode_uvarint",
    "decode_uvarint",
    "encode_frame",
    "read_frame",
    "iter_frames",
    "encode_header",
    "read_header",
    "encode_record",
    "decode_record_body",
    "decompress_record",
    "encode_block",
    "decode_block_body",
    "encode_marker",
    "decode_marker_body",
    "encode_footer",
    "decode_footer_body",
    "encode_trailer",
    "decode_trailer_body",
]

#: First 8 bytes of every segment file.  The trailing newline makes an
#: accidental ``cat`` obvious and guarantees a text editor mangles it.
SEGMENT_MAGIC = b"RPRSEG1\n"

#: Bump on any incompatible change to the segment layout.  Readers treat
#: a foreign version as an empty (unreadable) segment — every lookup is a
#: miss — and writers refuse to append to it.
SEGMENT_VERSION = 1

KIND_META = 1
KIND_RECORD = 2
KIND_TOMBSTONE = 3
KIND_TOUCH = 4
KIND_FOOTER = 5
KIND_TRAILER = 6
KIND_BLOCK = 7

_KNOWN_KINDS = frozenset(
    (
        KIND_META,
        KIND_RECORD,
        KIND_TOMBSTONE,
        KIND_TOUCH,
        KIND_FOOTER,
        KIND_TRAILER,
        KIND_BLOCK,
    )
)

_LEN_STRUCT = struct.Struct("<I")
_CRC_STRUCT = struct.Struct("<Q")
_TS_STRUCT = struct.Struct("<d")
_TRAILER_STRUCT = struct.Struct("<QQQ")
_BLOCK_COUNT_STRUCT = struct.Struct("<I")

#: bytes of framing around every body: kind (1) + length (4) + crc (8)
FRAME_OVERHEAD = 1 + _LEN_STRUCT.size + _CRC_STRUCT.size

#: a TRAILER frame is fixed-size so readers can find it at EOF
TRAILER_FRAME_LEN = FRAME_OVERHEAD + _TRAILER_STRUCT.size


class SegmentFormatError(CacheError):
    """A frame or header that cannot be decoded (truncation, corruption,
    foreign version).  Stores treat it as a miss, never as data."""


class IndexEntry(NamedTuple):
    """One live record in a segment's index."""

    key: str
    #: absolute file offset of the RECORD or BLOCK frame
    offset: int
    #: total frame length in bytes (framing included)
    frame_len: int
    #: recency timestamp (seconds; last append or touch)
    ts: float
    #: position inside the BLOCK frame at ``offset``; -1 means ``offset``
    #: points at a standalone RECORD frame
    slot: int = -1


class RecordBody(NamedTuple):
    """Decoded RECORD frame body (payload still compressed)."""

    key: str
    ts: float
    raw_len: int
    compressed: bytes


class BlockBody(NamedTuple):
    """Decoded BLOCK frame body (payloads already decompressed)."""

    keys: list[str]
    tss: tuple[float, ...]
    payloads: list[bytes]


class FooterBody(NamedTuple):
    """Decoded FOOTER frame body."""

    entries: list[IndexEntry]
    n_tombstone_frames: int


class TrailerBody(NamedTuple):
    """Decoded TRAILER frame body."""

    footer_offset: int
    footer_frame_len: int
    #: prefix of the file the footer's index covers; frames at or past
    #: this offset are the tail and are replayed sequentially
    covered_len: int


def crc64(data: bytes) -> int:
    """64-bit composite checksum: ``(crc32 << 32) | adler32``.

    Both halves are C implementations from the stdlib, so checksumming
    never dominates a block read the way a table-driven pure-Python
    CRC-64 would.  Detection strength is that of two independent 32-bit
    checksums — ample for cache corruption detection.
    """
    return (zlib.crc32(data) << 32) | zlib.adler32(data)


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def encode_uvarint(value: int) -> bytes:
    """LEB128 encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns ``(value, next_offset)``.

    Raises:
        SegmentFormatError: on truncation or a varint longer than 64 bits.
    """
    value = 0
    shift = 0
    while True:
        if offset >= len(data) or shift > 63:
            raise SegmentFormatError("truncated or overlong varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(kind: int, body: bytes) -> bytes:
    """Wrap a body in the ``[kind][len][body][crc]`` framing."""
    head = bytes((kind,)) + _LEN_STRUCT.pack(len(body))
    return head + body + _CRC_STRUCT.pack(crc64(bytes((kind,)) + body))


def read_frame(data: bytes, offset: int, end: int | None = None) -> tuple[int, bytes, int]:
    """Parse one frame at ``offset``; returns ``(kind, body, next_offset)``.

    ``data`` may be any buffer (bytes or mmap).  Validates bounds, the
    frame kind, and the checksum.

    Raises:
        SegmentFormatError: for anything that is not a complete, intact
            frame of a known kind.
    """
    limit = len(data) if end is None else end
    head_end = offset + 1 + _LEN_STRUCT.size
    if offset < 0 or head_end > limit:
        raise SegmentFormatError("truncated frame header")
    kind = data[offset]
    if kind not in _KNOWN_KINDS:
        raise SegmentFormatError(f"unknown frame kind {kind!r}")
    (body_len,) = _LEN_STRUCT.unpack(bytes(data[offset + 1 : head_end]))
    body_end = head_end + body_len
    frame_end = body_end + _CRC_STRUCT.size
    if frame_end > limit:
        raise SegmentFormatError("truncated frame body")
    body = bytes(data[head_end:body_end])
    (stored,) = _CRC_STRUCT.unpack(bytes(data[body_end:frame_end]))
    if stored != crc64(bytes((kind,)) + body):
        raise SegmentFormatError("frame checksum mismatch")
    return kind, body, frame_end


def iter_frames(
    data: bytes, offset: int, end: int | None = None
) -> Iterator[tuple[int, int, bytes, int]]:
    """Yield ``(offset, kind, body, next_offset)`` for every intact frame
    from ``offset``, stopping silently at the first bad or truncated one
    (crash-recovery semantics: the committed prefix is what exists)."""
    limit = len(data) if end is None else end
    while offset < limit:
        try:
            kind, body, next_offset = read_frame(data, offset, limit)
        except SegmentFormatError:
            return
        yield offset, kind, body, next_offset
        offset = next_offset


# ----------------------------------------------------------------------
# header
# ----------------------------------------------------------------------
def encode_header(table: str, level: int, payload_format: int) -> bytes:
    """The start of a fresh segment: magic + META frame.

    The META body is structured JSON so future versions can add fields
    without reframing; ``version`` is the layout version this module
    writes and the one :func:`read_header` requires.
    """
    meta = {
        "format": "repro-segment",
        "version": SEGMENT_VERSION,
        "table": table,
        "zlib_level": level,
        "payload_format": payload_format,
    }
    body = json.dumps(meta, sort_keys=True).encode("utf-8")
    return SEGMENT_MAGIC + encode_frame(KIND_META, body)


def read_header(data: bytes) -> tuple[dict[str, object], int]:
    """Validate magic + META frame; returns ``(metadata, body_end_offset)``.

    Raises:
        SegmentFormatError: for a foreign file, a corrupt header, or an
            unsupported segment version.
    """
    if bytes(data[: len(SEGMENT_MAGIC)]) != SEGMENT_MAGIC:
        raise SegmentFormatError("not a segment file (bad magic)")
    kind, body, next_offset = read_frame(data, len(SEGMENT_MAGIC))
    if kind != KIND_META:
        raise SegmentFormatError("segment does not start with a META frame")
    try:
        meta = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SegmentFormatError("malformed segment metadata") from exc
    if not isinstance(meta, dict) or meta.get("version") != SEGMENT_VERSION:
        raise SegmentFormatError(
            f"unsupported segment version {meta.get('version') if isinstance(meta, dict) else meta!r} "
            f"(this build reads version {SEGMENT_VERSION})"
        )
    return meta, next_offset


# ----------------------------------------------------------------------
# records, tombstones, touches
# ----------------------------------------------------------------------
def _encode_key_ts(key: str, ts: float) -> bytes:
    encoded = key.encode("utf-8")
    return encode_uvarint(len(encoded)) + encoded + _TS_STRUCT.pack(ts)


def _decode_key_ts(body: bytes, offset: int = 0) -> tuple[str, float, int]:
    key_len, offset = decode_uvarint(body, offset)
    key_end = offset + key_len
    ts_end = key_end + _TS_STRUCT.size
    if ts_end > len(body):
        raise SegmentFormatError("truncated key/timestamp")
    try:
        key = body[offset:key_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SegmentFormatError("malformed record key") from exc
    (ts,) = _TS_STRUCT.unpack(body[key_end:ts_end])
    return key, ts, ts_end


def encode_record(key: str, payload: bytes, ts: float, level: int) -> bytes:
    """A complete RECORD frame: key + timestamp + block-compressed payload."""
    compressed = zlib.compress(payload, level)
    body = (
        _encode_key_ts(key, ts)
        + encode_uvarint(len(payload))
        + compressed
    )
    return encode_frame(KIND_RECORD, body)


def decode_record_body(body: bytes) -> RecordBody:
    """Split a RECORD body into key, timestamp, raw length, and the still
    compressed payload block."""
    key, ts, offset = _decode_key_ts(body)
    raw_len, offset = decode_uvarint(body, offset)
    return RecordBody(key=key, ts=ts, raw_len=raw_len, compressed=body[offset:])


def decompress_record(record: RecordBody) -> bytes:
    """Decompress a record's payload block, verifying the declared length.

    Raises:
        SegmentFormatError: when the block does not decompress to exactly
            the declared number of bytes.
    """
    try:
        payload = zlib.decompress(record.compressed)
    except zlib.error as exc:
        raise SegmentFormatError("record payload does not decompress") from exc
    if len(payload) != record.raw_len:
        raise SegmentFormatError(
            f"record payload length {len(payload)} != declared {record.raw_len}"
        )
    return payload


def encode_block(
    records: list[tuple[str, bytes, float]], level: int
) -> bytes:
    """A BLOCK frame holding many ``(key, payload, ts)`` records.

    The uncompressed layout is one struct-packed directory followed by
    the concatenated keys and payloads::

        [n: u32] [key_len, payload_len: u32 x 2n] [ts: f64 x n]
        [keys utf-8, concatenated] [payloads, concatenated]

    so a reader decodes the whole directory with two ``struct`` calls
    and slices records out without per-record varint walks.  The body is
    the directory + data compressed as one zlib unit, prefixed with the
    raw length for decompression validation (mirroring RECORD frames).
    """
    if not records:
        raise ValueError("a BLOCK frame needs at least one record")
    keys = [key.encode("utf-8") for key, _payload, _ts in records]
    lens: list[int] = []
    for encoded, (_key, payload, _ts) in zip(keys, records):
        lens.append(len(encoded))
        lens.append(len(payload))
    plain = b"".join(
        [
            _BLOCK_COUNT_STRUCT.pack(len(records)),
            struct.pack(f"<{2 * len(records)}I", *lens),
            struct.pack(f"<{len(records)}d", *[ts for _k, _p, ts in records]),
            *keys,
            *[payload for _key, payload, _ts in records],
        ]
    )
    body = encode_uvarint(len(plain)) + zlib.compress(plain, level)
    return encode_frame(KIND_BLOCK, body)


def decode_block_body(body: bytes) -> BlockBody:
    """Decode a BLOCK body back into its keys, timestamps, and payloads.

    Raises:
        SegmentFormatError: when the block does not decompress to the
            declared length or its directory is inconsistent.
    """
    raw_len, offset = decode_uvarint(body, 0)
    try:
        raw = zlib.decompress(body[offset:])
    except zlib.error as exc:
        raise SegmentFormatError("block does not decompress") from exc
    if len(raw) != raw_len:
        raise SegmentFormatError(
            f"block length {len(raw)} != declared {raw_len}"
        )
    if len(raw) < _BLOCK_COUNT_STRUCT.size:
        raise SegmentFormatError("truncated block directory")
    (n,) = _BLOCK_COUNT_STRUCT.unpack_from(raw, 0)
    data_start = _BLOCK_COUNT_STRUCT.size + 8 * n + 8 * n
    if n == 0 or data_start > len(raw):
        raise SegmentFormatError("truncated block directory")
    lens = struct.unpack_from(f"<{2 * n}I", raw, _BLOCK_COUNT_STRUCT.size)
    tss = struct.unpack_from(f"<{n}d", raw, _BLOCK_COUNT_STRUCT.size + 8 * n)
    if data_start + sum(lens) != len(raw):
        raise SegmentFormatError("block directory does not match its data")
    keys: list[str] = []
    payloads: list[bytes] = []
    key_pos = data_start
    payload_pos = data_start + sum(lens[0::2])
    try:
        for i in range(n):
            key_len = lens[2 * i]
            payload_len = lens[2 * i + 1]
            keys.append(raw[key_pos : key_pos + key_len].decode("utf-8"))
            key_pos += key_len
            payloads.append(raw[payload_pos : payload_pos + payload_len])
            payload_pos += payload_len
    except UnicodeDecodeError as exc:
        raise SegmentFormatError("malformed block key") from exc
    return BlockBody(keys=keys, tss=tss, payloads=payloads)


def encode_marker(kind: int, key: str, ts: float) -> bytes:
    """A TOMBSTONE or TOUCH frame for ``key``."""
    if kind not in (KIND_TOMBSTONE, KIND_TOUCH):
        raise ValueError(f"not a marker kind: {kind}")
    return encode_frame(kind, _encode_key_ts(key, ts))


def decode_marker_body(body: bytes) -> tuple[str, float]:
    """Decode a TOMBSTONE/TOUCH body into ``(key, ts)``."""
    key, ts, _ = _decode_key_ts(body)
    return key, ts


# ----------------------------------------------------------------------
# footer + trailer
# ----------------------------------------------------------------------
def encode_footer(
    entries: list[IndexEntry], n_tombstone_frames: int, level: int
) -> bytes:
    """A FOOTER frame: the zlib-compressed sorted index of live records.

    ``entries`` must be sorted by key (the reader bisects).  Like BLOCK
    frames, the uncompressed layout is struct-packed column arrays —
    counts, then key lengths, offsets, frame lengths, slots, timestamps,
    then the concatenated keys — so decoding the whole index is a
    handful of ``struct`` calls plus one key-slicing pass, not a
    per-entry varint walk (cold opens of large segments are on the
    warm-load critical path).
    """
    n = len(entries)
    keys = [entry.key.encode("utf-8") for entry in entries]
    plain = b"".join(
        [
            struct.pack("<II", n, n_tombstone_frames),
            struct.pack(f"<{n}I", *[len(key) for key in keys]),
            struct.pack(f"<{n}Q", *[entry.offset for entry in entries]),
            struct.pack(f"<{n}I", *[entry.frame_len for entry in entries]),
            struct.pack(f"<{n}i", *[entry.slot for entry in entries]),
            struct.pack(f"<{n}d", *[entry.ts for entry in entries]),
            *keys,
        ]
    )
    return encode_frame(KIND_FOOTER, zlib.compress(plain, level))


def decode_footer_body(body: bytes) -> FooterBody:
    """Decode a FOOTER body back into its sorted index entries.

    Raises:
        SegmentFormatError: on any decoding failure, including an index
            that is not sorted by key (a reader must be able to bisect
            it blindly).
    """
    try:
        raw = zlib.decompress(body)
    except zlib.error as exc:
        raise SegmentFormatError("footer does not decompress") from exc
    try:
        n, n_tombstones = struct.unpack_from("<II", raw, 0)
        base = 8
        key_lens = struct.unpack_from(f"<{n}I", raw, base)
        base += 4 * n
        offsets = struct.unpack_from(f"<{n}Q", raw, base)
        base += 8 * n
        frame_lens = struct.unpack_from(f"<{n}I", raw, base)
        base += 4 * n
        slots = struct.unpack_from(f"<{n}i", raw, base)
        base += 4 * n
        tss = struct.unpack_from(f"<{n}d", raw, base)
        base += 8 * n
    except struct.error as exc:
        raise SegmentFormatError("truncated footer directory") from exc
    if base + sum(key_lens) != len(raw):
        raise SegmentFormatError("footer directory does not match its data")
    entries: list[IndexEntry] = []
    previous = None
    pos = base
    for i in range(n):
        key_end = pos + key_lens[i]
        try:
            key = raw[pos:key_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SegmentFormatError("malformed footer key") from exc
        pos = key_end
        if previous is not None and key <= previous:
            raise SegmentFormatError("footer index is not sorted")
        previous = key
        entries.append(
            IndexEntry(
                key=key,
                offset=offsets[i],
                frame_len=frame_lens[i],
                ts=tss[i],
                slot=slots[i],
            )
        )
    return FooterBody(entries=entries, n_tombstone_frames=n_tombstones)


def encode_trailer(footer_offset: int, footer_frame_len: int, covered_len: int) -> bytes:
    """The fixed-size TRAILER frame written at EOF after every batch."""
    body = _TRAILER_STRUCT.pack(footer_offset, footer_frame_len, covered_len)
    frame = encode_frame(KIND_TRAILER, body)
    assert len(frame) == TRAILER_FRAME_LEN
    return frame


def decode_trailer_body(body: bytes) -> TrailerBody:
    """Decode a TRAILER body."""
    if len(body) != _TRAILER_STRUCT.size:
        raise SegmentFormatError("trailer body has the wrong size")
    footer_offset, footer_frame_len, covered_len = _TRAILER_STRUCT.unpack(body)
    return TrailerBody(
        footer_offset=footer_offset,
        footer_frame_len=footer_frame_len,
        covered_len=covered_len,
    )
