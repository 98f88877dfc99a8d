"""Packed segment files: the block-compressed backing of ``GraphStore``.

One :class:`Segment` is one append-only ``*.seg`` record log (framing in
:mod:`repro.cache.format`).  The store keeps one segment per table —
``graphs.seg``, ``widgets.seg``, ``proofs.seg``, ``diffmemos.seg``,
``compiled.seg`` — so a save appends one record instead of writing a
file, eviction appends a tombstone instead of unlinking, and
``stats``/``prune`` read one footer per table instead of statting every
entry in the directory.

Readers (:class:`SegmentReader`) are **lock-free**: they mmap the file,
locate the TRAILER at EOF, decode the FOOTER index it points at, and
replay the tail frames past the footer's covered length.  When the
trailer is missing or corrupt (a writer crashed mid-append) they fall
back to a sequential scan from the header that stops at the first bad
frame — every committed record stays readable, the torn tail is ignored.
A lookup is then a bisect over the sorted footer index plus a single
block decompression.

Two frame granularities coexist.  A plain ``save`` appends one RECORD
frame per key — cheap, one zlib unit per payload.  Bulk writers
(a JSON import of a whole store, compaction rewriting one) pack ~64
records into each BLOCK frame, so a bulk warm load pays one
decompression per block instead of one per record.  The index addresses
a blocked record as ``(block offset, slot)``; a point lookup
decompresses its whole block (cached, so clustered lookups pay once).

Writers are serialised by the store's :class:`~repro.cache.lock.
StoreLock` — the same lock instance the owning ``GraphStore`` uses, held
inside every mutating method here, so the lint's RL001 lock discipline
is checkable lexically and composed operations (a store save that
appends to two segments) nest reentrantly.  Because the file is
append-only and compaction replaces it atomically (write temp + rename),
a lock-free reader racing any writer sees either the old complete state
or the new one, never a torn middle.

Compaction: superseded records, tombstones, touches, and stale footers
accumulate as *dead bytes* (the segment's compaction debt, reported by
``stats``).  When the debt crosses a threshold after an append batch —
or unconditionally via :meth:`Segment.compact` during prune — the live
records are re-packed into BLOCK frames in a fresh file (checksums
verified on the way, corrupt records dropped) which atomically replaces
the old one.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from pathlib import Path as FilePath
from typing import Iterable, Iterator, NamedTuple
from uuid import uuid4

from repro.cache import format as segformat
from repro.cache.format import (
    KIND_BLOCK,
    KIND_FOOTER,
    KIND_RECORD,
    KIND_TOMBSTONE,
    KIND_TOUCH,
    KIND_TRAILER,
    TRAILER_FRAME_LEN,
    IndexEntry,
    SegmentFormatError,
)
from repro.cache.lock import StoreLock
from repro.cache.serialize import FORMAT_VERSION as _PAYLOAD_FORMAT

__all__ = ["Segment", "SegmentReader", "SegmentStats", "DEFAULT_LEVEL"]

#: default zlib level: 6 is zlib's own default — measurably smaller than
#: 1 on JSON payloads while decompression (the hot path) costs the same
DEFAULT_LEVEL = 6

#: refresh the footer once the un-indexed tail outgrows this many bytes
#: (until then, batches append records plus a 37-byte trailer only)
DEFAULT_FOOTER_EVERY = 1 << 18

#: compaction triggers when dead bytes exceed both this floor and the
#: ratio below — small segments are left alone, churn stays bounded
DEFAULT_COMPACT_MIN_BYTES = 1 << 16
DEFAULT_COMPACT_RATIO = 0.5

#: records per BLOCK frame written by bulk paths (JSON import, compaction)
BLOCK_RECORDS = 64

#: an append batch at least this large is packed into BLOCK frames;
#: smaller batches (the per-save common case) stay standalone RECORDs
BLOCK_MIN_BATCH = 16


class SegmentStats(NamedTuple):
    """Occupancy snapshot of one segment."""

    #: size of the segment file (0 when it does not exist yet)
    file_bytes: int
    #: live (readable, non-tombstoned) records
    n_live: int
    #: tombstone frames not yet reclaimed by compaction
    n_tombstoned: int
    #: bytes of live record frames
    live_bytes: int
    #: compaction debt: bytes neither live nor structural (header/footer)
    dead_bytes: int


class _ReaderSeed(NamedTuple):
    """The index state a writer hands its own next reader (see
    :meth:`Segment.reader`): adopting it skips the footer re-decode a
    cold open would pay."""

    size: int
    footer_offset: int | None
    footer_frame_len: int
    covered_len: int
    n_tombstone_frames: int
    index: dict[str, IndexEntry]
    #: bytes of live frames, each BLOCK counted once however many of its
    #: records are live
    live_frame_bytes: int
    #: live-entry count per BLOCK frame offset
    block_refs: dict[int, int]


class _WriterState:
    """A :class:`Segment`'s private, mutable view of its own last write.

    Readers are immutable snapshots, so a naive writer would rebuild (or
    copy) the whole index on every append — O(index) per save.  Instead
    the segment keeps this one mutable state across appends, updates it
    in place (O(appended) per batch), and seeds readers from it lazily,
    copying only when a read actually follows a write.  ``stamp`` pins
    the state to the exact file it describes; any cross-process mutation
    changes the stamp (appends grow the size, compaction replaces the
    inode) and invalidates it.
    """

    __slots__ = (
        "stamp",
        "size",
        "footer_offset",
        "footer_frame_len",
        "covered_len",
        "had_footer",
        "n_tombstone_frames",
        "index",
        "live_frame_bytes",
        "block_refs",
    )

    def __init__(
        self,
        *,
        stamp: tuple[int, int, int] | None,
        size: int,
        footer_offset: int | None,
        footer_frame_len: int,
        covered_len: int,
        had_footer: bool,
        n_tombstone_frames: int,
        index: dict[str, IndexEntry],
        live_frame_bytes: int,
        block_refs: dict[int, int],
    ) -> None:
        self.stamp = stamp
        self.size = size
        self.footer_offset = footer_offset
        self.footer_frame_len = footer_frame_len
        self.covered_len = covered_len
        self.had_footer = had_footer
        self.n_tombstone_frames = n_tombstone_frames
        self.index = index
        self.live_frame_bytes = live_frame_bytes
        self.block_refs = block_refs


class SegmentReader:
    """A lock-free snapshot view of one segment file.

    Constructing the reader never raises: a missing file, an empty file,
    a foreign/corrupt header, or a torn tail all degrade to "fewer (or
    zero) live records".  ``foreign`` is True when the file exists but is
    not a readable segment of this version — writers rotate such a file
    aside instead of appending to it.
    """

    def __init__(
        self, path: FilePath, _seed: _ReaderSeed | None = None
    ) -> None:
        self.path = path
        self.foreign = False
        #: True when the index was rebuilt by sequential scan because the
        #: trailer was missing/invalid (a writer must persist a fresh
        #: footer so frames it appends are not shadowed by a torn tail)
        self.used_scan = False
        self.size = 0
        self.header_len = 0
        self.covered_len = 0
        self.footer_offset: int | None = None
        self.footer_frame_len = 0
        self.n_tombstone_frames = 0
        self._data: bytes = b""
        self._mm: object | None = None
        self._base_keys: list[str] = []
        self._base_entries: list[IndexEntry] = []
        self._overlay: dict[str, IndexEntry | None] = {}
        #: live frame bytes / per-block live-entry counts (see
        #: :class:`_ReaderSeed`); computed lazily on first use — bulk
        #: loads never need them, and a seeding writer hands them over
        self._lazy_live_bytes: int | None = None
        self._lazy_block_refs: dict[int, int] | None = None
        #: one-block decode cache for clustered point lookups
        self._block_cache: tuple[int, segformat.BlockBody] | None = None
        self._load(_seed)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self, seed: _ReaderSeed | None = None) -> None:
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        try:
            self.size = os.fstat(handle.fileno()).st_size
            if self.size == 0:
                return
            import mmap

            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            self._data = self._mm  # type: ignore[assignment]
        except (OSError, ValueError):
            self.size = 0
            return
        finally:
            handle.close()
        try:
            _meta, self.header_len = segformat.read_header(self._data)
        except SegmentFormatError:
            self.foreign = True
            return
        if seed is not None and seed.size == self.size:
            # the writer that just produced this file handed us its index:
            # adopt it (ownership transfer, the writer copies before it
            # mutates) instead of re-decoding the footer; the owning
            # Segment's stat stamp guards against cross-process changes
            self.footer_offset = seed.footer_offset
            self.footer_frame_len = seed.footer_frame_len
            self.covered_len = seed.covered_len
            self.n_tombstone_frames = seed.n_tombstone_frames
            self._overlay = seed.index
            self._lazy_live_bytes = seed.live_frame_bytes
            self._lazy_block_refs = seed.block_refs
            return
        if not self._load_via_trailer():
            self.used_scan = True
            self._scan(self.header_len)

    @property
    def live_frame_bytes(self) -> int:
        """Bytes of frames still holding >= 1 live record."""
        if self._lazy_live_bytes is None:
            self._compute_live_accounting()
        assert self._lazy_live_bytes is not None
        return self._lazy_live_bytes

    @property
    def _block_refs(self) -> dict[int, int]:
        if self._lazy_block_refs is None:
            self._compute_live_accounting()
        assert self._lazy_block_refs is not None
        return self._lazy_block_refs

    def _compute_live_accounting(self) -> None:
        """One pass over the live index establishing ``live_frame_bytes``
        and the per-block refcounts (appends then maintain both in O(1))."""
        live = 0
        refs: dict[int, int] = {}
        for entry in self.index_unsorted().values():
            if entry.slot >= 0:
                if entry.offset not in refs:
                    live += entry.frame_len
                refs[entry.offset] = refs.get(entry.offset, 0) + 1
            else:
                live += entry.frame_len
        self._lazy_live_bytes = live
        self._lazy_block_refs = refs

    def _load_via_trailer(self) -> bool:
        """Index from the TRAILER/FOOTER at EOF; False -> caller scans."""
        if self.size < self.header_len + TRAILER_FRAME_LEN:
            return False
        try:
            kind, body, _ = segformat.read_frame(
                self._data, self.size - TRAILER_FRAME_LEN, self.size
            )
            if kind != KIND_TRAILER:
                return False
            trailer = segformat.decode_trailer_body(body)
            if not (
                self.header_len
                <= trailer.footer_offset
                < trailer.footer_offset + trailer.footer_frame_len
                <= self.size
            ) or not (self.header_len <= trailer.covered_len <= self.size):
                return False
            kind, body, _ = segformat.read_frame(
                self._data,
                trailer.footer_offset,
                trailer.footer_offset + trailer.footer_frame_len,
            )
            if kind != KIND_FOOTER:
                return False
            footer = segformat.decode_footer_body(body)
        except SegmentFormatError:
            return False
        self.footer_offset = trailer.footer_offset
        self.footer_frame_len = trailer.footer_frame_len
        self.covered_len = trailer.covered_len
        self.n_tombstone_frames = footer.n_tombstone_frames
        self._base_keys = [entry.key for entry in footer.entries]
        self._base_entries = footer.entries
        # replay the tail the footer does not cover yet
        self._scan(trailer.covered_len)
        return True

    def _scan(self, offset: int) -> None:
        """Replay frames sequentially from ``offset``; stops at the first
        bad/truncated frame (crash recovery: the committed prefix wins)."""
        for frame_offset, kind, body, next_offset in segformat.iter_frames(
            self._data, offset, self.size
        ):
            if kind == KIND_RECORD:
                try:
                    record = segformat.decode_record_body(body)
                except SegmentFormatError:
                    continue
                self._overlay[record.key] = IndexEntry(
                    key=record.key,
                    offset=frame_offset,
                    frame_len=next_offset - frame_offset,
                    ts=record.ts,
                )
            elif kind == KIND_BLOCK:
                try:
                    block = segformat.decode_block_body(body)
                except SegmentFormatError:
                    continue
                for slot, (key, ts) in enumerate(zip(block.keys, block.tss)):
                    self._overlay[key] = IndexEntry(
                        key=key,
                        offset=frame_offset,
                        frame_len=next_offset - frame_offset,
                        ts=ts,
                        slot=slot,
                    )
            elif kind == KIND_TOMBSTONE:
                try:
                    key, _ts = segformat.decode_marker_body(body)
                except SegmentFormatError:
                    continue
                self._overlay[key] = None
                self.n_tombstone_frames += 1
            elif kind == KIND_TOUCH:
                try:
                    key, ts = segformat.decode_marker_body(body)
                except SegmentFormatError:
                    continue
                current = self._lookup(key)
                if current is not None:
                    self._overlay[key] = current._replace(ts=max(current.ts, ts))
            # META/FOOTER/TRAILER frames in the tail carry no entries

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> IndexEntry | None:
        if key in self._overlay:
            return self._overlay[key]
        index = bisect_left(self._base_keys, key)
        if index < len(self._base_keys) and self._base_keys[index] == key:
            return self._base_entries[index]
        return None

    def index_unsorted(self) -> dict[str, IndexEntry]:
        """The live index (footer plus tail) in no particular order —
        the cheap form for callers that only need membership/values."""
        merged = {
            entry.key: entry
            for entry in self._base_entries
            if entry.key not in self._overlay
        }
        for key, entry in self._overlay.items():
            if entry is not None:
                merged[key] = entry
        return merged

    def index(self) -> dict[str, IndexEntry]:
        """The live index as one key-sorted dict (footer plus tail)."""
        return dict(sorted(self.index_unsorted().items()))

    def keys(self) -> list[str]:
        """Sorted keys of all live records."""
        return list(self.index())

    def has(self, key: str) -> bool:
        """True when a live record exists for ``key`` (it may still fail
        its checksum at read time)."""
        return self._lookup(key) is not None

    def entry(self, key: str) -> IndexEntry | None:
        """The live index entry for ``key``, or ``None``."""
        return self._lookup(key)

    def entry_cost(self, entry: IndexEntry) -> int:
        """Approximate on-disk bytes attributable to one entry: its frame
        length for a standalone record, its fair share of the block for a
        blocked one (eviction ranking must not charge each record a whole
        block)."""
        if entry.slot >= 0:
            return entry.frame_len // max(1, self._block_refs.get(entry.offset, 1))
        return entry.frame_len

    def _record_at(self, entry: IndexEntry) -> segformat.RecordBody | None:
        try:
            kind, body, _ = segformat.read_frame(
                self._data, entry.offset, min(entry.offset + entry.frame_len, self.size)
            )
            if kind != KIND_RECORD:
                return None
            record = segformat.decode_record_body(body)
        except SegmentFormatError:
            return None
        if record.key != entry.key:
            return None
        return record

    def _block_at(self, offset: int, frame_len: int) -> segformat.BlockBody | None:
        """Decode the BLOCK frame at ``offset``, caching the last decode
        (clustered point lookups hit the same block)."""
        cached = self._block_cache
        if cached is not None and cached[0] == offset:
            return cached[1]
        try:
            kind, body, _ = segformat.read_frame(
                self._data, offset, min(offset + frame_len, self.size)
            )
            if kind != KIND_BLOCK:
                return None
            block = segformat.decode_block_body(body)
        except SegmentFormatError:
            return None
        self._block_cache = (offset, block)
        return block

    def _payload_at(self, entry: IndexEntry) -> bytes | None:
        """The decompressed payload behind an index entry, or ``None``
        when its frame is corrupt or does not match the entry."""
        if entry.slot >= 0:
            block = self._block_at(entry.offset, entry.frame_len)
            if block is None or not (0 <= entry.slot < len(block.keys)):
                return None
            if block.keys[entry.slot] != entry.key:
                return None
            return block.payloads[entry.slot]
        record = self._record_at(entry)
        if record is None:
            return None
        try:
            return segformat.decompress_record(record)
        except SegmentFormatError:
            return None

    def get(self, key: str) -> bytes | None:
        """The decompressed payload for ``key``, or ``None``.

        A missing key, a tombstoned key, an index entry pointing at a
        frame that fails its checksum, or a block that does not
        decompress are all misses — corruption never raises out of here.
        """
        entry = self._lookup(key)
        if entry is None:
            return None
        return self._payload_at(entry)

    def items(self) -> Iterator[tuple[str, bytes]]:
        """Yield ``(key, payload)`` for every live record in key order.

        Each BLOCK frame is decompressed once however many live records
        it holds — the bulk warm-load path.  Records that fail their
        checksum are skipped, not raised.
        """
        live = self.index()
        blocked: dict[int, list[IndexEntry]] = {}
        results: dict[str, bytes] = {}
        for entry in live.values():
            if entry.slot >= 0:
                blocked.setdefault(entry.offset, []).append(entry)
                continue
            record = self._record_at(entry)
            if record is None:
                continue
            try:
                results[entry.key] = segformat.decompress_record(record)
            except SegmentFormatError:
                continue
        for offset, entries in blocked.items():
            end = min(offset + entries[0].frame_len, self.size)
            try:
                kind, body, _ = segformat.read_frame(self._data, offset, end)
                if kind != KIND_BLOCK:
                    continue
                block = segformat.decode_block_body(body)
            except SegmentFormatError:
                continue
            for entry in entries:
                if (
                    0 <= entry.slot < len(block.keys)
                    and block.keys[entry.slot] == entry.key
                ):
                    results[entry.key] = block.payloads[entry.slot]
        for key in live:
            payload = results.get(key)
            if payload is not None:
                yield key, payload

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> SegmentStats:
        """Occupancy derived from the index — no directory walk.  A BLOCK
        frame counts as live while any of its records is (so debt from
        partially superseded blocks surfaces only once the whole block
        dies — compaction still reclaims it either way)."""
        live_bytes = self.live_frame_bytes
        structural = self.header_len
        if self.footer_offset is not None:
            structural += self.footer_frame_len + TRAILER_FRAME_LEN
        dead = max(0, self.size - structural - live_bytes)
        return SegmentStats(
            file_bytes=self.size,
            n_live=len(self.index_unsorted()),
            n_tombstoned=self.n_tombstone_frames,
            live_bytes=live_bytes,
            dead_bytes=dead,
        )

    def close(self) -> None:
        """Release the mmap (otherwise freed when the reader is GC'd)."""
        if self._mm is not None:
            try:
                self._mm.close()  # type: ignore[attr-defined]
            except (BufferError, ValueError):  # pragma: no cover - defensive
                pass
            self._mm = None
            self._data = b""


class Segment:
    """One table's append-only segment file, with a cached reader.

    All mutating methods hold ``lock`` (the owning store's
    :class:`StoreLock`) for their whole critical section; the lock is
    reentrant, so a store operation that already holds it composes.
    """

    def __init__(
        self,
        path: str | FilePath,
        lock: StoreLock,
        table: str,
        level: int = DEFAULT_LEVEL,
        footer_every_bytes: int = DEFAULT_FOOTER_EVERY,
        compact_min_bytes: int = DEFAULT_COMPACT_MIN_BYTES,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
    ) -> None:
        self.path = FilePath(path)
        self.table = table
        self.level = level
        self.footer_every_bytes = footer_every_bytes
        self.compact_min_bytes = compact_min_bytes
        self.compact_ratio = compact_ratio
        self._lock = lock
        self._reader: SegmentReader | None = None
        self._reader_stamp: tuple[int, int, int] | None = None
        self._wstate: _WriterState | None = None

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def _stamp(self) -> tuple[int, int, int] | None:
        try:
            stat = self.path.stat()
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def reader(self) -> SegmentReader:
        """The current snapshot reader, re-opened only when the file
        changed (one ``stat`` per call — the warm-load fast path).  When
        the last change was this segment's own write, the reader is
        seeded from the writer state instead of re-decoding the footer.
        """
        stamp = self._stamp()
        if self._reader is not None and stamp == self._reader_stamp:
            return self._reader
        ws = self._wstate
        if ws is not None and stamp is not None and ws.stamp == stamp:
            seed = _ReaderSeed(
                size=ws.size,
                footer_offset=ws.footer_offset,
                footer_frame_len=ws.footer_frame_len,
                covered_len=ws.covered_len,
                n_tombstone_frames=ws.n_tombstone_frames,
                # copies: the writer keeps mutating its own dicts
                index=dict(ws.index),
                live_frame_bytes=ws.live_frame_bytes,
                block_refs=dict(ws.block_refs),
            )
            self._reader = SegmentReader(self.path, _seed=seed)
        else:
            self._reader = SegmentReader(self.path)
        self._reader_stamp = stamp
        return self._reader

    def invalidate_reader(self) -> None:
        """Drop the cached reader (after this process mutated the file)."""
        self._reader = None
        self._reader_stamp = None

    # ------------------------------------------------------------------
    # mutations (all under the store lock)
    # ------------------------------------------------------------------
    def append_records(
        self, items: Iterable[tuple[str, bytes, float | None]]
    ) -> None:
        """Append one RECORD per ``(key, payload, ts)`` (``ts=None`` means
        now).  A key whose live payload is byte-identical is demoted to a
        TOUCH — content-addressed saves of an unchanged artefact must not
        grow the segment."""
        self._apply(records=list(items))

    def append_tombstones(self, keys: Iterable[str]) -> None:
        """Append a TOMBSTONE per key (eviction: one append, no rewrite)."""
        self._apply(tombstones=list(keys))

    def append_touches(self, keys: Iterable[str]) -> None:
        """Append a TOUCH per live key (batched LRU recency bumps)."""
        self._apply(touches=list(keys))

    def compact(self) -> bool:
        """Rewrite the segment to live records only; True when rewritten.

        Copies live frames verbatim (re-verifying checksums, dropping any
        record that fails), writes a fresh footer/trailer, and atomically
        replaces the file.  A no-op on a missing or debt-free segment.
        """
        with self._lock.held():
            reader = self.reader()
            if reader.size == 0 or reader.foreign:
                return False
            if reader.stats().dead_bytes == 0 and not reader.used_scan:
                return False
            self._compact_locked(reader)
            return True

    def _writer_state(self) -> _WriterState:
        """The mutable writer view of the current file, rebuilt from a
        snapshot reader only when the file changed under us — another
        process's append grows the size, compaction changes the inode,
        so a matching stamp means the file is exactly as this segment
        left it.  Caller holds the lock."""
        stamp = self._stamp()
        ws = self._wstate
        if ws is not None and stamp is not None and ws.stamp == stamp:
            return ws
        reader = self.reader()
        if reader.foreign:
            # not a segment of this version: rotate it aside and start
            # fresh — the cache must fail open, never refuse to save
            # (the held() is re-entrant: callers already hold the lock)
            with self._lock.held():
                aside = self.path.with_name(self.path.name + ".corrupt")
                aside.unlink(missing_ok=True)
                self.path.replace(aside)
            self.invalidate_reader()
            reader = self.reader()
        ws = _WriterState(
            stamp=self._stamp(),
            size=reader.size,
            footer_offset=reader.footer_offset,
            footer_frame_len=reader.footer_frame_len,
            covered_len=reader.covered_len,
            had_footer=reader.footer_offset is not None and not reader.used_scan,
            n_tombstone_frames=reader.n_tombstone_frames,
            index=reader.index_unsorted(),
            live_frame_bytes=reader.live_frame_bytes,
            block_refs=dict(reader._block_refs),
        )
        self._wstate = ws
        return ws

    def _apply(
        self,
        records: list[tuple[str, bytes, float | None]] | None = None,
        tombstones: list[str] | None = None,
        touches: list[str] | None = None,
    ) -> None:
        records = records or []
        tombstones = tombstones or []
        touches = touches or []
        if not records and not tombstones and not touches:
            return
        with self._lock.held():
            ws = self._writer_state()
            try:
                self._apply_locked(ws, records, tombstones, touches)
            except BaseException:
                # the in-memory view may no longer match the file
                self._wstate = None
                self.invalidate_reader()
                raise

    def _apply_locked(
        self,
        ws: _WriterState,
        records: list[tuple[str, bytes, float | None]],
        tombstones: list[str],
        touches: list[str],
    ) -> None:
        index = ws.index
        refs = ws.block_refs
        live = ws.live_frame_bytes
        now = time.time()

        def drop(entry: IndexEntry) -> None:
            # a superseded/deleted entry stops counting as live; a
            # BLOCK frame stays live until its last record dies
            nonlocal live
            if entry.slot >= 0:
                refs[entry.offset] -= 1
                if refs[entry.offset] == 0:
                    del refs[entry.offset]
                    live -= entry.frame_len
            else:
                live -= entry.frame_len

        # an unchanged payload for a live key is a recency bump only
        filtered: list[tuple[str, bytes, float]] = []
        for key, payload, ts in records:
            if key in index and self.reader().get(key) == payload:
                touches = touches + [key]
            else:
                filtered.append((key, payload, now if ts is None else ts))

        n_tombstones = ws.n_tombstone_frames
        mode = "r+b" if ws.size > 0 else "wb"
        with open(self.path, mode) as handle:
            handle.seek(0, os.SEEK_END)
            pos = handle.tell()
            if pos == 0:
                header = segformat.encode_header(
                    self.table, self.level, _PAYLOAD_FORMAT
                )
                handle.write(header)
                pos = len(header)
                covered = pos
                had_footer = False
            else:
                covered = ws.covered_len
                had_footer = ws.had_footer

            if len(filtered) >= BLOCK_MIN_BATCH:
                # bulk batch (JSON import): pack into BLOCK
                # frames, key-sorted so a block holds a contiguous
                # key run and bulk reads decode it once
                deduped = {key: (key, payload, ts) for key, payload, ts in filtered}
                batch = [deduped[key] for key in sorted(deduped)]
                for start in range(0, len(batch), BLOCK_RECORDS):
                    chunk = batch[start : start + BLOCK_RECORDS]
                    frame = segformat.encode_block(chunk, self.level)
                    for slot, (key, _payload, ts) in enumerate(chunk):
                        old = index.get(key)
                        if old is not None:
                            drop(old)
                        index[key] = IndexEntry(
                            key=key,
                            offset=pos,
                            frame_len=len(frame),
                            ts=ts,
                            slot=slot,
                        )
                        refs[pos] = refs.get(pos, 0) + 1
                    live += len(frame)
                    handle.write(frame)
                    pos += len(frame)
            else:
                for key, payload, ts in filtered:
                    frame = segformat.encode_record(key, payload, ts, self.level)
                    old = index.get(key)
                    if old is not None:
                        drop(old)
                    index[key] = IndexEntry(
                        key=key, offset=pos, frame_len=len(frame), ts=ts
                    )
                    live += len(frame)
                    handle.write(frame)
                    pos += len(frame)
            for key in tombstones:
                popped = index.pop(key, None)
                if popped is None:
                    continue
                drop(popped)
                frame = segformat.encode_marker(KIND_TOMBSTONE, key, now)
                handle.write(frame)
                pos += len(frame)
                n_tombstones += 1
            for key in touches:
                entry = index.get(key)
                if entry is None:
                    continue
                frame = segformat.encode_marker(KIND_TOUCH, key, now)
                handle.write(frame)
                pos += len(frame)
                index[key] = entry._replace(ts=max(entry.ts, now))

            write_footer = (
                not had_footer
                or (pos - covered) > self.footer_every_bytes
            )
            if write_footer:
                entries = [index[key] for key in sorted(index)]
                footer = segformat.encode_footer(
                    entries, n_tombstones, self.level
                )
                footer_offset: int | None = pos
                footer_frame_len = len(footer)
                handle.write(footer)
                pos += len(footer)
                covered = pos + TRAILER_FRAME_LEN
                handle.write(
                    segformat.encode_trailer(
                        pos - len(footer), len(footer), covered
                    )
                )
                pos = covered
            else:
                assert ws.footer_offset is not None
                footer_offset = ws.footer_offset
                footer_frame_len = ws.footer_frame_len
                handle.write(
                    segformat.encode_trailer(
                        ws.footer_offset, ws.footer_frame_len, covered
                    )
                )
                pos += TRAILER_FRAME_LEN
        ws.size = pos
        ws.footer_offset = footer_offset
        ws.footer_frame_len = footer_frame_len
        ws.covered_len = covered
        ws.had_footer = True
        ws.n_tombstone_frames = n_tombstones
        ws.live_frame_bytes = live
        ws.stamp = self._stamp()
        self.invalidate_reader()

        # threshold-triggered compaction: reclaim once the debt is
        # both absolutely and proportionally worth a rewrite
        dead = max(0, pos - live)
        if dead >= self.compact_min_bytes and dead >= self.compact_ratio * pos:
            self._compact_locked(self.reader())

    def _compact_locked(self, reader: SegmentReader) -> None:
        """Rewrite to live records only, re-packed into BLOCK frames so
        the compacted segment bulk-loads at one decompression per ~64
        records; caller holds the lock."""
        with self._lock.held():
            index = reader.index()
            tmp = self.path.with_name(
                f"{self.path.name}.{os.getpid()}-{uuid4().hex[:8]}.tmp"
            )
            try:
                with open(tmp, "wb") as handle:
                    header = segformat.encode_header(
                        self.table, self.level, _PAYLOAD_FORMAT
                    )
                    handle.write(header)
                    pos = len(header)
                    survivors: list[tuple[str, bytes, float]] = []
                    for key, entry in index.items():  # index() is sorted
                        payload = reader._payload_at(entry)
                        if payload is None:
                            continue  # corrupt record: compaction drops it
                        survivors.append((key, payload, entry.ts))
                    entries: list[IndexEntry] = []
                    refs: dict[int, int] = {}
                    live = 0
                    for start in range(0, len(survivors), BLOCK_RECORDS):
                        chunk = survivors[start : start + BLOCK_RECORDS]
                        frame = segformat.encode_block(chunk, self.level)
                        for slot, (key, _payload, ts) in enumerate(chunk):
                            entries.append(
                                IndexEntry(
                                    key=key,
                                    offset=pos,
                                    frame_len=len(frame),
                                    ts=ts,
                                    slot=slot,
                                )
                            )
                        refs[pos] = len(chunk)
                        live += len(frame)
                        handle.write(frame)
                        pos += len(frame)
                    footer = segformat.encode_footer(entries, 0, self.level)
                    footer_offset = pos
                    handle.write(footer)
                    pos += len(footer)
                    handle.write(
                        segformat.encode_trailer(
                            footer_offset, len(footer), pos + TRAILER_FRAME_LEN
                        )
                    )
                tmp.replace(self.path)
            finally:
                tmp.unlink(missing_ok=True)
            self._wstate = _WriterState(
                stamp=self._stamp(),
                size=pos + TRAILER_FRAME_LEN,
                footer_offset=footer_offset,
                footer_frame_len=len(footer),
                covered_len=pos + TRAILER_FRAME_LEN,
                had_footer=True,
                n_tombstone_frames=0,
                index={entry.key: entry for entry in entries},
                live_frame_bytes=live,
                block_refs=refs,
            )
            self.invalidate_reader()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def get(self, key: str) -> bytes | None:
        """Lock-free payload lookup via the cached reader."""
        return self.reader().get(key)

    def stats(self) -> SegmentStats:
        """Occupancy snapshot via the cached reader."""
        return self.reader().stats()
