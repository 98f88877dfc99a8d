"""Segment framing and the append-only block store.

Exercises :mod:`repro.cache.format` round-trips and every
:class:`~repro.cache.blockstore.Segment` durability claim the packed
:class:`~repro.cache.store.GraphStore` layout rests on: torn tails,
flipped bytes, stale footers, foreign files, tombstone + touch replay,
and threshold compaction.  Corruption must always read as a *miss*,
never an exception.
"""

import zlib

import pytest

from repro.cache import format as segformat
from repro.cache.blockstore import Segment, SegmentReader
from repro.cache.lock import StoreLock


@pytest.fixture()
def lock(tmp_path):
    return StoreLock(tmp_path)


@pytest.fixture()
def segment(tmp_path, lock):
    return Segment(tmp_path / "graphs.seg", lock, "graphs")


class TestFraming:
    def test_uvarint_round_trip(self):
        for value in (0, 1, 127, 128, 300, 1 << 20, (1 << 63) - 1):
            encoded = segformat.encode_uvarint(value)
            decoded, end = segformat.decode_uvarint(encoded, 0)
            assert decoded == value and end == len(encoded)

    def test_truncated_uvarint_rejected(self):
        encoded = segformat.encode_uvarint(1 << 20)
        with pytest.raises(segformat.SegmentFormatError):
            segformat.decode_uvarint(encoded[:-1], 0)

    def test_record_round_trip(self):
        payload = b'{"hello": "world"}\n' * 10
        frame = segformat.encode_record("k1", payload, ts=12.5, level=6)
        kind, body, end = segformat.read_frame(frame, 0)
        assert kind == segformat.KIND_RECORD and end == len(frame)
        record = segformat.decode_record_body(body)
        assert record.key == "k1"
        assert record.ts == 12.5
        assert segformat.decompress_record(record) == payload

    def test_level_zero_round_trips(self):
        payload = b"x" * 100
        frame = segformat.encode_record("k", payload, ts=0.0, level=0)
        _, body, _ = segformat.read_frame(frame, 0)
        record = segformat.decode_record_body(body)
        assert record.raw_len == 100
        assert segformat.decompress_record(record) == payload

    def test_crc_rejects_flipped_byte(self):
        frame = bytearray(
            segformat.encode_record("k", b"payload", ts=0.0, level=6)
        )
        frame[7] ^= 0xFF
        with pytest.raises(segformat.SegmentFormatError):
            segformat.read_frame(bytes(frame), 0)

    def test_declared_length_cannot_overrun(self):
        frame = segformat.encode_record("k", b"payload", ts=0.0, level=6)
        with pytest.raises(segformat.SegmentFormatError):
            segformat.read_frame(frame[: len(frame) - 3], 0)

    def test_footer_round_trip_requires_sorted_keys(self):
        entries = [
            segformat.IndexEntry("a", 16, 40, 1.0),
            segformat.IndexEntry("b", 56, 44, 2.0),
        ]
        frame = segformat.encode_footer(entries, n_tombstone_frames=1, level=6)
        _, body, _ = segformat.read_frame(frame, 0)
        footer = segformat.decode_footer_body(body)
        assert footer.entries == entries
        assert footer.n_tombstone_frames == 1
        with pytest.raises(segformat.SegmentFormatError):
            segformat.decode_footer_body(
                segformat.read_frame(
                    segformat.encode_footer(list(reversed(entries)), 0, 6), 0
                )[1]
            )

    def test_trailer_is_fixed_length(self):
        frame = segformat.encode_trailer(100, 50, 150)
        assert len(frame) == segformat.TRAILER_FRAME_LEN
        _, body, _ = segformat.read_frame(frame, 0)
        trailer = segformat.decode_trailer_body(body)
        assert (trailer.footer_offset, trailer.footer_frame_len,
                trailer.covered_len) == (100, 50, 150)

    def test_header_round_trip(self):
        header = segformat.encode_header("graphs", level=6, payload_format=1)
        assert header.startswith(segformat.SEGMENT_MAGIC)
        meta, end = segformat.read_header(header)
        assert end == len(header)
        assert meta["table"] == "graphs"

    def test_bad_magic_rejected(self):
        with pytest.raises(segformat.SegmentFormatError):
            segformat.read_header(b"NOTMAGIC" + b"\x00" * 64)


class TestSegmentBasics:
    def test_append_get_round_trip(self, segment):
        segment.append_records([("k1", b"one", None), ("k2", b"two", None)])
        assert segment.get("k1") == b"one"
        assert segment.get("k2") == b"two"
        assert segment.get("k3") is None
        assert segment.reader().keys() == ["k1", "k2"]

    def test_fresh_reader_sees_all_records(self, tmp_path, segment, lock):
        segment.append_records([("k1", b"one", None)])
        segment.append_records([("k2", b"two", None)])
        reader = SegmentReader(tmp_path / "graphs.seg")
        assert reader.get("k1") == b"one"
        assert reader.get("k2") == b"two"
        assert not reader.foreign

    def test_rewrite_shadows_old_record(self, segment):
        segment.append_records([("k1", b"old", None)])
        segment.append_records([("k1", b"new", None)])
        assert segment.get("k1") == b"new"
        assert segment.stats().n_live == 1

    def test_identical_payload_demoted_to_touch(self, segment):
        segment.append_records([("k1", b"same", None)])
        size_once = segment.reader().size
        segment.append_records([("k1", b"same", None)])
        reader = segment.reader()
        assert reader.get("k1") == b"same"
        # a touch marker + fresh trailer is far smaller than a re-encoded
        # record
        assert reader.size - size_once < 80
        assert reader.stats().n_live == 1

    def test_tombstone_hides_record(self, segment):
        segment.append_records([("k1", b"one", None), ("k2", b"two", None)])
        segment.append_tombstones(["k1"])
        assert segment.get("k1") is None
        assert segment.get("k2") == b"two"
        assert segment.reader().keys() == ["k2"]

    def test_touch_bumps_recency(self, segment):
        segment.append_records([("k1", b"one", 100.0), ("k2", b"two", 200.0)])
        segment.append_touches(["k1"])
        index = segment.reader().index()
        assert index["k1"].ts > index["k2"].ts

    def test_missing_file_is_empty(self, tmp_path):
        reader = SegmentReader(tmp_path / "absent.seg")
        assert reader.keys() == []
        assert reader.get("k") is None
        assert reader.stats().file_bytes == 0

    def test_items_decode_blocks_and_records(self, segment):
        records = [(f"k{i:03d}", f"payload-{i}".encode() * 50, None)
                   for i in range(40)]
        segment.append_records(records)  # bulk: BLOCK frames
        segment.append_records([("k999", b"standalone", None)])  # a RECORD
        decoded = dict(segment.reader().items())
        assert decoded == {
            **{key: payload for key, payload, _ in records},
            "k999": b"standalone",
        }


class TestCorruption:
    def _bulk(self, segment, n=8):
        segment.append_records(
            [(f"k{i:02d}", f"payload-{i}".encode() * 20, None)
             for i in range(n)]
        )

    def test_torn_tail_keeps_committed_records(self, tmp_path, segment):
        """A crash mid-append leaves a torn frame; every record committed
        before it still reads."""
        self._bulk(segment)
        path = tmp_path / "graphs.seg"
        with open(path, "ab") as handle:
            handle.write(b"\x02\xff\xff")  # torn record header
        reader = SegmentReader(path)
        for i in range(8):
            assert reader.get(f"k{i:02d}") is not None

    def test_append_after_torn_tail_is_readable(self, tmp_path, segment):
        self._bulk(segment)
        with open(tmp_path / "graphs.seg", "ab") as handle:
            handle.write(b"\x02garbage-that-is-not-a-frame")
        segment.append_records([("knew", b"after-the-crash", None)])
        reader = SegmentReader(tmp_path / "graphs.seg")
        assert reader.get("knew") == b"after-the-crash"
        assert reader.get("k00") is not None

    def test_flipped_byte_is_a_miss_for_that_key_only(self, tmp_path, segment):
        self._bulk(segment, n=4)
        reader = segment.reader()
        victim = reader.entry("k01")
        data = bytearray((tmp_path / "graphs.seg").read_bytes())
        # flip one byte inside the victim's compressed payload
        data[victim.offset + 30] ^= 0xFF
        (tmp_path / "graphs.seg").write_bytes(bytes(data))
        fresh = SegmentReader(tmp_path / "graphs.seg")
        assert fresh.get("k01") is None
        assert fresh.get("k00") is not None
        assert fresh.get("k02") is not None

    def test_corrupt_trailer_falls_back_to_scan(self, tmp_path, segment):
        self._bulk(segment)
        path = tmp_path / "graphs.seg"
        data = bytearray(path.read_bytes())
        for i in range(1, segformat.TRAILER_FRAME_LEN + 1):
            data[-i] ^= 0xFF
        path.write_bytes(bytes(data))
        reader = SegmentReader(path)
        assert reader.used_scan
        for i in range(8):
            assert reader.get(f"k{i:02d}") is not None

    def test_corrupt_header_reads_as_empty_and_write_rotates(
        self, tmp_path, segment
    ):
        path = tmp_path / "graphs.seg"
        path.write_bytes(b"\x00not-a-segment" * 16)
        reader = SegmentReader(path)
        assert reader.foreign and reader.keys() == []
        segment.invalidate_reader()
        segment.append_records([("k1", b"fresh", None)])
        assert segment.get("k1") == b"fresh"
        assert (tmp_path / "graphs.seg.corrupt").exists()

    def test_items_skips_corrupt_records(self, tmp_path, segment):
        self._bulk(segment, n=4)
        victim = segment.reader().entry("k02")
        data = bytearray((tmp_path / "graphs.seg").read_bytes())
        data[victim.offset + 25] ^= 0xFF
        (tmp_path / "graphs.seg").write_bytes(bytes(data))
        decoded = dict(SegmentReader(tmp_path / "graphs.seg").items())
        assert "k02" not in decoded
        assert len(decoded) == 3


class TestCompaction:
    def test_compact_drops_dead_bytes(self, segment):
        big = zlib.compress(b"x" * 10_000)  # incompressible-ish payloads
        for i in range(12):
            segment.append_records([(f"k{i}", big + bytes([i]), None)])
        segment.append_tombstones([f"k{i}" for i in range(10)])
        before = segment.stats()
        assert before.dead_bytes > 0
        assert segment.compact()
        after = segment.stats()
        assert after.dead_bytes == 0
        assert after.n_live == 2
        assert after.file_bytes < before.file_bytes
        assert segment.get("k10") == big + bytes([10])
        assert segment.get("k11") == big + bytes([11])

    def test_compact_on_clean_segment_is_noop(self, segment):
        segment.append_records([("k1", b"one", None)])
        segment.compact()  # settle any footer bookkeeping
        assert segment.compact() is False

    def test_inline_compaction_triggers_past_threshold(self, tmp_path, lock):
        segment = Segment(
            tmp_path / "graphs.seg", lock, "graphs",
            compact_min_bytes=1_000, compact_ratio=0.5,
        )
        import random

        payload = random.Random(0).randbytes(5_000)  # incompressible
        segment.append_records([("k1", payload, None), ("k2", b"tiny", None)])
        segment.append_tombstones(["k1"])
        # the tombstoned record dominates the file, so the write path
        # compacts inline: the 5 kB corpse is reclaimed (all that may
        # remain dead is a superseded 37-byte trailer from later appends)
        segment.append_records([("k3", b"small", None)])
        stats = segment.stats()
        assert stats.dead_bytes <= 2 * segformat.TRAILER_FRAME_LEN
        assert stats.file_bytes < 1_000
        assert sorted(segment.reader().keys()) == ["k2", "k3"]

    def test_compacted_segment_readable_by_fresh_reader(self, tmp_path, segment):
        for i in range(6):
            segment.append_records([(f"k{i}", f"v{i}".encode() * 30, None)])
        segment.append_tombstones(["k0", "k1"])
        segment.compact()
        reader = SegmentReader(tmp_path / "graphs.seg")
        assert not reader.used_scan  # compaction wrote a fresh footer
        assert reader.keys() == ["k2", "k3", "k4", "k5"]
        assert reader.get("k3") == b"v3" * 30


class TestBlocks:
    """BLOCK frames: many records per zlib stream, written by bulk
    appends and compaction so warm loads decompress once per ~64
    records instead of once per record."""

    def test_block_round_trip(self):
        records = [(f"k{i:03d}", f"payload-{i}".encode() * 7, float(i)) for i in range(10)]
        frame = segformat.encode_block(records, level=6)
        kind, body, _ = segformat.read_frame(frame, 0)
        assert kind == segformat.KIND_BLOCK
        block = segformat.decode_block_body(body)
        assert block.keys == [k for k, _, _ in records]
        assert list(block.tss) == [ts for _, _, ts in records]
        assert block.payloads == [p for _, p, _ in records]

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            segformat.encode_block([], level=6)

    def test_corrupt_block_body_rejected(self):
        frame = segformat.encode_block([("k", b"x" * 50, 1.0)], level=6)
        _, body, _ = segformat.read_frame(frame, 0)
        # truncating the compressed stream must fail cleanly, not crash
        with pytest.raises(segformat.SegmentFormatError):
            segformat.decode_block_body(body[: len(body) // 2])

    def test_footer_round_trips_block_slots(self):
        entries = [
            segformat.IndexEntry("a", 16, 200, 1.0, slot=0),
            segformat.IndexEntry("b", 16, 200, 2.0, slot=1),
            segformat.IndexEntry("c", 216, 40, 3.0),  # standalone record
        ]
        frame = segformat.encode_footer(entries, n_tombstone_frames=0, level=6)
        footer = segformat.decode_footer_body(segformat.read_frame(frame, 0)[1])
        assert footer.entries == entries

    def test_bulk_append_writes_block_frames(self, segment):
        from repro.cache.blockstore import BLOCK_MIN_BATCH

        batch = [
            (f"k{i:03d}", f"v{i}".encode() * 10, None)
            for i in range(BLOCK_MIN_BATCH)
        ]
        segment.append_records(batch)
        index = segment.reader().index()
        assert all(entry.slot >= 0 for entry in index.values())
        # one shared frame: every entry points at the same offset
        assert len({entry.offset for entry in index.values()}) == 1
        for key, payload, _ in batch:
            assert segment.get(key) == payload

    def test_small_append_stays_per_record(self, segment):
        segment.append_records([("a", b"x" * 40, None), ("b", b"y" * 40, None)])
        index = segment.reader().index()
        assert all(entry.slot == -1 for entry in index.values())

    def test_bulk_append_dedupes_last_write_wins(self, segment):
        from repro.cache.blockstore import BLOCK_MIN_BATCH

        batch = [
            (f"k{i:03d}", b"old" * 10, None) for i in range(BLOCK_MIN_BATCH)
        ]
        batch.append(("k000", b"new" * 10, None))
        segment.append_records(batch)
        assert segment.get("k000") == b"new" * 10

    def test_compaction_blockifies_single_records(self, tmp_path, segment):
        for i in range(20):
            segment.append_records([(f"k{i:02d}", f"v{i}".encode() * 20, None)])
        assert segment.compact() is True
        reader = SegmentReader(tmp_path / "graphs.seg")
        index = reader.index()
        assert len(index) == 20
        assert all(entry.slot >= 0 for entry in index.values())
        for i in range(20):
            assert reader.get(f"k{i:02d}") == f"v{i}".encode() * 20

    def test_corrupt_block_is_a_miss_for_its_records_only(self, tmp_path, segment):
        from repro.cache.blockstore import BLOCK_RECORDS

        n = BLOCK_RECORDS + 16  # two blocks
        segment.append_records(
            [(f"k{i:03d}", f"v{i}".encode() * 10, None) for i in range(n)]
        )
        path = tmp_path / "graphs.seg"
        index = SegmentReader(path).index()
        offsets = sorted({entry.offset for entry in index.values()})
        assert len(offsets) == 2
        first, second = offsets
        data = bytearray(path.read_bytes())
        mid = first + (second - first) // 2  # inside the first block's body
        data[mid] ^= 0xFF
        path.write_bytes(bytes(data))
        reader = SegmentReader(path)
        hits = misses = 0
        for key, entry in index.items():
            value = reader.get(key)
            if entry.offset == first:
                assert value is None
                misses += 1
            else:
                assert value == f"v{int(key[1:]):d}".encode() * 10
                hits += 1
        assert misses == BLOCK_RECORDS and hits == 16

    def test_entry_cost_is_fair_share_of_block(self, segment):
        from repro.cache.blockstore import BLOCK_MIN_BATCH

        segment.append_records(
            [(f"k{i:03d}", b"x" * 100, None) for i in range(BLOCK_MIN_BATCH)]
        )
        reader = segment.reader()
        index = reader.index()
        entry = index["k000"]
        assert entry.slot >= 0
        cost = reader.entry_cost(entry)
        assert cost == entry.frame_len // BLOCK_MIN_BATCH
        # shares sum back to roughly the frame (integer division remainder)
        total = sum(reader.entry_cost(e) for e in index.values())
        assert entry.frame_len - BLOCK_MIN_BATCH < total <= entry.frame_len

    def test_seeded_reader_matches_cold_reader(self, tmp_path, segment):
        """The writer-state seeded reader and a cold footer decode must
        agree exactly — index, accounting, and payloads."""
        segment.append_records(
            [(f"k{i:03d}", f"v{i}".encode() * 15, None) for i in range(40)]
        )
        segment.append_tombstones(["k001", "k002"])
        segment.append_records([("k000", b"rewritten" * 5, None)])
        seeded = segment.reader()
        cold = SegmentReader(tmp_path / "graphs.seg")
        assert seeded.index() == cold.index()
        assert seeded.live_frame_bytes == cold.live_frame_bytes
        assert seeded._block_refs == cold._block_refs
        assert dict(seeded.items()) == dict(cold.items())
