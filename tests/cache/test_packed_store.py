"""The GraphStore segment layout: the table registry, eviction, and the
legacy JSON layout's export and import.

The store's compatibility contract is that a segment *record* is the
legacy JSON layout's *file content*, byte for byte.  These tests hold a
store beside its JSON export and compare raw bytes, run every table of
the registry through one set of no-orphan, eviction and corruption
checks, and exercise what the segments do: in-segment tombstone
eviction, batched TOUCH recency, and per-table accounting.
"""

import time

import pytest

from repro import parse_sql
from repro.api import generate
from repro.cache.blockstore import SegmentReader
from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.store import TABLES, GraphStore
from repro.core.options import PipelineOptions
from repro.graph.build import BuildStats, build_interaction_graph
from repro.treediff.memo import DiffMemo
from tests.helpers import map_diffs

SQL = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
    "SELECT a FROM t WHERE x = 9",
]


def _mined(statements=None):
    """One fully-derived payload set: a graph and its widget set."""
    statements = statements or SQL
    options = PipelineOptions()
    queries = [parse_sql(s) for s in statements]
    stats = BuildStats()
    graph = build_interaction_graph(queries, window=2, stats=stats, memo=DiffMemo())
    widgets = map_diffs(graph.diffs, options)
    return {
        "options": options,
        "log_fp": log_fingerprint(queries),
        "opts_fp": options_fingerprint(options),
        "graph": graph,
        "stats": stats,
        "widgets": widgets,
    }


def _typed(store, payload):
    """Each table's typed ``(save, load)`` pair for this payload's key."""
    fps = (payload["log_fp"], payload["opts_fp"])
    options = payload["options"]
    return {
        "graphs": (
            lambda: store.save(*fps, payload["graph"], payload["stats"]),
            lambda: store.load(*fps),
        ),
        "widget_sets": (
            lambda: store.save_widget_set(*fps, payload["widgets"], payload["graph"]),
            lambda: store.load_widget_set(
                *fps, payload["graph"], options.library, options.annotations
            ),
        ),
    }


def _save_all(store, payload):
    for save, _load in _typed(store, payload).values():
        save()


def _records(root, key):
    """Every table's raw record bytes for ``key`` (``None`` when absent)."""
    return {
        table.name: SegmentReader(root / table.segment).get(key) for table in TABLES
    }


def _imported(tmp_path, store, name="imported"):
    """A fresh store built from ``store``'s JSON export."""
    store.export_json(tmp_path / name)
    imported = GraphStore(tmp_path / name)
    imported.import_json()
    return imported


@pytest.mark.parametrize("table", TABLES, ids=[t.name for t in TABLES])
class TestTableRegistry:
    """One set of guarantees, checked for every table of the registry."""

    def test_no_orphans_eviction_and_corruption(self, tmp_path, table):
        payload = _mined()
        store = GraphStore(tmp_path)
        key = store.key(payload["log_fp"], payload["opts_fp"])
        save, load = _typed(store, payload)[table.name]
        if table.name != "graphs":
            # a derived record needs a live graph record
            assert store.record_put(table.name, key, b"{}") is False
            assert not store.record_has(table.name, key)
            save()
            # the caller holds the graph: it is re-created alongside
            assert store.record_has("graphs", key)
            assert store.record_has(table.name, key)
        _save_all(store, payload)
        assert store.record_has(table.name, key) and load() is not None

        assert store.prune(max_entries=0) == 1
        assert not store.record_has(table.name, key) and load() is None

        _save_all(store, payload)
        assert store.invalidate(log_fingerprint=payload["log_fp"]) == 1
        assert not store.record_has(table.name, key) and load() is None

        _save_all(store, payload)
        assert store.record_put(table.name, key, b"garbage")
        assert load() is None


class TestFormatSelection:
    def test_empty_directory_defaults_to_packed(self, tmp_path):
        assert GraphStore(tmp_path).format == "packed"
        assert GraphStore(tmp_path).stats()["format"] == "packed"

    def test_json_layout_auto_detected(self, tmp_path):
        """A legacy JSON layout is not served as is: ``import_json``
        finds its files and folds them into the segments."""
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        store.export_json(tmp_path / "legacy")
        legacy = GraphStore(tmp_path / "legacy")
        assert not legacy.has(payload["log_fp"], payload["opts_fp"])
        assert legacy.import_json()["imported_keys"] == 1
        assert legacy.has(payload["log_fp"], payload["opts_fp"])

    def test_packed_layout_auto_detected(self, tmp_path):
        payload = _mined()
        packed = GraphStore(tmp_path)
        packed.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
        assert GraphStore(tmp_path).format == "packed"
        assert GraphStore(tmp_path).has(payload["log_fp"], payload["opts_fp"])

    def test_unknown_format_rejected(self, tmp_path):
        # segments are the only layout: there is no format to choose
        with pytest.raises(TypeError):
            GraphStore(tmp_path, format="json")

    def test_bad_zlib_level_rejected(self, tmp_path):
        # the segments' compression level is fixed, not a store option
        with pytest.raises(TypeError):
            GraphStore(tmp_path, zlib_level=6)


class TestParity:
    """A record is the exported JSON file's content, byte for byte."""

    def test_all_four_tables_byte_identical(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        key = store.key(payload["log_fp"], payload["opts_fp"])
        store.export_json(tmp_path / "json")
        for table in TABLES:
            record = SegmentReader(store.root / table.segment).get(key)
            assert record is not None, table.name
            exported = tmp_path / "json" / (key + table.suffix)
            assert exported.read_bytes() == record, table.name

    def test_parity_survives_rewrites(self, tmp_path):
        """Re-saving a key keeps the export byte-identical (the store may
        demote the append to a touch — what's *read* matters)."""
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        key = store.key(payload["log_fp"], payload["opts_fp"])
        for round_ in range(3):
            store.save(payload["log_fp"], payload["opts_fp"],
                       payload["graph"], payload["stats"])
            store.export_json(tmp_path / f"json{round_}")
            assert (tmp_path / f"json{round_}" / (key + ".graph.jsonl")).read_bytes() == (
                SegmentReader(store.root / "graphs.seg").get(key)
            )

    def test_loads_round_trip_identically(self, tmp_path):
        payload = _mined()
        options = payload["options"]
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        imported = _imported(tmp_path, store)
        for each in (store, imported):
            graph, stats = each.load(payload["log_fp"], payload["opts_fp"])
            assert graph.summary() == payload["graph"].summary()
            assert stats.n_pairs_compared == payload["stats"].n_pairs_compared
            widgets = each.load_widget_set(
                payload["log_fp"], payload["opts_fp"], graph,
                options.library, options.annotations,
            )
            assert len(widgets) == len(payload["widgets"])


class TestMigration:
    def test_round_trip_is_byte_exact(self, tmp_path):
        """export_json then import_json rebuilds every table's record
        byte for byte, with its recency."""
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        key = store.key(payload["log_fp"], payload["opts_fp"])
        summary = store.export_json(tmp_path / "json")
        assert summary == {"exported_keys": 1, "orphans_dropped": 0}
        # the store itself is untouched by an export
        assert store.has(payload["log_fp"], payload["opts_fp"])

        imported = GraphStore(tmp_path / "json")
        assert imported.import_json() == {"imported_keys": 1, "orphans_dropped": 0}
        assert not list((tmp_path / "json").glob("*.json*"))
        assert _records(imported.root, key) == _records(store.root, key)
        for table in TABLES:
            before = SegmentReader(store.root / table.segment).entry(key)
            after = SegmentReader(imported.root / table.segment).entry(key)
            assert after.ts == pytest.approx(before.ts, abs=1e-3), table.name

    def test_migrate_to_current_format_is_a_noop(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        summary = store.import_json()
        assert summary["imported_keys"] == 0
        assert store.load(payload["log_fp"], payload["opts_fp"]) is not None

    def test_migrate_rejects_unknown_target(self, tmp_path):
        # exporting into the store's own directory would mix layouts
        with pytest.raises(ValueError):
            GraphStore(tmp_path).export_json(tmp_path)

    def test_packed_to_json_drops_orphans(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        # fabricate an orphan: a widgets record whose graph key is gone
        store._segments["widget_sets"].append_records(
            [("0" * 16 + "-" + "1" * 16, b'{"version": 1}\n', None)]
        )
        summary = store.export_json(tmp_path / "json")
        assert summary["orphans_dropped"] == 1
        assert len(list((tmp_path / "json").glob("*.widgets.json"))) == 1

    def test_json_to_packed_drops_orphans(self, tmp_path):
        payload = _mined()
        _save_all(GraphStore(tmp_path / "store"), payload)
        GraphStore(tmp_path / "store").export_json(tmp_path / "json")
        orphan = tmp_path / "json" / ("2" * 16 + "-" + "3" * 16 + ".widgets.json")
        orphan.write_text('{"version": 1}\n')
        store = GraphStore(tmp_path / "json")
        summary = store.import_json()
        assert summary["orphans_dropped"] == 1
        assert not orphan.exists()
        widgets = SegmentReader(store.root / "widgets.seg")
        assert widgets.keys() == [
            store.key(payload["log_fp"], payload["opts_fp"])
        ]

    def test_import_drops_files_of_retired_tables(self, tmp_path):
        """A legacy directory may hold closure-proof, diff-memo and
        compiled-page files: import deletes them, one orphan each."""
        payload = _mined()
        store = GraphStore(tmp_path / "store")
        _save_all(store, payload)
        key = store.key(payload["log_fp"], payload["opts_fp"])
        store.export_json(tmp_path / "json")
        suffixes = (".proofs.json", ".diffmemo.json", ".compiled.json")
        retired = [key + suffix for suffix in suffixes]
        retired.append("4" * 16 + "-" + "5" * 16 + ".compiled.json")  # no graph
        for name in retired:
            (tmp_path / "json" / name).write_text('{"version": 1}\n')
        imported = GraphStore(tmp_path / "json")
        assert imported.import_json() == {"imported_keys": 1, "orphans_dropped": 4}
        assert not list((tmp_path / "json").glob("*.json*"))
        assert _records(imported.root, key) == _records(store.root, key)

    def test_many_keys_round_trip(self, tmp_path):
        store = GraphStore(tmp_path / "store")
        fps = []
        for i in range(6):
            statements = [
                f"SELECT a FROM t{i} WHERE x = {v}" for v in (1, 2, 5)
            ]
            payload = _mined(statements)
            _save_all(store, payload)
            fps.append((payload["log_fp"], payload["opts_fp"]))
        assert store.export_json(tmp_path / "json")["exported_keys"] == 6
        imported = GraphStore(tmp_path / "json")
        assert imported.import_json()["imported_keys"] == 6
        assert imported.keys() == store.keys()
        for log_fp, opts_fp in fps:
            assert imported.load(log_fp, opts_fp) is not None
        assert imported.stats()["n_widget_sets"] == 6


def test_retired_table_methods_are_inert(tmp_path):
    """The typed loads and saves of the retired tables remain as names
    only: loads miss, saves write nothing."""
    payload = _mined()
    store = GraphStore(tmp_path)
    _save_all(store, payload)
    fps = (payload["log_fp"], payload["opts_fp"])
    before = store.stats()
    assert [table.name for table in TABLES] == ["graphs", "widget_sets"]
    for name in ("load_proof_triples", "load_diff_memo_pairs", "load_compiled_page"):
        assert getattr(store, name)(*fps) is None, name
    assert store.save_closure_proofs(*fps, None, payload["widgets"]) is None
    assert store.save_diff_memo(*fps, None) is None
    assert store.save_compiled_page(*fps, {}) is None
    assert store.stats() == before
    assert sorted(p.name for p in tmp_path.glob("*.seg")) == ["graphs.seg", "widgets.seg"]


class TestPackedStats:
    def test_per_table_accounting(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        stats = store.stats()
        assert stats["format"] == "packed"
        assert stats["n_keys"] == 1
        assert stats["n_graphs"] == 1
        assert stats["n_widget_sets"] == 1
        assert set(stats["bytes_by_table"]) == {"graphs", "widget_sets"}
        assert sum(stats["bytes_by_table"].values()) == stats["total_bytes"]
        for table in (t.name for t in TABLES):
            entry = stats["tables"][table]
            assert entry["n_live"] == 1
            assert entry["n_tombstoned"] == 0
            assert 0 < entry["live_bytes"] <= entry["file_bytes"]
            assert entry["file_bytes"] == stats["bytes_by_table"][table]

    def test_tombstones_and_debt_reported(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        store._segments["graphs"].append_tombstones(
            [store.key(payload["log_fp"], payload["opts_fp"])]
        )
        entry = store.stats()["tables"]["graphs"]
        assert entry["n_live"] == 0
        assert entry["n_tombstoned"] == 1
        assert entry["compaction_debt_bytes"] > 0


class TestCompactApi:
    def test_compact_reclaims_debt_and_keeps_data(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        store._segments["graphs"].append_tombstones(
            [store.key(payload["log_fp"], payload["opts_fp"])]
        )
        before = store.stats()["tables"]["graphs"]
        assert before["compaction_debt_bytes"] > 0
        assert store.compact() is True
        after = store.stats()["tables"]["graphs"]
        assert after["compaction_debt_bytes"] == 0
        assert after["file_bytes"] < before["file_bytes"]
        # untouched tables kept their records through the rewrite
        assert store.stats()["n_widget_sets"] == 1

    def test_compact_on_clean_store_is_noop(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        store.compact()  # first call may rewrite once
        assert store.compact() is False

    def test_compact_on_json_store_is_noop(self, tmp_path):
        """Legacy JSON files waiting for import_json are not the
        segments' business: compacting leaves them alone."""
        payload = _mined()
        _save_all(GraphStore(tmp_path / "store"), payload)
        GraphStore(tmp_path / "store").export_json(tmp_path / "json")
        files = sorted((tmp_path / "json").iterdir())
        assert GraphStore(tmp_path / "json").compact() is False
        assert sorted((tmp_path / "json").glob("*.json*")) == files


class TestPackedEviction:
    def _fill(self, store, n):
        fps = []
        for i in range(n):
            payload = _mined(
                [f"SELECT a FROM t{i} WHERE x = {v}" for v in (1, 2)]
            )
            store.save(payload["log_fp"], payload["opts_fp"],
                       payload["graph"])
            fps.append((payload["log_fp"], payload["opts_fp"]))
            time.sleep(0.01)  # strictly increasing record timestamps
        return fps

    def test_max_entries_evicts_lru(self, tmp_path):
        store = GraphStore(tmp_path)
        fps = self._fill(store, 3)
        # touch the oldest key by loading it, then persist the recency
        assert store.load(*fps[0]) is not None
        store.flush_recency()
        assert store.prune(max_entries=2) == 1
        assert store.load(*fps[0]) is not None  # recently used: survived
        assert store.load(*fps[1]) is None  # LRU: evicted
        assert store.load(*fps[2]) is not None

    def test_eviction_takes_derived_tables_along(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        assert store.prune(max_entries=0) == 1
        stats = store.stats()
        assert stats["n_keys"] == 0
        assert stats["n_widget_sets"] == 0
        assert store.load(payload["log_fp"], payload["opts_fp"]) is None

    def test_max_bytes_reclaims_space_on_disk(self, tmp_path):
        store = GraphStore(tmp_path)
        self._fill(store, 4)
        # densest layout first, so the halved cap can only be met by
        # genuinely evicting keys, not by reclaiming garbage
        store.compact()
        total = store.stats()["total_bytes"]
        removed = store.prune(max_bytes=total // 2)
        assert removed >= 1
        # eviction compacts: the cap holds for *file* bytes, not an
        # estimate — prune no longer leaves dead records behind
        assert store.stats()["total_bytes"] <= total // 2

    def test_save_enforces_caps_inline(self, tmp_path):
        store = GraphStore(tmp_path, max_entries=2)
        self._fill(store, 4)
        assert len(store.keys()) <= 2

    def test_invalidate_by_fingerprint(self, tmp_path):
        store = GraphStore(tmp_path)
        fps = self._fill(store, 2)
        assert store.invalidate(log_fingerprint=fps[0][0]) == 1
        assert store.load(*fps[0]) is None
        assert store.load(*fps[1]) is not None
        assert store.clear() == 1
        assert len(store) == 0

    def test_invalidate_table_drops_one_derived_table(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        assert store.invalidate_table("widget_sets") == 1
        stats = store.stats()
        assert stats["n_widget_sets"] == 0
        assert stats["n_graphs"] == 1
        with pytest.raises(ValueError):
            store.invalidate_table("graphs")
        with pytest.raises(ValueError):
            store.invalidate_table("diff_memos")


class TestPackedCorruption:
    def test_torn_segment_tail_never_crashes_the_store(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        with open(tmp_path / "graphs.seg", "ab") as handle:
            handle.write(b"\x02torn-half-frame")
        fresh = GraphStore(tmp_path)
        assert fresh.load(payload["log_fp"], payload["opts_fp"]) is not None
        assert fresh.stats()["n_graphs"] == 1
        assert fresh.prune(max_entries=1) == 0

    def test_stomped_segment_is_a_miss_not_a_crash(self, tmp_path):
        payload = _mined()
        store = GraphStore(tmp_path)
        _save_all(store, payload)
        (tmp_path / "graphs.seg").write_bytes(b"\xde\xad\xbe\xef" * 100)
        fresh = GraphStore(tmp_path)
        assert fresh.load(payload["log_fp"], payload["opts_fp"]) is None
        assert fresh.stats()["n_graphs"] == 0
        # a new save rotates the stomped file aside and starts clean
        fresh.save(payload["log_fp"], payload["opts_fp"], payload["graph"])
        assert fresh.load(payload["log_fp"], payload["opts_fp"]) is not None

    def test_pipeline_survives_corrupt_cache(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        cold = generate(SQL, options=options)
        (tmp_path / "graphs.seg").write_bytes(b"junk")
        warm = generate(SQL, options=options)  # re-mines, doesn't crash
        assert warm.interface.widget_summary() == cold.interface.widget_summary()
