"""Widget-set cache: serialisation round-trips, the store's second table,
full-hit pipeline wiring, invalidation, and LRU eviction."""

import time

import pytest

from repro.api import PipelineObserver, generate
from repro.cache import (
    GraphStore,
    log_fingerprint,
    options_fingerprint,
    widgets_from_dict,
    widgets_to_dict,
)
from repro.cache.serialize import widgets_from_json_bytes, widgets_to_json_bytes
from repro.core.options import PipelineOptions
from repro.errors import CacheError
from repro.graph.build import build_interaction_graph
from repro.logs import SDSSLogGenerator
from repro.sqlparser.parser import parse_sql
from tests.helpers import map_diffs

SQL = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
]


def summary(widgets):
    return [(w.widget_type.name, str(w.path), w.domain.size) for w in widgets]


@pytest.fixture()
def mined():
    asts = SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 40).asts()
    graph = build_interaction_graph(asts, window=2)
    options = PipelineOptions()
    widgets = map_diffs(graph.diffs, options)
    return asts, graph, options, widgets


class TestSerialisation:
    def test_round_trip_preserves_widgets_and_identity(self, mined):
        _asts, graph, options, widgets = mined
        data = widgets_to_json_bytes(widgets, graph)
        loaded = widgets_from_json_bytes(
            data, graph, options.library, options.annotations
        )
        assert summary(loaded) == summary(widgets)
        # decoded widgets share diff-object identity with the graph — the
        # contract the merge phase and the session rely on
        table_ids = {id(d) for d in graph.diffs}
        assert all(id(d) in table_ids for w in loaded for d in w.D)

    def test_foreign_diff_rejected(self, mined):
        _asts, graph, _options, widgets = mined
        other = build_interaction_graph(
            [parse_sql(s) for s in SQL], window=2
        )
        with pytest.raises(CacheError, match="not in the graph's diffs table"):
            widgets_to_dict(widgets, other)

    def test_version_mismatch_rejected(self, mined):
        _asts, graph, options, widgets = mined
        payload = widgets_to_dict(widgets, graph)
        payload["version"] = 999
        with pytest.raises(CacheError, match="version"):
            widgets_from_dict(payload, graph, options.library, options.annotations)

    def test_out_of_range_reference_rejected(self, mined):
        _asts, graph, options, _widgets = mined
        payload = {
            "version": 1,
            "widgets": [{"type": "dropdown", "diffs": [len(graph.diffs) + 5]}],
        }
        with pytest.raises(CacheError, match="out of range"):
            widgets_from_dict(payload, graph, options.library, options.annotations)

    def test_stale_type_name_rejected(self, mined):
        """A payload recorded under a different library must not be
        half-trusted: re-picking a different type is a refusal."""
        _asts, graph, options, widgets = mined
        payload = widgets_to_dict(widgets, graph)
        payload["widgets"][0]["type"] = "definitely-not-a-widget"
        with pytest.raises(CacheError, match="expected type"):
            widgets_from_dict(payload, graph, options.library, options.annotations)


class TestStoreWidgetTable:
    def test_hit_miss_round_trip(self, mined, tmp_path):
        asts, graph, options, widgets = mined
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(asts)
        opts_fp = options_fingerprint(options)
        store.save(log_fp, opts_fp, graph)
        lib, ann = options.library, options.annotations
        assert store.load_widget_set(log_fp, opts_fp, graph, lib, ann) is None
        store.save_widget_set(log_fp, opts_fp, widgets, graph)
        loaded_graph, _ = store.load(log_fp, opts_fp)
        loaded = store.load_widget_set(log_fp, opts_fp, loaded_graph, lib, ann)
        assert loaded is not None
        assert summary(loaded) == summary(widgets)

    def test_corrupt_widget_entry_is_a_miss(self, mined, tmp_path):
        asts, graph, options, widgets = mined
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(asts)
        opts_fp = options_fingerprint(options)
        store.save_widget_set(log_fp, opts_fp, widgets, graph)
        store.record_put("widget_sets", store.key(log_fp, opts_fp), b"garbage\n")
        assert (
            store.load_widget_set(
                log_fp, opts_fp, graph, options.library, options.annotations
            )
            is None
        )

    def test_invalidate_removes_both_tables(self, mined, tmp_path):
        asts, graph, options, widgets = mined
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(asts)
        opts_fp = options_fingerprint(options)
        store.save(log_fp, opts_fp, graph)
        store.save_widget_set(log_fp, opts_fp, widgets, graph)
        assert store.stats()["n_widget_sets"] == 1
        assert store.invalidate(log_fingerprint=log_fp) == 1
        stats = store.stats()
        assert stats["n_graphs"] == stats["n_widget_sets"] == 0
        assert not store.record_has("widget_sets", store.key(log_fp, opts_fp))


class TestFullHitPipeline:
    def test_full_hit_skips_mine_map_and_merge(self, tmp_path):
        """Acceptance: a full cache hit (graph + widget set) skips all
        three compute stages and does no pairwise diffing."""
        options = PipelineOptions(cache_dir=str(tmp_path))
        cold = generate(SQL, options=options)
        warm = generate(SQL, options=options)
        assert cold.run.stage("cache").stats["hit"] is False
        assert warm.run.stage("cache").stats["hit"] is True
        assert warm.run.stage("cache").stats["widgets_hit"] is True
        for stage in ("mine", "map", "merge"):
            assert warm.run.stage(stage).stats["skipped"] is True, stage
        assert warm.run.n_pairs_compared == 0
        assert warm.interface.widget_summary() == cold.interface.widget_summary()
        assert warm.interface.cost == pytest.approx(cold.interface.cost)

    def test_graph_hit_without_widgets_still_maps(self, tmp_path):
        """A graph-only hit (e.g. the widget entry was pruned) degrades
        gracefully: mine skips, map+merge run and repopulate the table."""
        options = PipelineOptions(cache_dir=str(tmp_path))
        cold = generate(SQL, options=options)
        store = GraphStore(tmp_path)
        # drop only the widget-set table, keep the graphs
        store.invalidate_table("widget_sets")
        half_warm = generate(SQL, options=options)
        assert half_warm.run.stage("cache").stats["widgets_hit"] is False
        assert half_warm.run.stage("mine").stats["skipped"] is True
        assert "skipped" not in half_warm.run.stage("map").stats
        assert "skipped" not in half_warm.run.stage("merge").stats
        assert (
            half_warm.interface.widget_summary()
            == cold.interface.widget_summary()
        )
        # ... and the third run full-hits again
        full_warm = generate(SQL, options=options)
        assert full_warm.run.stage("merge").stats["skipped"] is True

    def test_graph_resent_with_the_widgets_keeps_its_stats(self, tmp_path):
        """A graph-hit run whose graph record is evicted before it saves
        the widget set resends the graph: byte for byte the record the
        cold run wrote, build stats included."""
        log = SDSSLogGenerator(1).full_log(30, n_clients=4).statements()
        options = PipelineOptions(cache_dir=str(tmp_path))
        generate(log, options=options)
        store = GraphStore(tmp_path)
        (key,) = store.keys()
        original = store.record_get("graphs", key)
        store.invalidate_table("widget_sets")

        class EvictAfterMerge(PipelineObserver):
            def on_stage_end(self, stage, state, report):
                if stage.name == "merge":
                    assert GraphStore(tmp_path).invalidate() == 1

        half_warm = generate(log, options=options, observers=[EvictAfterMerge()])
        assert half_warm.run.stage("mine").stats["skipped"] is True
        assert GraphStore(tmp_path).record_get("graphs", key) == original
        assert b'"n_pairs_compared": 29' in original

    def test_corrupt_widget_file_degrades_to_graph_hit(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        cold = generate(SQL, options=options)
        # stomp the whole widget-set segment with garbage
        (tmp_path / "widgets.seg").write_bytes(b"\x00garbage" * 64)
        warm = generate(SQL, options=options)
        assert warm.run.stage("cache").stats["widgets_hit"] is False
        assert warm.interface.widget_summary() == cold.interface.widget_summary()


class TestEviction:
    def _fill(self, store, n, base=0):
        fps = []
        for i in range(n):
            asts = [
                parse_sql(f"SELECT a FROM t WHERE x = {base + i}"),
                parse_sql(f"SELECT a FROM t WHERE x = {base + i + 1000}"),
            ]
            graph = build_interaction_graph(asts, window=2)
            fps.append((log_fingerprint(asts), options_fingerprint(PipelineOptions())))
            store.save(*fps[-1], graph)
            time.sleep(0.01)  # strictly increasing record timestamps
        return fps

    def test_max_entries_evicts_lru(self, tmp_path):
        store = GraphStore(tmp_path, max_entries=3)
        fps = self._fill(store, 3)
        assert len(store) == 3
        # touch the oldest key by loading it; the next save persists it
        assert store.load(*fps[0]) is not None
        time.sleep(0.01)
        self._fill(store, 1, base=500)  # 4th key triggers eviction
        assert len(store) == 3
        assert store.has(*fps[0])  # recently-used key survived
        assert not store.has(*fps[1])  # LRU key evicted

    def test_max_bytes_evicts_until_under_cap(self, tmp_path):
        store = GraphStore(tmp_path)
        self._fill(store, 4)
        # densest layout first: otherwise compaction alone can satisfy
        # the halved cap and nothing needs evicting
        store.compact()
        total = store.stats()["total_bytes"]
        capped = GraphStore(tmp_path, max_bytes=total // 2)
        removed = capped.prune()
        assert removed >= 1
        assert capped.stats()["total_bytes"] <= total // 2

    def test_load_touches_recency(self, tmp_path):
        store = GraphStore(tmp_path)
        first, second = self._fill(store, 2)
        assert store.load(*first) is not None
        store.flush_recency()
        # a fresh handle sees the touch: the older key is now the newer
        assert GraphStore(tmp_path).prune(max_entries=1) == 1
        assert store.has(*first)
        assert not store.has(*second)

    def test_prune_without_caps_is_noop(self, tmp_path):
        store = GraphStore(tmp_path)
        self._fill(store, 2)
        assert store.prune() == 0
        assert len(store) == 2

    def test_bad_caps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            GraphStore(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError):
            GraphStore(tmp_path, max_entries=-5)

    def test_negative_prune_caps_rejected(self, tmp_path):
        store = GraphStore(tmp_path)
        self._fill(store, 1)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)
        assert len(store) == 1  # nothing evicted
