"""The store's fourth table: persisted diff memos.

Covers the serialisation round trip, the store's skip-if-no-graph and
per-key eviction guarantees, ``stats()``'s per-table accounting, and the
session-level inherit/flush wiring.
"""

import json

import pytest

from repro import parse_sql
from repro.api import InterfaceSession, generate
from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.serialize import (
    diff_memo_from_dict,
    diff_memo_from_json_bytes,
    diff_memo_to_dict,
    diff_memo_to_json_bytes,
)
from repro.cache.store import GraphStore
from repro.core.options import PipelineOptions
from repro.errors import CacheError
from repro.graph.build import build_interaction_graph
from repro.treediff import DiffMemo, extract_diffs
from repro.treediff.diff import diff_signature

STATEMENTS = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
    "SELECT a FROM t WHERE x = 9",
]


def _mined():
    queries = [parse_sql(s) for s in STATEMENTS]
    memo = DiffMemo()
    graph = build_interaction_graph(queries, window=2, memo=memo)
    return queries, graph, memo


class TestSerialisation:
    def test_round_trip_preserves_plans(self):
        _queries, _graph, memo = _mined()
        payload = diff_memo_to_dict(memo.export_pairs())
        pairs = diff_memo_from_dict(payload)
        restored = DiffMemo()
        assert restored.import_pairs(pairs) == memo.n_plans
        assert restored.n_plans == memo.n_plans

    def test_file_round_trip(self):
        _queries, _graph, memo = _mined()
        data = diff_memo_to_json_bytes(memo.export_pairs())
        assert len(diff_memo_from_json_bytes(data)) == memo.n_plans

    def test_version_mismatch_refused(self):
        _queries, _graph, memo = _mined()
        payload = json.loads(diff_memo_to_json_bytes(memo.export_pairs()))
        payload["version"] = 999
        with pytest.raises(CacheError):
            diff_memo_from_json_bytes(json.dumps(payload).encode())

    def test_malformed_payload_refused(self):
        with pytest.raises(CacheError):
            diff_memo_from_dict({"version": 1, "trees": [], "pairs": [{"a": 0}]})


class TestStoreTable:
    def test_save_needs_graph_entry(self, tmp_path):
        queries, graph, memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        # no graph entry yet: the save is skipped, never orphaning
        assert store.save_diff_memo(log_fp, opts_fp, memo) is None
        assert store.load_diff_memo_pairs(log_fp, opts_fp) is None
        store.save(log_fp, opts_fp, graph)
        assert store.save_diff_memo(log_fp, opts_fp, memo) is not None
        assert len(store.load_diff_memo_pairs(log_fp, opts_fp)) == memo.n_plans

    def test_empty_memo_not_persisted(self, tmp_path):
        queries, graph, _memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, graph)
        assert store.save_diff_memo(log_fp, opts_fp, DiffMemo()) is None

    def test_loaded_memo_replays(self, tmp_path):
        queries, graph, memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, graph)
        store.save_diff_memo(log_fp, opts_fp, memo)
        warmed = store.load_diff_memo(log_fp, opts_fp)
        assert warmed is not None and warmed.n_plans == memo.n_plans
        a, b = queries[0], queries[1]
        direct = extract_diffs(a, b)
        replayed = warmed.extract(a, b)
        assert [diff_signature(d) for d in direct] == [
            diff_signature(d) for d in replayed
        ]
        assert warmed.n_replayed == 1 and warmed.n_full == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        queries, graph, memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, graph)
        store.save_diff_memo(log_fp, opts_fp, memo)
        store.record_put("diff_memos", store.key(log_fp, opts_fp), b"{not json")
        assert store.load_diff_memo_pairs(log_fp, opts_fp) is None

    def test_eviction_takes_the_memo_with_the_key(self, tmp_path):
        queries, graph, memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, graph)
        store.save_diff_memo(log_fp, opts_fp, memo)
        assert store.prune(max_entries=0) == 1
        assert not store.record_has("diff_memos", store.key(log_fp, opts_fp))
        assert store.load_diff_memo_pairs(log_fp, opts_fp) is None

    def test_stats_count_table_and_bytes(self, tmp_path):
        queries, graph, memo = _mined()
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(queries)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, graph)
        store.save_diff_memo(log_fp, opts_fp, memo)
        stats = store.stats()
        assert stats["n_diff_memos"] == 1
        assert stats["bytes_by_table"]["diff_memos"] > 0
        assert stats["bytes_by_table"]["graphs"] > 0
        assert stats["bytes_by_table"]["widget_sets"] == 0
        assert sum(stats["bytes_by_table"].values()) == stats["total_bytes"]


class TestSessionInheritance:
    def test_flush_publishes_and_new_session_inherits(self, tmp_path):
        options = PipelineOptions(window=2, cache_dir=str(tmp_path))
        first = InterfaceSession(options=options)
        first.append_sql(STATEMENTS)
        first.flush_to_store()
        assert GraphStore(tmp_path).stats()["n_diff_memos"] == 1

        second = InterfaceSession(options=options)
        second.append_sql(STATEMENTS)  # adopts graph + memo
        assert second._diff_memo.n_warmed > 0
        # a *new* pair of a known template shape replays, zero DP work
        result = second.append_sql(["SELECT a FROM t WHERE x = 77"])
        assert result.run.stage("mine").stats["n_alignments_memoised"] > 0
        assert result.run.stage("mine").stats["n_alignments_full"] == 0

    def test_resume_inherits_store_memo(self, tmp_path):
        options = PipelineOptions(window=2, cache_dir=str(tmp_path / "store"))
        session = InterfaceSession(options=options)
        session.append_sql(STATEMENTS)
        session.flush_to_store()
        snapshot = tmp_path / "session.jsonl"
        session.save(snapshot)

        resumed = InterfaceSession.resume(snapshot, options=options)
        assert resumed._diff_memo.n_warmed > 0
        result = resumed.append_sql(["SELECT a FROM t WHERE x = 42"])
        assert result.run.stage("mine").stats["n_alignments_full"] == 0

    def test_one_shot_generate_persists_memo(self, tmp_path):
        options = PipelineOptions(window=2, cache_dir=str(tmp_path))
        generate(STATEMENTS, options=options)
        stats = GraphStore(tmp_path).stats()
        assert stats["n_diff_memos"] == 1
