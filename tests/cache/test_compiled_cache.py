"""The store's fifth table: persisted compiled pages.

Covers the serialisation round trip, the store's skip-if-no-graph and
per-key eviction guarantees (each also observed through the legacy JSON
layout: exported, then imported into a fresh store), byte parity with
that layout and through the daemon, ``stats()``'s per-table accounting,
and the session-level adopt/flush wiring.
"""

import json
import shutil
import tempfile

import pytest

from repro import parse_sql
from repro.api import InterfaceSession
from repro.cache.blockstore import SegmentReader
from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.serialize import (
    compiled_page_from_dict,
    compiled_page_from_json_bytes,
    compiled_page_to_dict,
    compiled_page_to_json_bytes,
)
from repro.cache.store import GraphStore
from repro.compiler.incremental import IncrementalCompiler
from repro.core.options import PipelineOptions
from repro.errors import CacheError
from repro.graph.build import build_interaction_graph
from repro.service import running_daemon
from tests.helpers import generate_iface

STATEMENTS = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
    "SELECT a FROM t WHERE x = 9",
]


@pytest.fixture
def sock_path():
    workdir = tempfile.mkdtemp(prefix="repro-sock-", dir="/tmp")
    yield f"{workdir}/d.sock"
    shutil.rmtree(workdir, ignore_errors=True)


def _payload():
    """Graph + compiled page state for one key."""
    queries = [parse_sql(s) for s in STATEMENTS]
    graph = build_interaction_graph(queries, window=2)
    page = IncrementalCompiler(limit=32).compile(generate_iface(STATEMENTS))
    return {
        "log_fp": log_fingerprint(queries),
        "opts_fp": options_fingerprint(PipelineOptions()),
        "graph": graph,
        "state": page.to_state(),
    }


def _observed(store, fmt, tmp_path):
    """The store as ``fmt`` observes it: itself (``packed``), or a fresh
    store imported from its JSON export (``json``)."""
    if fmt == "packed":
        return store
    dest = tmp_path / f"exported-{len(list(tmp_path.iterdir()))}"
    store.export_json(dest)
    imported = GraphStore(dest)
    imported.import_json()
    return imported


class TestSerialisation:
    def test_dict_round_trip(self):
        state = _payload()["state"]
        assert compiled_page_from_dict(compiled_page_to_dict(state)) == state

    def test_file_round_trip(self):
        state = _payload()["state"]
        data = compiled_page_to_json_bytes(state)
        assert compiled_page_from_json_bytes(data) == state

    def test_version_mismatch_refused(self):
        state = _payload()["state"]
        payload = json.loads(compiled_page_to_json_bytes(state))
        payload["version"] = 999
        with pytest.raises(CacheError):
            compiled_page_from_json_bytes(json.dumps(payload).encode())

    def test_malformed_payload_refused(self):
        with pytest.raises(CacheError):
            compiled_page_from_dict({"version": 1, "page": []})


@pytest.mark.parametrize("fmt", ["packed", "json"])
class TestStoreTable:
    def test_save_needs_graph_entry(self, tmp_path, fmt):
        p = _payload()
        store = GraphStore(tmp_path / "store")
        # no graph entry yet: the save is skipped, never orphaning
        assert store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"]) is None
        observed = _observed(store, fmt, tmp_path)
        assert observed.load_compiled_page(p["log_fp"], p["opts_fp"]) is None
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        assert (
            store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
            is not None
        )
        observed = _observed(store, fmt, tmp_path)
        assert observed.load_compiled_page(p["log_fp"], p["opts_fp"]) == p["state"]

    def test_eviction_takes_the_page_with_the_key(self, tmp_path, fmt):
        p = _payload()
        store = GraphStore(tmp_path / "store")
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        assert store.prune(max_entries=0) == 1
        observed = _observed(store, fmt, tmp_path)
        assert observed.stats()["n_compiled"] == 0
        assert observed.load_compiled_page(p["log_fp"], p["opts_fp"]) is None

    def test_invalidate_table_drops_only_compiled(self, tmp_path, fmt):
        p = _payload()
        store = GraphStore(tmp_path / "store")
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        assert store.invalidate_table("compiled") == 1
        observed = _observed(store, fmt, tmp_path)
        assert observed.load_compiled_page(p["log_fp"], p["opts_fp"]) is None
        assert observed.has(p["log_fp"], p["opts_fp"])  # the graph survives

    def test_stats_count_table_and_bytes(self, tmp_path, fmt):
        p = _payload()
        store = GraphStore(tmp_path / "store")
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        stats = _observed(store, fmt, tmp_path).stats()
        assert stats["n_compiled"] == 1
        assert stats["bytes_by_table"]["compiled"] > 0
        assert sum(stats["bytes_by_table"].values()) == stats["total_bytes"]


class TestLayoutParity:
    def test_corrupt_json_entry_is_a_miss(self, tmp_path):
        p = _payload()
        store = GraphStore(tmp_path)
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        key = store.key(p["log_fp"], p["opts_fp"])
        store.record_put("compiled", key, b"{not json")
        assert store.load_compiled_page(p["log_fp"], p["opts_fp"]) is None

    def test_packed_record_is_the_json_file_byte_for_byte(self, tmp_path):
        p = _payload()
        packed = GraphStore(tmp_path / "packed")
        packed.save(p["log_fp"], p["opts_fp"], p["graph"])
        packed.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        packed.export_json(tmp_path / "json")
        key = packed.key(p["log_fp"], p["opts_fp"])
        record = SegmentReader(tmp_path / "packed" / "compiled.seg").get(key)
        file_bytes = (tmp_path / "json" / f"{key}.compiled.json").read_bytes()
        assert record == file_bytes == compiled_page_to_json_bytes(p["state"])

    def test_migration_round_trip_is_byte_exact(self, tmp_path):
        p = _payload()
        store = GraphStore(tmp_path / "store")
        store.save(p["log_fp"], p["opts_fp"], p["graph"])
        store.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        key = store.key(p["log_fp"], p["opts_fp"])
        original = SegmentReader(tmp_path / "store" / "compiled.seg").get(key)

        assert store.export_json(tmp_path / "json")["exported_keys"] == 1
        imported = GraphStore(tmp_path / "json")
        assert imported.import_json()["imported_keys"] == 1
        assert SegmentReader(tmp_path / "json" / "compiled.seg").get(key) == original
        assert imported.load_compiled_page(p["log_fp"], p["opts_fp"]) == p["state"]


class TestDaemonTable:
    def test_round_trip_and_byte_parity_through_the_daemon(
        self, tmp_path, sock_path
    ):
        p = _payload()
        local = GraphStore(tmp_path / "local")
        local.save(p["log_fp"], p["opts_fp"], p["graph"])
        local.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
        with running_daemon(tmp_path / "served", sock_path):
            remote = GraphStore(tmp_path / "unused", remote=sock_path)
            remote.save(p["log_fp"], p["opts_fp"], p["graph"])
            remote.save_compiled_page(p["log_fp"], p["opts_fp"], p["state"])
            assert remote.load_compiled_page(p["log_fp"], p["opts_fp"]) == p["state"]
            assert remote.stats()["n_compiled"] == 1
        key = local.key(p["log_fp"], p["opts_fp"])
        assert (
            SegmentReader(tmp_path / "served" / "compiled.seg").get(key)
            == SegmentReader(tmp_path / "local" / "compiled.seg").get(key)
        )


class TestSessionInheritance:
    def test_flush_publishes_and_new_session_adopts(self, tmp_path):
        options = PipelineOptions(window=2, cache_dir=str(tmp_path))
        first = InterfaceSession(options=options)
        first.append_sql(STATEMENTS)
        page = first.compile(limit=32)
        first.flush_to_store()
        assert GraphStore(tmp_path).stats()["n_compiled"] == 1

        second = InterfaceSession(options=options)
        second.append_sql(STATEMENTS)
        assert second.compile(limit=32) == page
        stats = second._compiler.stats
        # every combination replayed from the persisted page's slices
        assert stats.combos_replayed > 0
        assert stats.combos_rendered == 0

    def test_flush_without_compile_skips_the_table(self, tmp_path):
        options = PipelineOptions(window=2, cache_dir=str(tmp_path))
        session = InterfaceSession(options=options)
        session.append_sql(STATEMENTS)
        session.flush_to_store()
        assert GraphStore(tmp_path).stats()["n_compiled"] == 0
