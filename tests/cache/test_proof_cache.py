"""The third content-addressed table: persisted closure proofs."""

import json

import pytest

from repro import parse_sql
from repro.api import InterfaceSession, generate
from repro.cache.fingerprint import log_fingerprint, options_fingerprint
from repro.cache.serialize import (
    FORMAT_VERSION,
    proofs_from_dict,
    proofs_from_json_bytes,
    proofs_to_dict,
    proofs_to_json_bytes,
)
from repro.cache.store import GraphStore
from repro.core.closure import ClosureCache, expresses
from repro.core.options import PipelineOptions
from repro.errors import CacheError
from repro.paths import Path

STATEMENTS = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
]


@pytest.fixture
def mined():
    result = generate(STATEMENTS)
    return result.interface


def _proven_cache(interface):
    cache = ClosureCache()
    assert expresses(
        interface.widgets,
        interface.initial_query,
        parse_sql("SELECT a FROM t WHERE x = 2"),
        cache=cache,
    )
    assert len(cache) > 0
    return cache


class TestSerialisation:
    def test_round_trip_preserves_triples(self, mined):
        cache = _proven_cache(mined)
        triples = cache.export_proofs(mined.widgets)
        decoded = proofs_from_dict(proofs_to_dict(triples))
        assert len(decoded) == len(triples)
        for (c1, t1, b1), (c2, t2, b2) in zip(triples, decoded):
            assert c1.equals(c2) and t1.equals(t2) and b1 == b2

    def test_imported_proofs_rearm_a_fresh_cache(self, mined):
        cache = _proven_cache(mined)
        triples = proofs_from_dict(
            proofs_to_dict(cache.export_proofs(mined.widgets))
        )
        fresh = ClosureCache()
        adopted = fresh.import_proofs(mined.widgets, triples)
        assert adopted == len(cache)
        assert len(fresh) == len(cache)
        # and the armed cache answers without re-deriving the cover
        assert mined.expresses(
            parse_sql("SELECT a FROM t WHERE x = 2"), cache=fresh
        )

    def test_export_for_a_different_widget_set_is_empty(self, mined):
        cache = _proven_cache(mined)
        other = generate(["SELECT b FROM u WHERE y = 1",
                          "SELECT b FROM u WHERE y = 2"]).interface
        assert cache.export_proofs(other.widgets) == []

    def test_file_round_trip_and_version_check(self, mined):
        cache = _proven_cache(mined)
        data = proofs_to_json_bytes(cache.export_proofs(mined.widgets))
        assert proofs_from_json_bytes(data)
        payload = json.loads(data)
        payload["version"] = FORMAT_VERSION + 1
        with pytest.raises(CacheError):
            proofs_from_json_bytes(json.dumps(payload).encode())

    def test_malformed_payloads_raise(self):
        with pytest.raises(CacheError):
            proofs_from_json_bytes(b"{not json")
        bad = {"version": FORMAT_VERSION, "trees": [], "proofs": [{"c": 0}]}
        with pytest.raises(CacheError):
            proofs_from_json_bytes(json.dumps(bad).encode())

    def test_base_paths_survive(self, mined):
        cache = _proven_cache(mined)
        triples = cache.export_proofs(mined.widgets)
        for _c, _t, base in proofs_from_dict(proofs_to_dict(triples)):
            assert isinstance(base, Path)


class TestStoreTable:
    def _fps(self, options):
        queries = [parse_sql(s) for s in STATEMENTS]
        return log_fingerprint(queries), options_fingerprint(options)

    def test_save_requires_the_graph_entry(self, tmp_path, mined):
        """Proofs must never orphan: without the key's graph entry the
        save is refused."""
        store = GraphStore(tmp_path)
        options = PipelineOptions()
        log_fp, opts_fp = self._fps(options)
        cache = _proven_cache(mined)
        assert store.save_closure_proofs(log_fp, opts_fp, cache, mined.widgets) is None
        assert not store.record_has("proof_sets", store.key(log_fp, opts_fp))

    def test_round_trip_through_the_store(self, tmp_path, mined):
        options = PipelineOptions(cache_dir=str(tmp_path))
        result = generate(STATEMENTS, options=options)  # populates graph+widgets
        store = GraphStore(tmp_path)
        log_fp, opts_fp = self._fps(options)
        cache = _proven_cache(result.interface)
        assert store.save_closure_proofs(
            log_fp, opts_fp, cache, result.interface.widgets
        )
        loaded = store.load_closure_proofs(
            log_fp, opts_fp, result.interface.widgets
        )
        assert loaded is not None and len(loaded) == len(cache)

    def test_corrupt_proof_file_is_a_miss(self, tmp_path, mined):
        options = PipelineOptions(cache_dir=str(tmp_path))
        result = generate(STATEMENTS, options=options)
        store = GraphStore(tmp_path)
        log_fp, opts_fp = self._fps(options)
        cache = _proven_cache(result.interface)
        assert store.save_closure_proofs(
            log_fp, opts_fp, cache, result.interface.widgets
        )
        # one record corrupted; the rest of proofs.seg stays readable
        store.record_put("proof_sets", store.key(log_fp, opts_fp), b"garbage")
        assert store.load_closure_proofs(
            log_fp, opts_fp, result.interface.widgets
        ) is None

    def test_eviction_removes_proofs_with_their_key(self, tmp_path, mined):
        options = PipelineOptions(cache_dir=str(tmp_path))
        result = generate(STATEMENTS, options=options)
        store = GraphStore(tmp_path)
        log_fp, opts_fp = self._fps(options)
        cache = _proven_cache(result.interface)
        store.save_closure_proofs(log_fp, opts_fp, cache, result.interface.widgets)
        assert store.stats()["n_proof_sets"] == 1
        assert store.prune(max_entries=0) == 1
        assert not store.record_has("proof_sets", store.key(log_fp, opts_fp))
        assert store.keys() == []


class TestSessionAdoption:
    def test_proofs_survive_session_death(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        first = InterfaceSession(options=options)
        first.append_sql(STATEMENTS)
        assert first.expresses("SELECT a FROM t WHERE x = 3")
        first.flush_to_store()
        assert GraphStore(tmp_path).stats()["n_proof_sets"] == 1

        second = InterfaceSession(options=PipelineOptions(cache_dir=str(tmp_path)))
        second.append_sql(STATEMENTS)  # adopts the cached graph
        assert second.expresses("SELECT a FROM t WHERE x = 3")
        assert second._proofs_adopted > 0

    def test_adoption_probes_once_per_revision(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        session = InterfaceSession(options=options)
        session.append_sql(STATEMENTS)
        session.expresses("SELECT a FROM t WHERE x = 4")
        probed = session._proofs_probed
        session.expresses("SELECT a FROM t WHERE x = 4")
        assert session._proofs_probed == probed
        session.append_sql(["SELECT a FROM t WHERE x = 9"])
        session.expresses("SELECT a FROM t WHERE x = 4")
        assert session._proofs_probed != probed

    def test_no_store_means_no_probe(self):
        session = InterfaceSession()
        session.append_sql(STATEMENTS)
        session.expresses("SELECT a FROM t WHERE x = 3")
        assert session._proofs_probed is None
