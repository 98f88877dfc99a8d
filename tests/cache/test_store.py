"""GraphStore hit/miss/invalidation and the CacheStage pipeline wiring."""

import pytest

from repro.api import InterfaceSession, generate
from repro.cache import GraphStore, log_fingerprint, options_fingerprint
from repro.core.options import PipelineOptions
from repro.graph.build import BuildStats, build_interaction_graph
from repro.logs import SDSSLogGenerator
from repro.sqlparser.parser import parse_sql

SQL = [
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE x = 5",
]


def _unfingerprintable():
    """A log whose attribute values are not JSON: it mines, but cannot be
    fingerprinted for a store key."""
    from repro.sqlparser.astnodes import Node

    return [
        Node("SelectStmt", {"cols": ("a", "b")}, []),
        Node("SelectStmt", {"cols": ("a", "c")}, []),
    ]


@pytest.fixture()
def asts():
    return [parse_sql(s) for s in SQL]


class TestFingerprints:
    def test_same_log_same_fingerprint(self, asts):
        assert log_fingerprint(asts) == log_fingerprint(
            [parse_sql(s) for s in SQL]
        )

    def test_query_order_matters(self, asts):
        assert log_fingerprint(asts) != log_fingerprint(list(reversed(asts)))

    def test_options_fingerprint_tracks_mining_knobs(self):
        base = options_fingerprint(PipelineOptions())
        assert options_fingerprint(PipelineOptions(window=None)) != base
        assert options_fingerprint(PipelineOptions(lca_pruning=False)) != base
        assert options_fingerprint(PipelineOptions(merge=False)) != base

    def test_cache_dir_does_not_affect_fingerprint(self, tmp_path):
        assert options_fingerprint(
            PipelineOptions(cache_dir=str(tmp_path))
        ) == options_fingerprint(PipelineOptions())

    def test_callable_instance_rules_fingerprint_stably(self):
        """Rules without __qualname__ must not fall back to repr (which
        embeds a per-process memory address)."""
        from repro.widgets.base import WidgetType
        from repro.widgets.cost import QuadraticCost

        class AlwaysAccept:
            def __call__(self, domain):
                return True

        def library():
            return [
                WidgetType(
                    name="custom", rule=AlwaysAccept(), cost=QuadraticCost(1.0)
                )
            ]

        first = options_fingerprint(PipelineOptions(library=library()))
        second = options_fingerprint(PipelineOptions(library=library()))
        assert first == second


class TestGraphStore:
    def test_miss_then_hit(self, asts, tmp_path):
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(asts)
        opts_fp = options_fingerprint(PipelineOptions())
        assert store.load(log_fp, opts_fp) is None
        stats = BuildStats()
        graph = build_interaction_graph(asts, window=2, stats=stats)
        store.save(log_fp, opts_fp, graph, stats)
        cached = store.load(log_fp, opts_fp)
        assert cached is not None
        loaded, loaded_stats = cached
        assert loaded.summary() == graph.summary()
        assert loaded_stats.n_pairs_compared == stats.n_pairs_compared

    def test_corrupt_entry_is_a_miss(self, asts, tmp_path):
        store = GraphStore(tmp_path)
        log_fp = log_fingerprint(asts)
        opts_fp = options_fingerprint(PipelineOptions())
        store.save(log_fp, opts_fp, build_interaction_graph(asts, window=2))
        store.record_put("graphs", store.key(log_fp, opts_fp), b"garbage\n")
        assert store.load(log_fp, opts_fp) is None

    def test_invalidate_by_log_and_options(self, asts, tmp_path):
        store = GraphStore(tmp_path)
        graph = build_interaction_graph(asts, window=2)
        log_fp = log_fingerprint(asts)
        fp_a = options_fingerprint(PipelineOptions())
        fp_b = options_fingerprint(PipelineOptions(window=None))
        store.save(log_fp, fp_a, graph)
        store.save(log_fp, fp_b, graph)
        assert len(store) == 2
        assert store.invalidate(options_fingerprint=fp_a) == 1
        assert store.load(log_fp, fp_a) is None
        assert store.load(log_fp, fp_b) is not None
        assert store.invalidate(log_fingerprint=log_fp) == 1
        assert len(store) == 0

    def test_clear(self, asts, tmp_path):
        store = GraphStore(tmp_path)
        store.save(
            log_fingerprint(asts),
            options_fingerprint(PipelineOptions()),
            build_interaction_graph(asts, window=2),
        )
        assert store.clear() == 1
        assert len(store) == 0


class TestCacheStagePipeline:
    def test_second_generate_skips_mine(self, tmp_path):
        """Acceptance: with cache_dir set, the second generate() over the
        same log hits the cache and the Mine stage reports skipped."""
        options = PipelineOptions(cache_dir=str(tmp_path))
        first = generate(SQL, options=options)
        second = generate(SQL, options=options)
        assert first.run.stage("cache").stats["hit"] is False
        assert first.run.stage("mine").stats["n_pairs_compared"] > 0
        assert second.run.stage("cache").stats["hit"] is True
        assert second.run.stage("mine").stats["skipped"] is True
        assert second.run.n_pairs_compared == 0
        assert second.interface.widget_summary() == first.interface.widget_summary()
        assert second.interface.cost == pytest.approx(first.interface.cost)

    def test_no_cache_dir_means_no_cache_stage(self):
        result = generate(SQL)
        assert result.run.stage("cache") is None
        assert [r.name for r in result.run.stages] == [
            "parse", "mine", "map", "merge",
        ]

    def test_options_change_misses(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        generate(SQL, options=options)
        other = generate(
            SQL, options=PipelineOptions(cache_dir=str(tmp_path), window=None)
        )
        assert other.run.stage("cache").stats["hit"] is False
        assert other.run.stage("mine").stats["n_pairs_compared"] > 0

    def test_unfingerprintable_log_fails_open(self, tmp_path):
        """Exotic attribute values that cannot be JSON-fingerprinted must
        disable caching for the run, not crash it."""
        weird = _unfingerprintable()
        options = PipelineOptions(cache_dir=str(tmp_path))
        result = generate(weird, options=options)
        stats = result.run.stage("cache").stats
        assert stats["hit"] is False
        assert "error" in stats
        assert result.run.stage("mine").stats["n_pairs_compared"] > 0

    def test_log_change_misses(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        generate(SQL, options=options)
        changed = generate(SQL + ["SELECT a FROM t WHERE x = 9"], options=options)
        assert changed.run.stage("cache").stats["hit"] is False

    def test_cached_result_equivalent_on_larger_log(self, tmp_path):
        asts = SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 50).asts()
        options = PipelineOptions(cache_dir=str(tmp_path))
        plain = generate(asts)
        warm = generate(asts, options=options)
        cached = generate(asts, options=options)
        assert cached.run.stage("mine").stats["skipped"] is True
        assert cached.interface.widget_summary() == plain.interface.widget_summary()
        assert warm.interface.widget_summary() == plain.interface.widget_summary()


class TestSessionStoreSharing:
    def test_session_first_append_adopts_generate_cache(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path))
        one_shot = generate(SQL, options=options)
        session = InterfaceSession(options=PipelineOptions(cache_dir=str(tmp_path)))
        result = session.append_sql(SQL)
        assert result.run.stage("cache").stats["hit"] is True
        assert result.run.n_pairs_compared == 0
        # totals still reflect the alignments the store's producer paid for
        assert session.n_pairs_compared == one_shot.run.n_pairs_compared
        assert result.interface.widget_summary() == one_shot.interface.widget_summary()

    def test_session_flush_populates_store_for_generate(self, tmp_path):
        session = InterfaceSession(options=PipelineOptions(cache_dir=str(tmp_path)))
        session.append_sql(SQL[:2])
        session.append_sql(SQL[2:])
        session.flush_to_store()
        later = generate(SQL, options=PipelineOptions(cache_dir=str(tmp_path)))
        assert later.run.stage("cache").stats["hit"] is True
        assert later.interface.widget_summary() == session.interface.widget_summary()

    def test_flush_is_explicit_and_validated(self, tmp_path):
        from repro.errors import LogError

        session = InterfaceSession(options=PipelineOptions(cache_dir=str(tmp_path)))
        with pytest.raises(LogError, match="before the first append"):
            session.flush_to_store()
        session.append_sql(SQL)
        # appends alone do not write the store
        assert generate(
            SQL, options=PipelineOptions(cache_dir=str(tmp_path))
        ).run.stage("cache").stats["hit"] is False
        # no cache_dir -> flush is a silent no-op
        InterfaceSession().flush_to_store()


class TestUnfingerprintableSessions:
    """A session fingerprints only when it has a store, and fails open the
    way the cache stage does: the log mines, and stays uncached."""

    def test_session_without_a_store(self):
        weird = _unfingerprintable()
        session = InterfaceSession()
        result = session.append(weird)
        assert result.run.n_pairs_compared > 0
        assert session.append(weird[:1]).interface.widget_summary()
        session.flush_to_store()  # no store: a no-op

    def test_session_with_a_store(self, tmp_path):
        weird = _unfingerprintable()
        session = InterfaceSession(options=PipelineOptions(cache_dir=str(tmp_path)))
        first = session.append(weird)
        cache = first.run.stage("cache").stats
        assert cache["hit"] is False and "error" in cache
        second = session.append(weird[:1])
        assert second.run.stage("cache").stats["hit"] is False
        session.flush_to_store()  # uncached: nothing to write
        assert len(GraphStore(tmp_path)) == 0

    def test_session_pool(self, tmp_path):
        from repro.service import SessionPool

        weird = _unfingerprintable()
        options = PipelineOptions(cache_dir=str(tmp_path))
        with SessionPool(options=options, pool_size=1) as pool:
            pool.submit("weird", weird)
            pool.submit("weird", weird[:1])
            results = pool.drain()
            assert pool.flush_errors() == []
        assert results["weird"].interface.n_widgets > 0
        assert len(GraphStore(tmp_path)) == 0
