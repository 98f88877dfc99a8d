"""Session persistence: save → resume across (simulated) processes."""

import pytest

from repro.api import InterfaceSession, generate
from repro.cache.serialize import load_graph
from repro.core.options import PipelineOptions
from repro.errors import CacheError, LogError
from repro.logs import SDSSLogGenerator
from tests.helpers import map_diffs


@pytest.fixture(scope="module")
def sdss_asts():
    return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 60).asts()


class TestSaveResume:
    def test_resume_restores_result_without_mining(self, sdss_asts, tmp_path):
        path = tmp_path / "session.jsonl"
        session = InterfaceSession()
        session.append(sdss_asts[:40])
        session.save(path)

        resumed = InterfaceSession.resume(path)
        assert len(resumed) == 40
        assert resumed.n_pairs_compared == session.n_pairs_compared
        assert resumed.result is not None
        assert dict(resumed.result.provenance)["resumed"] is True
        # the resume's mapping pass aligned zero pairs
        assert resumed.result.run.n_pairs_compared == 0
        assert (
            resumed.interface.widget_summary()
            == session.interface.widget_summary()
        )

    def test_resumed_session_appends_equal_one_shot(self, sdss_asts, tmp_path):
        """Acceptance: save → resume → append is result-equivalent to a
        one-shot generate over the whole log."""
        path = tmp_path / "session.jsonl"
        session = InterfaceSession()
        session.append(sdss_asts[:30])
        session.save(path)

        resumed = InterfaceSession.resume(path)
        result = resumed.append(sdss_asts[30:])
        full = generate(sdss_asts)
        assert result.interface.widget_summary() == full.interface.widget_summary()
        assert result.interface.cost == pytest.approx(full.interface.cost)
        # pair-count invariant survives the round trip
        assert resumed.n_pairs_compared == full.run.n_pairs_compared

    def test_snapshot_loads_as_bare_graph(self, sdss_asts, tmp_path):
        """The snapshot is an ordinary graph file: load_graph + mapping
        reproduces the session's widgets without an InterfaceSession."""
        path = tmp_path / "session.jsonl"
        session = InterfaceSession()
        session.append(sdss_asts[:40])
        session.save(path)
        graph, stats, extra = load_graph(path)
        assert graph.summary()["vertices"] == 40
        assert stats.n_pairs_compared == session.n_pairs_compared
        assert extra["session"]["n_appends"] == 1
        widgets = map_diffs(graph.diffs)
        assert [
            (w.widget_type.name, str(w.path)) for w in widgets
        ] == [
            (w.widget_type.name, str(w.path))
            for w in session.interface.widgets
        ]


class TestResumeValidation:
    def test_save_before_append_refused(self, tmp_path):
        with pytest.raises(LogError, match="before the first append"):
            InterfaceSession().save(tmp_path / "empty.jsonl")

    def test_options_mismatch_refused(self, sdss_asts, tmp_path):
        path = tmp_path / "session.jsonl"
        session = InterfaceSession(options=PipelineOptions(window=2))
        session.append(sdss_asts[:20])
        session.save(path)
        with pytest.raises(CacheError, match="different options"):
            InterfaceSession.resume(path, options=PipelineOptions(window=None))

    def test_matching_options_accepted(self, sdss_asts, tmp_path):
        path = tmp_path / "session.jsonl"
        session = InterfaceSession(options=PipelineOptions(window=3))
        session.append(sdss_asts[:20])
        session.save(path)
        resumed = InterfaceSession.resume(path, options=PipelineOptions(window=3))
        assert len(resumed) == 20

    def test_bare_graph_file_refused(self, sdss_asts, tmp_path):
        from repro.cache.serialize import save_graph
        from repro.graph.build import build_interaction_graph

        path = tmp_path / "bare.jsonl"
        save_graph(path, build_interaction_graph(sdss_asts[:10], window=2))
        with pytest.raises(CacheError, match="not a session snapshot"):
            InterfaceSession.resume(path)


class TestIncrementalMapping:
    def test_appends_reuse_untouched_partitions(self, sdss_asts):
        """Acceptance: append() re-solves only partitions whose diff lists
        changed; at least some partitions are reused on later appends."""
        session = InterfaceSession()
        first = session.append(sdss_asts[:30])
        map_stats = first.run.stage("map").stats
        assert map_stats["n_partitions_reused"] == 0
        assert map_stats["n_partitions_rebuilt"] == map_stats["n_partitions"]

        second = session.append(sdss_asts[30:])
        map_stats = second.run.stage("map").stats
        assert map_stats["n_partitions_reused"] > 0
        assert (
            map_stats["n_partitions_reused"] + map_stats["n_partitions_rebuilt"]
            == map_stats["n_partitions"]
        )

    def test_incremental_mapping_preserves_equivalence(self, sdss_asts):
        session = InterfaceSession()
        for start in range(0, 60, 12):
            result = session.append(sdss_asts[start:start + 12])
        full = generate(sdss_asts)
        assert result.interface.widget_summary() == full.interface.widget_summary()
