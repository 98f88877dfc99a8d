"""Incremental sessions and batch generation semantics."""

import pytest

from repro.api import InterfaceSession, generate, generate_many, generate_segmented
from repro.core.options import PipelineOptions
from repro.errors import LogError
from repro.logs import LISTING_6, SDSSLogGenerator, listing_4_log


@pytest.fixture(scope="module")
def sdss_asts():
    return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 60).asts()


def _chunks(items, k):
    """Split into k contiguous increments (sizes as equal as possible)."""
    size, rem = divmod(len(items), k)
    out, start = [], 0
    for i in range(k):
        stop = start + size + (1 if i < rem else 0)
        out.append(items[start:stop])
        start = stop
    return out


class TestInterfaceSession:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_incremental_equals_one_shot(self, sdss_asts, k):
        """Acceptance: a log split into k increments yields the same widget
        set as one-shot generate() on the full log."""
        full = generate(sdss_asts)
        session = InterfaceSession()
        for chunk in _chunks(sdss_asts, k):
            result = session.append(chunk)
        assert result.interface.widget_summary() == full.interface.widget_summary()
        assert result.interface.cost == pytest.approx(full.interface.cost)

    @pytest.mark.parametrize("window", [2, 5, None])
    def test_incremental_equals_one_shot_across_windows(self, sdss_asts, window):
        options = PipelineOptions(window=window)
        full = generate(sdss_asts, options=options)
        session = InterfaceSession(options=options)
        for chunk in _chunks(sdss_asts, 3):
            result = session.append(chunk)
        assert result.interface.widget_summary() == full.interface.widget_summary()

    def test_append_never_rediffs_compared_pairs(self, sdss_asts):
        """Acceptance: per-append n_pairs_compared covers only new pairs and
        the counts sum to the one-shot total."""
        full = generate(sdss_asts)
        session = InterfaceSession()
        per_append = []
        for chunk in _chunks(sdss_asts, 3):
            result = session.append(chunk)
            per_append.append(result.run.n_pairs_compared)
        assert sum(per_append) == full.run.n_pairs_compared
        assert session.n_pairs_compared == full.run.n_pairs_compared
        # each later append re-diffed nothing: strictly fewer alignments
        # than a from-scratch build over the queries seen so far
        assert per_append[1] < full.run.n_pairs_compared
        assert per_append[2] < full.run.n_pairs_compared

    def test_append_sql_parses(self):
        session = InterfaceSession()
        result = session.append_sql(list(LISTING_6))
        assert result.interface.n_widgets == 2
        assert session.interface is result.interface

    def test_result_provenance_marks_incremental(self, sdss_asts):
        session = InterfaceSession()
        session.append(sdss_asts[:5])
        result = session.append(sdss_asts[5:10])
        assert result.provenance["incremental"] is True
        assert result.provenance["n_appends"] == 2
        assert (
            result.provenance["n_pairs_compared_total"]
            == session.n_pairs_compared
        )

    def test_observers_see_real_mining_stats(self, sdss_asts):
        """The run handed to on_pipeline_end must match the returned
        result's run, including the append's mine report."""
        from repro.api import PipelineObserver

        runs = []

        class Collector(PipelineObserver):
            def on_pipeline_end(self, pipeline, state, run):
                runs.append(run)

        session = InterfaceSession(observers=[Collector()])
        session.append(sdss_asts[:5])
        result = session.append(sdss_asts[5:10])
        assert runs[-1].n_pairs_compared == result.run.n_pairs_compared > 0
        assert runs[-1].mining_seconds == result.run.mining_seconds > 0
        assert runs[-1].stage("mine") is not None

    def test_session_state_introspection(self, sdss_asts):
        session = InterfaceSession()
        assert len(session) == 0 and session.result is None
        session.append(sdss_asts[:4])
        assert len(session) == 4
        assert len(session.queries) == 4

    def test_empty_append_rejected(self):
        session = InterfaceSession()
        with pytest.raises(LogError):
            session.append([])
        with pytest.raises(LogError):
            session.append_sql([])


class TestGenerateMany:
    def test_batch_preserves_order_and_matches_individual(self):
        logs = [
            listing_4_log(8).asts(),
            [  # a different analysis
                "SELECT dest, SUM(delay) FROM ontime GROUP BY dest",
                "SELECT dest, AVG(delay) FROM ontime GROUP BY dest",
            ],
            list(LISTING_6),
        ]
        batch = generate_many(logs)
        assert len(batch) == 3
        for log, result in zip(logs, batch):
            assert (
                result.interface.widget_summary()
                == generate(log).interface.widget_summary()
            )

    def test_empty_batch_yields_empty_list(self):
        assert generate_many([]) == []

    def test_empty_log_inside_batch_raises(self):
        with pytest.raises(LogError):
            generate_many([list(LISTING_6), []])

    def test_options_apply_to_every_log(self):
        logs = [listing_4_log(8).asts(), list(LISTING_6)]
        for result in generate_many(logs, options=PipelineOptions(window=None)):
            assert result.provenance["window"] is None


class TestGenerateSegmented:
    def test_mixed_log_yields_one_result_per_analysis(self):
        lookups = ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2"]
        aggregates = [
            "SELECT dest, SUM(delay) FROM ontime GROUP BY dest",
            "SELECT dest, AVG(delay) FROM ontime GROUP BY dest",
        ]
        results = generate_segmented(lookups + aggregates)
        assert len(results) == 2
        assert [r.provenance["segment"] for r in results] == [0, 1]
        assert results[0].provenance["source"] == "sql/analysis-0"
        assert all(r.run.n_queries == 2 for r in results)

    def test_homogeneous_log_stays_whole(self):
        results = generate_segmented(list(LISTING_6))
        assert len(results) == 1
        assert results[0].run.n_queries == 3
