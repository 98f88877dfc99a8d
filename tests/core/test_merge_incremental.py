"""Parity suite: the partition-scoped incremental merge must be
result-equivalent to the global fixed point on every bundled log family
(acceptance criterion of the incremental-generation refactor).

Two layers are exercised, both against the one-shot references in
``tests/oracle.py``:

* mapper level — ``initialize`` + ``merge_widgets`` over one ``MapCache``,
  from empty and then driven through a growing graph, equal the oracle's
  Algorithm 1 + global Algorithm 3 fixed point at every step, down to
  every ``D`` coordinate;
* session level — ``InterfaceSession.append()`` equals the oracle's
  one-shot interface over the concatenated log, both in widget set and in
  closure membership over a recall suite of seen and held-out queries.
"""

import pytest

from tests import oracle
from repro.api import InterfaceSession, generate
from repro.core.mapper import MapCache, initialize, merge_widgets
from repro.core.options import PipelineOptions
from repro.graph.build import build_interaction_graph, extend_interaction_graph
from repro.logs import AdhocLogGenerator, OLAPLogGenerator, SDSSLogGenerator
from repro.logs.sessions import segment_asts
from repro.sqlparser import parse_sql


def _family_log(family: str) -> list:
    if family == "sdss":
        return SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 80).asts()
    if family == "olap":
        return OLAPLogGenerator(seed=1).generate(80).asts()
    if family == "adhoc":
        return AdhocLogGenerator(seed=2).student_log("S1", 70).asts()
    if family == "sessions":
        # the interleaved multi-analysis log the sessions module segments;
        # exercise the segmentation layer, then mine the largest analysis
        mixed = SDSSLogGenerator(seed=3).interleaved(3, 25).asts()
        return max(segment_asts(mixed, 0.3, 0.3), key=len)
    if family == "onehot":
        # adversarial one-hot-component workload: the warm-up carves one
        # big component (a structurally divergent query plants a
        # root-path widget) with a nested function subtree inside it,
        # then every subsequent query re-issues a single template varying
        # one literal — every new diff lands in that component's hot
        # spine while the nested ``f(y, _)`` subtree stays clean, which
        # is exactly the case the dirty-window merge memo must exploit
        warmup = (
            ["SELECT g, SUM(m) FROM t GROUP BY g"]
            + [
                f"SELECT a, b FROM t WHERE x = 0 AND f(y, {j}) = 5"
                for j in range(5)
            ]
            + [
                "SELECT a, b FROM t WHERE x = 0 AND z = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
            ]
        )
        hot = [
            f"SELECT a, b FROM t WHERE x = {value} AND f(y, 3) = 5"
            for value in range(40)
        ]
        return [parse_sql(s) for s in warmup + hot]
    raise AssertionError(family)


FAMILIES = ["sdss", "olap", "adhoc", "sessions"]
ALL_FAMILIES = [*FAMILIES, "onehot"]


def _assert_matches_oracle(cache, graph, options):
    """Map the graph's diffs through ``cache`` and compare with the
    oracle's global fixed point over the same diffs in build order."""
    widgets, _, _ = initialize(
        cache, graph.diffs, options.library, options.annotations
    )
    merged, _ = merge_widgets(widgets, cache, options.library, options.annotations)
    diffs = sorted(graph.diffs, key=lambda d: (d.q1, d.q2))
    reference, _ = oracle.merge(
        oracle.initialize(diffs, options.library, options.annotations),
        diffs,
        options.library,
        options.annotations,
    )
    assert oracle.widget_coordinates(merged) == oracle.widget_coordinates(
        reference
    )


class TestMapperParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_incremental_equals_global_at_every_append(self, family):
        asts = _family_log(family)
        options = PipelineOptions(window=4)
        cache = MapCache()
        graph = build_interaction_graph(asts[: len(asts) // 2], window=4)
        # from empty: the one-shot case
        _assert_matches_oracle(cache, graph, options)
        step = max(1, len(asts) // 10)
        checkpoints = list(range(len(asts) // 2, len(asts), step))
        for start in checkpoints:
            extend_interaction_graph(graph, asts[start : start + step], window=4)
            _assert_matches_oracle(cache, graph, options)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_one_shot_generate_equals_oracle(self, family):
        asts = _family_log(family)
        result = generate(asts)
        reference = oracle.generate(asts)
        assert oracle.widget_coordinates(
            result.interface.widgets
        ) == oracle.widget_coordinates(reference.widgets)
        suite = asts[:10] + asts[-10:]
        assert [result.interface.expresses(q) for q in suite] == [
            reference.expresses(q) for q in suite
        ]

    def test_clean_components_are_reused(self):
        """The dirty-set worklist must actually shrink work: on a log with
        several independent merge components, appends that touch a subset
        leave the rest memoised."""
        asts = AdhocLogGenerator(seed=2).student_log("S1", 120).asts()
        options = PipelineOptions()
        session_cache = MapCache()
        graph = build_interaction_graph(asts[:100], window=2)
        widgets, _, _ = initialize(
            session_cache, graph.diffs, options.library, options.annotations
        )
        merge_widgets(widgets, session_cache, options.library, options.annotations)
        reused_total = 0
        for start in range(100, 120, 4):
            extend_interaction_graph(graph, asts[start : start + 4], window=2)
            widgets, n_reused_paths, _ = initialize(
                session_cache, graph.diffs, options.library, options.annotations
            )
            _, counters = merge_widgets(
                widgets, session_cache, options.library, options.annotations
            )
            n_reused = counters["n_components_reused"]
            assert n_reused + counters["n_components_merged"] >= 1
            assert n_reused_paths > 0  # untouched partitions reuse widgets
            reused_total += n_reused
        assert reused_total > 0  # some components replayed their memo


class TestSessionParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_session_appends_equal_one_shot(self, family):
        asts = _family_log(family)
        session = InterfaceSession()
        step = max(1, len(asts) // 6)
        result = None
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
        full = generate(asts)
        reference = oracle.generate(asts)
        assert oracle.widget_coordinates(
            result.interface.widgets
        ) == oracle.widget_coordinates(reference.widgets)
        assert result.interface.cost == pytest.approx(reference.cost)
        # pair-set identity: the session aligned exactly the pairs one
        # full build over the concatenated log would have
        assert session.n_pairs_compared == full.run.n_pairs_compared

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_closure_membership_parity_on_recall_suite(self, family):
        """Same widget set must mean same closure: membership verdicts for
        seen queries and structurally-near held-out queries agree between
        the incremental and the one-shot interface."""
        asts = _family_log(family)
        split = (len(asts) * 3) // 4
        session = InterfaceSession()
        step = max(1, split // 4)
        for start in range(0, split, step):
            session.append(asts[start : start + step])
        reference = oracle.generate(asts[:split])
        suite = asts[:split][:10] + asts[split:][:10]
        incremental_verdicts = [session.expresses(q) for q in suite]
        one_shot_verdicts = [reference.expresses(q) for q in suite]
        assert incremental_verdicts == one_shot_verdicts
        # every seen query is expressible (the paper's g = 1 guarantee)
        assert all(incremental_verdicts[: len(asts[:split][:10])])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_widget_and_closure_parity_at_every_append(self, family):
        """Strong form of the parity guarantee: not just the final state —
        after *every* append the session's widget set and its closure
        verdicts over the queries seen so far match a one-shot build of
        the same prefix byte for byte."""
        asts = _family_log(family)
        session = InterfaceSession()
        step = max(1, len(asts) // 5)
        for start in range(0, len(asts), step):
            result = session.append(asts[start : start + step])
            prefix = asts[: start + step]
            reference = oracle.generate(prefix)
            assert oracle.widget_coordinates(
                result.interface.widgets
            ) == oracle.widget_coordinates(reference.widgets)
            suite = prefix[:8]
            assert [session.expresses(q) for q in suite] == [
                reference.expresses(q) for q in suite
            ]

    def test_merge_stage_reports_component_counters(self):
        asts = _family_log("adhoc")
        session = InterfaceSession()
        session.append(asts[:50])
        second = session.append(asts[50:])
        stats = second.run.stage("merge").stats
        assert stats["n_components"] >= 1
        assert (
            stats["n_components_reused"] + stats["n_components_merged"]
            == stats["n_components"]
        )


class TestWindowReuse:
    def test_onehot_appends_replay_clean_sibling_windows(self):
        """The point of the interval index: on the one-hot workload the
        hot component is dirty at every append, but the clean nested
        subtree inside it replays memoised merge steps instead of
        re-merging — the fixed point narrows to the dirty spine."""
        asts = _family_log("onehot")
        session = InterfaceSession()
        session.append(asts[:14])
        for start in range(14, len(asts), 5):
            result = session.append(asts[start : start + 5])
            stats = result.run.stage("merge").stats
            # every steady-state append replays at least one clean window
            assert stats["n_windows_reused"] > 0
        assert session.n_windows_reused > 0
        # the cumulative session counters aggregate the per-append stats
        assert session.n_windows_merged > 0

    def test_onehot_leaves_cold_components_memoised(self):
        """A multi-component variant: the projection-slot and the
        f-subtree-replacement components stay cold under one-hot appends,
        so the component memo replays them wholesale while only the hot
        literal's component re-merges."""
        statements = (
            [
                f"SELECT a, b FROM t WHERE x = 0 AND f(y, {j}) = 5"
                for j in range(5)
            ]
            + [
                "SELECT a, b FROM t WHERE x = 0 AND z = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT c, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT d, b FROM t WHERE x = 0 AND f(y, 2) = 5",
                "SELECT a, b FROM t WHERE x = 0 AND f(y, 2) = 5",
            ]
            + [
                f"SELECT a, b FROM t WHERE x = {value} AND f(y, 2) = 5"
                for value in range(30)
            ]
        )
        asts = [parse_sql(s) for s in statements]
        session = InterfaceSession()
        session.append(asts[:14])
        reused = 0
        for start in range(14, len(asts), 5):
            result = session.append(asts[start : start + 5])
            stats = result.run.stage("merge").stats
            reused += stats["n_components_reused"]
        assert reused > 0
