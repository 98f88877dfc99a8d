"""Interaction mapper tests (Algorithms 1-3)."""

import pytest

from repro.core.mapper import MapCache, initialize, merge_widgets, pick_widget
from repro.errors import MappingError
from repro.graph import build_interaction_graph, extend_interaction_graph
from repro.sqlparser import parse_sql
from repro.widgets import default_library


def diffs_for(statements, prune=True):
    asts = [parse_sql(s) for s in statements]
    return build_interaction_graph(asts, window=2, prune=prune).diffs


class TestPickWidget:
    def test_numeric_partition_gets_slider(self):
        diffs = diffs_for(
            ["SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 9"]
        )
        widget = pick_widget(diffs, default_library())
        assert widget.widget_type.name == "slider"
        assert widget.domain.size == 2

    def test_string_pair_gets_toggle(self):
        diffs = diffs_for(
            ["SELECT a FROM t WHERE c = 'x'", "SELECT a FROM t WHERE c = 'y'"]
        )
        widget = pick_widget(diffs, default_library())
        assert widget.widget_type.name == "toggle_button"

    def test_string_set_gets_dropdown(self):
        diffs = diffs_for(
            [f"SELECT a FROM t WHERE c = '{v}'" for v in "abcdef"]
        )
        widget = pick_widget(diffs, default_library())
        assert widget.widget_type.name == "dropdown"
        assert widget.domain.size == 6

    def test_huge_string_set_gets_textbox(self):
        diffs = diffs_for(
            [f"SELECT a FROM t WHERE c = 'v{i}'" for i in range(45)]
        )
        widget = pick_widget(diffs, default_library())
        assert widget.widget_type.name == "textbox"

    def test_presence_toggle(self):
        diffs = diffs_for(["SELECT a FROM t", "SELECT TOP 5 a FROM t"])
        widget = pick_widget(diffs, default_library())
        assert widget.widget_type.name == "toggle_button"
        assert widget.domain.includes_none

    def test_empty_partition_returns_none(self):
        assert pick_widget([], default_library()) is None

    def test_no_accepting_type_raises(self):
        diffs = diffs_for(["SELECT a FROM t WHERE x = 1",
                           "SELECT a FROM t WHERE x = 2"])
        from repro.widgets import TOGGLE_BUTTON

        with pytest.raises(MappingError):
            # a library with only a 2-state widget cannot host 3+ options
            three = diffs_for([f"SELECT a FROM t WHERE x = {i}" for i in (1, 2, 3)])
            pick_widget(three, [TOGGLE_BUTTON])
        assert pick_widget(diffs, [TOGGLE_BUTTON]) is not None


class TestInitialize:
    def test_one_widget_per_path(self):
        diffs = diffs_for(
            [
                "SELECT a, sales FROM t WHERE c = 'x' AND n > 1",
                "SELECT a, costs FROM t WHERE c = 'y' AND n > 1",
            ]
        )
        widgets, _, _ = initialize(MapCache(), diffs, default_library())
        assert len({w.path for w in widgets}) == len(widgets)
        # leaf partitions: ColExpr change + StrExpr change + root ancestor
        assert len(widgets) == 3

    def test_empty_diffs_empty_interface(self):
        assert initialize(MapCache(), [], default_library()) == ([], 0, 0)

    def test_only_moved_partitions_are_rebuilt(self):
        asts = [parse_sql(f"SELECT a FROM t WHERE x = {v}") for v in (1, 2, 5)]
        graph = build_interaction_graph(asts[:2], window=2)
        cache = MapCache()
        _, n_reused, n_rebuilt = initialize(cache, graph.diffs, default_library())
        assert (n_reused, n_rebuilt) == (0, 1)
        _, n_reused, n_rebuilt = initialize(cache, graph.diffs, default_library())
        assert (n_reused, n_rebuilt) == (1, 0)
        extend_interaction_graph(graph, asts[2:], window=2)
        _, n_reused, n_rebuilt = initialize(cache, graph.diffs, default_library())
        assert (n_reused, n_rebuilt) == (0, 1)


class TestMerge:
    STATEMENTS = ["SELECT avg(a)", "SELECT count(b)", "SELECT count(c)"]

    def _merged(self, statements):
        cache = MapCache()
        library = default_library()
        widgets, _, _ = initialize(cache, diffs_for(statements), library)
        merged, counters = merge_widgets(widgets, cache, library)
        return widgets, merged, counters

    def test_merge_reduces_cost(self):
        initial, merged, _ = self._merged(self.STATEMENTS)
        assert sum(w.cost for w in merged) <= sum(w.cost for w in initial)
        assert len(merged) <= len(initial)

    def test_merge_keeps_every_query_expressible(self):
        from repro.core.closure import expresses

        asts = [parse_sql(s) for s in self.STATEMENTS]
        _, merged, _ = self._merged(self.STATEMENTS)
        for ast in asts:
            assert expresses(merged, asts[0], ast)

    def test_merge_disabled_keeps_all_partitions(self):
        from repro import PipelineOptions, generate

        merged = generate(self.STATEMENTS).interface.widgets
        unmerged = generate(
            self.STATEMENTS, options=PipelineOptions(merge=False)
        ).interface.widgets
        initial, _, _ = self._merged(self.STATEMENTS)
        assert len(unmerged) >= len(merged)
        assert [w.path for w in unmerged] == [w.path for w in initial]

    def test_stats_recorded(self):
        _, _, counters = self._merged(["SELECT a", "SELECT b"])
        assert counters["n_merge_rounds"] >= 1
        assert counters["n_components"] >= 1
        assert (
            counters["n_components_reused"] + counters["n_components_merged"]
            == counters["n_components"]
        )
