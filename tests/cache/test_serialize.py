"""Round-trip guarantees of the graph serialisation layer."""

import json

import pytest

from repro.cache.serialize import (
    FORMAT_VERSION,
    derived_interval_annotations,
    graph_from_jsonl_bytes,
    graph_to_jsonl_bytes,
    load_graph,
    node_from_dict,
    node_to_dict,
    save_graph,
)
from repro.errors import CacheError
from repro.graph.build import BuildStats, build_interaction_graph
from repro.logs import SDSSLogGenerator
from repro.sqlparser.parser import parse_sql
from tests.helpers import map_diffs


def _records(graph, stats):
    """A graph payload's JSONL records, for tampering."""
    return [json.loads(line) for line in graph_to_jsonl_bytes(graph, stats).splitlines()]


def _from_records(records):
    data = "".join(json.dumps(r) + "\n" for r in records).encode()
    return graph_from_jsonl_bytes(data)


@pytest.fixture(scope="module")
def mined():
    """A real mined graph (60 SDSS queries) plus its build stats."""
    asts = SDSSLogGenerator(seed=0).client_log("C1", "object_lookup", 60).asts()
    stats = BuildStats()
    graph = build_interaction_graph(asts, window=2, stats=stats)
    return graph, stats


class TestNodeRoundTrip:
    def test_parse_tree_round_trips(self):
        node = parse_sql("SELECT a, b FROM t WHERE x = 1 AND y = 'z' ORDER BY a")
        again = node_from_dict(node_to_dict(node))
        assert again.equals(node)

    def test_payload_is_json_serialisable(self):
        node = parse_sql("SELECT a FROM t WHERE x = 1")
        assert node_from_dict(json.loads(json.dumps(node_to_dict(node)))).equals(node)


class TestGraphRoundTrip:
    def test_summary_identical_via_bytes(self, mined):
        graph, stats = mined
        data = graph_to_jsonl_bytes(graph, stats)
        loaded, loaded_stats, _ = graph_from_jsonl_bytes(data)
        assert loaded.summary() == graph.summary()
        assert loaded_stats.n_pairs_compared == stats.n_pairs_compared

    def test_summary_identical_via_file(self, mined, tmp_path):
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats)
        loaded, loaded_stats, _ = load_graph(path)
        assert loaded.summary() == graph.summary()
        assert loaded_stats.n_pairs_compared == stats.n_pairs_compared

    def test_regenerated_interface_identical(self, mined, tmp_path):
        """Acceptance: mapping the reloaded graph yields the same widgets
        as mapping the original — the diffs table and the edge/diff object
        identity both survive the round trip."""
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats)
        loaded, _, _ = load_graph(path)
        original = map_diffs(graph.diffs)
        regenerated = map_diffs(loaded.diffs)
        assert [
            (w.widget_type.name, str(w.path), w.domain.size) for w in regenerated
        ] == [(w.widget_type.name, str(w.path), w.domain.size) for w in original]
        assert sum(w.cost for w in regenerated) == pytest.approx(
            sum(w.cost for w in original)
        )

    def test_interval_annotations_rebuild_identically(self, mined, tmp_path):
        """Interval annotations are *derived* state: they are never
        persisted, so a loaded graph must yield byte-identical
        ``(pre, post, size)`` triples when the index is rebuilt from its
        diffs table — otherwise a resumed session's window signatures
        would not be comparable to the saving session's."""
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats)
        loaded, _, _ = load_graph(path)
        original = derived_interval_annotations(graph)
        rebuilt = derived_interval_annotations(loaded)
        assert rebuilt == original
        assert original, "fixture should mine at least one partition path"
        # and nothing interval-shaped leaked into the on-disk format
        with open(path) as handle:
            assert "pre_order" not in handle.read()

    def test_edges_reference_diff_table_objects(self, mined, tmp_path):
        """Edge.interaction must alias the diffs-table objects after a
        reload (the merge phase keys on object identity)."""
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats)
        loaded, _, _ = load_graph(path)
        table_ids = {id(d) for d in loaded.diffs}
        assert loaded.edges, "fixture should mine at least one edge"
        for edge in loaded.edges:
            for diff in edge.interaction:
                assert id(diff) in table_ids

    def test_extra_metadata_rides_along(self, mined, tmp_path):
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats, extra={"session": {"n_appends": 3}})
        _, _, extra = load_graph(path)
        assert extra == {"session": {"n_appends": 3}}


class TestVersioningAndCorruption:
    def test_version_mismatch_refused(self, mined, tmp_path):
        graph, stats = mined
        records = _records(graph, stats)
        records[0]["version"] = FORMAT_VERSION + 1
        with pytest.raises(CacheError, match="version"):
            _from_records(records)

    def test_truncated_file_refused(self, mined, tmp_path):
        graph, stats = mined
        path = tmp_path / "graph.jsonl"
        save_graph(path, graph, stats)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CacheError, match="truncated"):
            load_graph(path)

    def test_non_header_first_line_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"rec": "query", "node": {"t": "X"}}\n')
        with pytest.raises(CacheError, match="header"):
            load_graph(path)

    def test_bad_json_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CacheError, match="bad JSON"):
            load_graph(path)

    def test_negative_index_refused(self, mined):
        """A corrupt record's negative index must not silently alias the
        wrong table entry via Python's wrap-around indexing."""
        graph, stats = mined
        records = _records(graph, stats)
        first_diff = next(r for r in records if r["rec"] == "diff")
        first_diff["t2"] = -1
        with pytest.raises(CacheError, match="out of range"):
            _from_records(records)

    def test_bad_query_reference_refused(self, mined):
        graph, stats = mined
        records = _records(graph, stats)
        first_query = next(r for r in records if r["rec"] == "query")
        first_query["tree"] = records[0]["n_trees"] + 5
        with pytest.raises(CacheError, match="out of range"):
            _from_records(records)
