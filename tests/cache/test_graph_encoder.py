"""The graph encoder against its reference.

Every graph record is byte for byte ``tests/oracle.graph_to_jsonl_bytes``
(records built as dicts, dumped line by line) of the same graph: for a
fresh encoder, and for the encoder a session keeps across flushes, which
encodes only what the appends added and renumbers the rest.
"""

import tempfile
from pathlib import Path as FilePath

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import InterfaceSession
from repro.cache.serialize import GraphEncoder, graph_to_jsonl_bytes
from repro.cache.store import GraphStore
from repro.core.options import PipelineOptions
from repro.errors import CacheError
from repro.graph.build import BuildStats, build_interaction_graph, in_build_order
from repro.graph.interaction import Edge, InteractionGraph
from repro.logs import SDSSLogGenerator
from repro.paths import Path
from repro.sqlparser.astnodes import Node
from repro.sqlparser.parser import parse_sql
from repro.treediff.diff import Diff
from tests import oracle
from tests.strategies import awkward_statements, batch_splits, session_workloads


def _interleave(data, first, second):
    """``first`` and ``second`` merged in a random order that keeps each
    one's own order."""
    merged, i, j = [], 0, 0
    while i < len(first) or j < len(second):
        if j == len(second) or (i < len(first) and data.draw(st.booleans())):
            merged.append(first[i])
            i += 1
        else:
            merged.append(second[j])
            j += 1
    return merged


@pytest.mark.parametrize("window", [2, 3, 4, None])
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_every_flush_writes_the_reference_record(window, data):
    """Sessions flushed at random points: each record equals the
    reference encoding of the graph in build order, with its stats."""
    workload = data.draw(session_workloads(max_clients=2))
    with tempfile.TemporaryDirectory() as root:
        for client, (statements, _batches) in workload.items():
            cache_dir = FilePath(root) / client
            mixed = _interleave(data, statements, data.draw(awkward_statements()))
            session = InterfaceSession(PipelineOptions(window=window, cache_dir=str(cache_dir)))
            store = GraphStore(cache_dir)
            for batch in data.draw(batch_splits(mixed)):
                session.append_sql(batch)
                if not data.draw(st.booleans()):
                    continue
                session.flush_to_store()
                state = session._state
                key = store.key(state.fingerprinter.hexdigest(), state.options_fp)
                expected = oracle.graph_to_jsonl_bytes(
                    in_build_order(state.graph), state.build_stats
                )
                assert store.record_get("graphs", key) == expected


def _diff(q1, q2, t1, t2):
    return Diff(q1=q1, q2=q2, path=Path.parse("/0"), t1=t1, t2=t2, kind="num", is_leaf=True)


class TestEncoder:
    def test_fresh_encodes_match_the_reference(self):
        log = SDSSLogGenerator(2).full_log(60, n_clients=3).asts()
        for window in (2, 4, None):
            stats = BuildStats()
            graph = build_interaction_graph(log, window=window, stats=stats)
            extra = {"session": {"n_appends": 3, "note": "é"}}
            assert graph_to_jsonl_bytes(graph, stats, extra) == (
                oracle.graph_to_jsonl_bytes(graph, stats, extra)
            )

    def test_a_row_writes_the_spelling_that_first_reaches_it(self):
        """``5`` and ``5.0`` are one row of the tree table.  A diff that
        sorts before the one the encoder saw first must give the row its
        spelling, as a fresh encode does."""
        five, five_point_zero = Node("NumExpr", {"value": 5}), Node("NumExpr", {"value": 5.0})
        other = Node("NumExpr", {"value": 7})
        queries = [parse_sql(f"SELECT a FROM t WHERE x = {v}") for v in (1, 2, 3)]
        old = _diff(1, 2, five, other)
        new = _diff(0, 2, five_point_zero, other)
        encoder = GraphEncoder()
        first = InteractionGraph(queries=queries, diffs=[old])
        assert encoder.encode(first) == oracle.graph_to_jsonl_bytes(first)
        grown = InteractionGraph(
            queries=queries, diffs=[new, old], edges=[Edge(0, 2, (new,)), Edge(1, 2, (old,))]
        )
        assert encoder.encode(grown) == oracle.graph_to_jsonl_bytes(grown)
        assert b'"value": 5.0' in encoder.encode(grown)

    def test_an_unencodable_value_fails_every_encode(self):
        """Nothing half-encoded is remembered: the bad query fails the
        encode each time, and the encoder still writes the graph once
        the query is gone."""
        good = [parse_sql(f"SELECT a FROM t WHERE x = {v}") for v in (1, 2)]
        bad = Node("SelectStmt", {}, [Node("NumExpr", {"value": object()})])
        encoder = GraphEncoder()
        graph = InteractionGraph(queries=[*good, bad])
        for _ in range(2):
            with pytest.raises(CacheError, match="JSON-serialisable"):
                encoder.encode(graph)
        clean = build_interaction_graph(good, window=2)
        assert encoder.encode(clean) == oracle.graph_to_jsonl_bytes(clean)

    def test_an_edge_outside_the_diffs_table_is_refused(self):
        graph = build_interaction_graph(
            [parse_sql(f"SELECT a FROM t WHERE x = {v}") for v in (1, 2)], window=2
        )
        stray = _diff(0, 1, Node("NumExpr", {"value": 1}), Node("NumExpr", {"value": 2}))
        graph.edges.append(Edge(0, 1, (stray,)))
        with pytest.raises(CacheError, match="not in the graph's diffs table"):
            GraphEncoder().encode(graph)
