"""Property test: the one-shot path equals the one-shot references.

``generate()`` mines, maps and merges through the incremental code from
an empty base, and ``compile_html`` is a fresh incremental compiler.  On
random template logs and windows, each of those must match its reference
in ``tests/oracle.py``: the mined diffs, edges and counters, the merged
widgets down to every ``D`` coordinate, the closure answers, and the
compiled page byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import generate
from repro.cache.serialize import diff_to_dict
from repro.compiler import compile_html
from repro.core.options import PipelineOptions
from repro.errors import CompileError
from repro.graph.build import BuildStats, build_interaction_graph
from repro.sqlparser.parser import parse_sql
from repro.treediff.memo import DiffMemo
from tests import oracle
from tests.strategies import template_statements


def _records(graph):
    return (
        [diff_to_dict(d) for d in graph.diffs],
        [(e.q1, e.q2, [diff_to_dict(d) for d in e.interaction]) for e in graph.edges],
    )


def _counters(stats):
    return (
        stats.n_pairs_compared,
        stats.n_alignments_memoised,
        stats.n_alignments_full,
    )


@settings(max_examples=40, deadline=None)
@given(template_statements(), st.sampled_from([2, 3, None]))
def test_one_shot_path_equals_the_oracle(statements, window):
    queries = [parse_sql(s) for s in statements]

    stats, reference_stats = BuildStats(), BuildStats()
    graph = build_interaction_graph(
        queries, window=window, stats=stats, memo=DiffMemo()
    )
    reference_graph = oracle.mine(
        queries, window=window, stats=reference_stats, memo=DiffMemo()
    )
    assert _records(graph) == _records(reference_graph)
    assert _counters(stats) == _counters(reference_stats)

    options = PipelineOptions(window=window)
    interface = generate(queries, options=options).interface
    reference = oracle.generate(queries, options)
    assert oracle.widget_coordinates(interface.widgets) == oracle.widget_coordinates(
        reference.widgets
    )
    assert [interface.expresses(q) for q in queries] == [
        reference.expresses(q) for q in queries
    ]

    if not reference.widgets:
        with pytest.raises(CompileError):
            compile_html(interface, limit=64)
        return
    assert compile_html(interface, limit=64) == oracle.compile_html(
        reference, limit=64
    )
