"""Property suite: memoised diff extraction == direct diff extraction.

The :class:`~repro.treediff.memo.DiffMemo` replays alignment plans keyed
by skeleton pair + literal pattern; byte-identical output is its hard
contract.  These properties hammer it with:

* random *template* workloads (the traffic the memo is built for —
  repeated shapes, varying literals);
* fully random SELECT ASTs (arbitrary structural inserts/deletes across
  different skeletons);
* adversarial same-skeleton / different-semantics pairs: conjunct lists
  over a tiny literal pool, so pairs share skeletons while their
  concrete equality patterns differ — the case where replaying a plan
  from the wrong pattern would silently mis-align.

Every comparison goes through one *shared* memo (plans accumulated
across examples, maximising replays), and parity covers the diffs
table, the mined edges, the merged widget set, and closure answers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.serialize import (
    diff_memo_from_dict,
    diff_memo_to_dict,
    diff_to_dict,
)
from repro.core.interface import Interface
from repro.core.options import PipelineOptions
from repro.graph.build import BuildStats, build_interaction_graph
from repro.sqlparser.parser import parse_sql
from repro.treediff import DiffMemo, extract_diffs
from tests.helpers import map_diffs
from tests.strategies import select_statements, template_statements

#: one memo shared by every example of each property — replays accumulate
#: across examples, which is exactly the aliasing risk under test
_SHARED_TEMPLATE_MEMO = DiffMemo()
_SHARED_RANDOM_MEMO = DiffMemo()
_SHARED_ADVERSARIAL_MEMO = DiffMemo()

_OPTIONS = PipelineOptions()


def _dicts(diffs):
    return [diff_to_dict(d) for d in diffs]


def _assert_pairwise_parity(asts, memo, prune=True):
    """Memoised extraction of every adjacent pair == direct extraction."""
    for a, b in zip(asts, asts[1:]):
        direct = extract_diffs(a, b, q1=5, q2=9, prune=prune)
        memoised = memo.extract(a, b, q1=5, q2=9, prune=prune)
        assert _dicts(direct) == _dicts(memoised)


def _interface_from(diffs, queries):
    return Interface(
        widgets=map_diffs(diffs, _OPTIONS),
        initial_query=queries[0],
        annotations=_OPTIONS.annotations,
    )


@settings(max_examples=40, deadline=None)
@given(template_statements(min_size=4, max_size=8))
def test_template_workloads_pairwise_parity(statements):
    asts = [parse_sql(sql) for sql in statements]
    _assert_pairwise_parity(asts, _SHARED_TEMPLATE_MEMO)


@settings(max_examples=40, deadline=None)
@given(select_statements(), select_statements())
def test_random_asts_pairwise_parity(a, b):
    for prune in (True, False):
        direct = extract_diffs(a, b, prune=prune)
        memoised = _SHARED_RANDOM_MEMO.extract(a, b, prune=prune)
        assert _dicts(direct) == _dicts(memoised)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=2, max_size=4
            ),
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=2, max_size=4
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_adversarial_same_skeleton_pairs(value_pairs):
    """Pairs drawn from a 3-value literal pool over equal-length conjunct
    lists: same-length pairs share one skeleton pair while their literal
    equality patterns vary freely, so a pattern-blind memo would replay
    wrong plans (the aligner anchors on *concrete* equality)."""
    for left_values, right_values in value_pairs:
        a = parse_sql(
            "SELECT a FROM t WHERE "
            + " AND ".join(f"x = {v}" for v in left_values)
        )
        b = parse_sql(
            "SELECT a FROM t WHERE "
            + " AND ".join(f"x = {v}" for v in right_values)
        )
        direct = extract_diffs(a, b)
        memoised = _SHARED_ADVERSARIAL_MEMO.extract(a, b)
        assert _dicts(direct) == _dicts(memoised)


@settings(max_examples=15, deadline=None)
@given(template_statements(min_size=5, max_size=10))
def test_memoised_mining_full_parity(statements):
    """Graph, widget set, and closure answers from a memoised mine equal
    the direct mine's — the end-to-end contract of the Mine stage."""
    asts = [parse_sql(sql) for sql in statements]
    stats = BuildStats()
    direct = build_interaction_graph(asts, window=4)
    memoised = build_interaction_graph(
        asts, window=4, memo=DiffMemo(), stats=stats
    )
    assert _dicts(direct.diffs) == _dicts(memoised.diffs)
    assert [(e.q1, e.q2) for e in direct.edges] == [
        (e.q1, e.q2) for e in memoised.edges
    ]
    assert (
        stats.n_alignments_memoised + stats.n_alignments_full
        <= stats.n_pairs_compared
    )
    if not direct.diffs:
        return
    direct_iface = _interface_from(direct.diffs, asts)
    memoised_iface = _interface_from(memoised.diffs, asts)
    assert direct_iface.widget_summary() == memoised_iface.widget_summary()
    for probe in asts[-3:]:
        assert direct_iface.expresses(probe) == memoised_iface.expresses(probe)


@settings(max_examples=15, deadline=None)
@given(template_statements(min_size=4, max_size=8))
def test_export_import_roundtrip_parity(statements):
    """A memo serialised to its representative-pair payload and re-imported
    replays byte-identically (and actually replays, not re-aligns)."""
    asts = [parse_sql(sql) for sql in statements]
    source = DiffMemo()
    for a, b in zip(asts, asts[1:]):
        source.extract(a, b)
    payload = diff_memo_to_dict(source.export_pairs())
    restored = DiffMemo()
    restored.import_pairs(diff_memo_from_dict(payload))
    assert restored.n_plans == source.n_plans
    for a, b in zip(asts, asts[1:]):
        direct = extract_diffs(a, b)
        memoised = restored.extract(a, b)
        assert _dicts(direct) == _dicts(memoised)
    # every pair was seen at import time: nothing required a full alignment
    assert restored.n_full == 0
    assert restored.n_replayed == len(asts) - 1


def test_known_adversarial_anchor_flip():
    """The concrete counterexample from the design: same skeletons, but
    the equality pattern moves the LCS anchor, so the two pairs need two
    different plans.  A pattern-blind replay would report the diff at the
    wrong conjunct."""
    memo = DiffMemo()
    cases = [
        ("SELECT a FROM t WHERE x = 0 AND x = 0", "SELECT a FROM t WHERE x = 0 AND x = 245"),
        ("SELECT a FROM t WHERE x = 1 AND x = 2", "SELECT a FROM t WHERE x = 3 AND x = 2"),
        ("SELECT a FROM t WHERE x = 1 AND x = 2", "SELECT a FROM t WHERE x = 2 AND x = 4"),
    ]
    for s1, s2 in cases:
        a, b = parse_sql(s1), parse_sql(s2)
        assert _dicts(extract_diffs(a, b)) == _dicts(memo.extract(a, b))
    # the three equality patterns are distinct, so three plans exist …
    assert memo.n_plans == 3
    # … and a repeat of each case replays its own plan
    before = memo.n_replayed
    for s1, s2 in cases:
        a, b = parse_sql(s1), parse_sql(s2)
        assert _dicts(extract_diffs(a, b)) == _dicts(memo.extract(a, b))
    assert memo.n_replayed == before + len(cases)
