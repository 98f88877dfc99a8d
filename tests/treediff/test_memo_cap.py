"""The per-shape LRU plan cap (``DiffMemo(max_plans_per_shape=...)``).

High-cardinality traffic accumulates one plan per literal pattern of a
shape pair; the cap bounds that table without ever changing extraction
results — evicted patterns fall back to a full alignment, which is the
parity property re-checked here under constant churn.
"""

import pytest

from repro.api import InterfaceSession, generate
from repro.cache.fingerprint import options_fingerprint
from repro.core.options import PipelineOptions
from repro.errors import MappingError
from repro.sqlparser.parser import parse_sql
from repro.treediff import DiffMemo, extract_diffs
from repro.treediff.diff import diff_signature


def _pair(x1, y1, x2, y2):
    """One query pair of a fixed shape whose literal pattern is chosen
    by the equality structure of (x1, y1) vs (x2, y2)."""
    return (
        parse_sql(f"SELECT a FROM t WHERE x = {x1} AND y = {y1}"),
        parse_sql(f"SELECT a FROM t WHERE x = {x2} AND y = {y2}"),
    )


#: four distinct literal patterns of the same skeleton pair
PATTERNS = [
    _pair(1, 2, 1, 3),  # first conjunct equal
    _pair(1, 2, 4, 2),  # second conjunct equal
    _pair(1, 2, 3, 4),  # all distinct
    _pair(1, 1, 2, 2),  # within-tree equalities
]


def _signatures(diffs):
    return [diff_signature(d) for d in diffs]


class TestValidation:
    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            DiffMemo(max_plans_per_shape=0)

    def test_option_below_one_rejected(self):
        with pytest.raises(MappingError):
            PipelineOptions(max_plans_per_shape=0)

    def test_uncapped_keeps_every_pattern(self):
        memo = DiffMemo()
        for a, b in PATTERNS:
            memo.extract(a, b)
        assert memo.n_plans == len(PATTERNS)
        assert memo.n_evicted_plans == 0


class TestEviction:
    def test_cap_bounds_plans_and_counts_evictions(self):
        memo = DiffMemo(max_plans_per_shape=2)
        for a, b in PATTERNS:
            memo.extract(a, b)
        assert memo.n_plans == 2
        assert memo.n_evicted_plans == len(PATTERNS) - 2

    def test_lru_order_a_hit_refreshes(self):
        memo = DiffMemo(max_plans_per_shape=2)
        memo.extract(*PATTERNS[0])
        memo.extract(*PATTERNS[1])
        memo.extract(*PATTERNS[0])  # replay hit: pattern 0 becomes MRU
        memo.extract(*PATTERNS[2])  # evicts pattern 1, not 0
        replayed_before = memo.n_replayed
        memo.extract(*PATTERNS[0])
        assert memo.n_replayed == replayed_before + 1  # 0 still cached
        full_before = memo.n_full
        memo.extract(*PATTERNS[1])
        assert memo.n_full == full_before + 1  # 1 was evicted

    def test_evicted_pattern_still_extracts_correctly(self):
        """Eviction costs a re-alignment, never correctness."""
        memo = DiffMemo(max_plans_per_shape=1)
        for _ in range(3):  # constant churn through the one slot
            for a, b in PATTERNS:
                direct = extract_diffs(a, b)
                memoised = memo.extract(a, b)
                assert _signatures(direct) == _signatures(memoised)
        assert memo.n_evicted_plans > 0


class TestPipelinePlumbing:
    STATEMENTS = [
        "SELECT a FROM t WHERE x = 1",
        "SELECT a FROM t WHERE x = 2",
        "SELECT a FROM t WHERE x = 5",
    ]

    def test_option_reaches_the_mine_stage(self):
        capped = generate(
            self.STATEMENTS,
            options=PipelineOptions(max_plans_per_shape=1),
        )
        plain = generate(self.STATEMENTS)
        assert capped.interface.widget_summary() == plain.interface.widget_summary()

    def test_option_reaches_the_session_memo(self):
        session = InterfaceSession(
            options=PipelineOptions(max_plans_per_shape=3)
        )
        assert session._state.diff_memo.max_plans_per_shape == 3

    def test_cap_excluded_from_options_fingerprint(self):
        """A pure resource knob: capped and uncapped runs must share
        cache entries."""
        assert options_fingerprint(
            PipelineOptions(max_plans_per_shape=5)
        ) == options_fingerprint(PipelineOptions())
