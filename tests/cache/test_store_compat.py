"""On-disk compatibility: a store written by the five-table code opens
as a two-table store.

``fixtures/five_table_store`` holds one key in all five tables the store
once kept (graphs, widget sets, closure proofs, diff memos, compiled
pages), written by the store code that still carried the JSON layout
(the payload of ``_mined(STATEMENTS)`` with its wall-clock
``mining_seconds`` pinned to 0.5).  The segment framing, the META header
and the graph and widget-set payload bytes are unchanged since, so the
current code must read both records, and re-encoding the same payload
must give the same bytes.  The three retired segments are deleted on
open, so that prune caps never count their bytes.
"""

import shutil
from pathlib import Path

from repro.cache.blockstore import SegmentReader
from repro.cache.store import TABLES, GraphStore
from tests.cache.test_packed_store import _mined, _save_all, _typed

FIXTURE = Path(__file__).parent / "fixtures" / "five_table_store"
STATEMENTS = [f"SELECT a FROM t WHERE x = {v}" for v in (1, 2, 5, 9)]
RETIRED = ("proofs.seg", "diffmemos.seg", "compiled.seg")


def test_segments_from_before_the_single_layout_open_byte_identical(tmp_path):
    copy = shutil.copytree(FIXTURE, tmp_path / "old")
    assert all((copy / name).exists() for name in RETIRED)
    old = GraphStore(copy)
    assert not any((copy / name).exists() for name in RETIRED)
    payload = _mined(STATEMENTS)
    payload["stats"].mining_seconds = 0.5
    fresh = GraphStore(tmp_path / "fresh")
    _save_all(fresh, payload)

    (key,) = old.keys()
    assert key == fresh.key(payload["log_fp"], payload["opts_fp"])
    stats = old.stats()
    assert set(stats["bytes_by_table"]) == {"graphs", "widget_sets"}
    assert stats["total_bytes"] == sum(
        (copy / table.segment).stat().st_size for table in TABLES
    )
    for table in TABLES:
        assert stats[table.counter] == 1, table.name
        record = SegmentReader(old.root / table.segment).get(key)
        assert record is not None, table.name
        assert record == SegmentReader(fresh.root / table.segment).get(key), table.name
    for table, (_save, load) in _typed(old, payload).items():
        assert load() is not None, table
