"""On-disk compatibility: segments written before the store served a
single layout open unchanged.

``fixtures/five_table_store`` holds one key in all five tables, written
by the store code that still carried the JSON layout (the payload of
``_mined(STATEMENTS)`` with its wall-clock ``mining_seconds`` pinned to
0.5).  The segment framing, the META header and every record's payload
bytes are unchanged since, so the current code must read every record,
and re-encoding the same payload must give the same bytes.
"""

import shutil
from pathlib import Path

from repro.cache.blockstore import SegmentReader
from repro.cache.store import TABLES, GraphStore
from tests.cache.test_packed_store import _mined, _save_all, _typed

FIXTURE = Path(__file__).parent / "fixtures" / "five_table_store"
STATEMENTS = [f"SELECT a FROM t WHERE x = {v}" for v in (1, 2, 5, 9)]


def test_segments_from_before_the_single_layout_open_byte_identical(tmp_path):
    old = GraphStore(shutil.copytree(FIXTURE, tmp_path / "old"))
    payload = _mined(STATEMENTS)
    payload["stats"].mining_seconds = 0.5
    fresh = GraphStore(tmp_path / "fresh")
    _save_all(fresh, payload)

    (key,) = old.keys()
    assert key == fresh.key(payload["log_fp"], payload["opts_fp"])
    stats = old.stats()
    for table in TABLES:
        assert stats[table.counter] == 1, table.name
        record = SegmentReader(old.root / table.segment).get(key)
        assert record is not None, table.name
        assert record == SegmentReader(fresh.root / table.segment).get(key), table.name
    for table, (_save, load) in _typed(old, payload).items():
        assert load() is not None, table
