"""One run path: ``generate()`` and every session append run the default
pipeline, look the store up in one place and publish through one writer.

``fixtures/one_path_records.json`` holds the graph and widget-set records
that a one-shot ``generate(cache_dir=...)`` and a session flushed after
two appends wrote for ``SQL`` under ``OPTIONS``, produced by the code in
which the session still mined and published by hand (the graph headers'
wall-clock ``mining_seconds`` zeroed).  The single path must write the
same bytes.
"""

import json
from pathlib import Path

import pytest

from repro.api import InterfaceSession, Pipeline, generate
from repro.cache.blockstore import SegmentReader
from repro.cache.store import TABLES, GraphStore
from repro.core.options import PipelineOptions

FIXTURE = Path(__file__).parent / "fixtures" / "one_path_records.json"
SQL = [
    "SELECT a, b FROM t WHERE x = 1 AND y = 'p'",
    "SELECT a, b FROM t WHERE x = 2 AND y = 'p'",
    "SELECT a FROM t WHERE x = 2 AND y = 'q'",
    "SELECT a, b FROM t WHERE x = 5 AND y = 'q'",
    "SELECT a, b FROM t WHERE x = 9 AND y = 'r'",
    "SELECT a FROM t WHERE x = 7 AND y = 'p'",
]
MORE = [
    "SELECT a, b FROM t WHERE x = 3 AND y = 'r'",
    "SELECT a FROM t WHERE x = 4 AND y = 'q'",
]
#: window 3 makes the arrival order of mined diffs differ from the
#: full-build order the store keeps
OPTIONS = {"window": 3}


def store_records(root: Path) -> dict[str, str]:
    """Every live record under ``root`` as ``{"table/key": payload}``,
    with the graph header's ``mining_seconds`` zeroed."""
    records = {}
    for table in TABLES:
        reader = SegmentReader(root / table.segment)
        for key in reader.keys():
            text = reader.get(key).decode("utf-8")
            if table.name == "graphs":
                head, _, rest = text.partition("\n")
                header = json.loads(head)
                header["stats"]["mining_seconds"] = 0
                text = json.dumps(header, sort_keys=True) + "\n" + rest
            records[f"{table.name}/{key}"] = text
    return records


def write_records(root: Path, how: str) -> None:
    """Run ``how`` ("generate" or "session") over ``SQL`` into ``root``."""
    options = PipelineOptions(cache_dir=str(root), **OPTIONS)
    if how == "generate":
        generate(SQL, options=options)
    else:
        session = InterfaceSession(options)
        session.append_sql(SQL[:3])
        session.append_sql(SQL[3:])
        session.flush_to_store()


def _stage_names(result):
    return [report.name for report in result.run.stages]


class TestOneStageList:
    @pytest.mark.parametrize("cached", [False, True])
    def test_first_append_and_generate_report_the_same_stages(
        self, tmp_path, cached
    ):
        options = PipelineOptions(
            cache_dir=str(tmp_path) if cached else None, **OPTIONS
        )
        one_shot = generate(SQL, options=options)
        # a store of its own, so the append misses like the generate did
        if cached:
            options = PipelineOptions(cache_dir=str(tmp_path / "s"), **OPTIONS)
        first = InterfaceSession(options).append_sql(SQL)
        expected = list(Pipeline.default(options).stage_names)
        assert _stage_names(one_shot) == _stage_names(first) == expected
        assert ("cache" in expected) is cached
        later = InterfaceSession(options)
        later.append_sql(SQL[:3])
        assert _stage_names(later.append_sql(SQL[3:])) == expected

    def test_mixed_batches_parse_in_the_parse_stage(self):
        from repro.sqlparser.parser import parse_sql

        session = InterfaceSession()
        result = session.append_batch([SQL[0], parse_sql(SQL[1]), SQL[0]])
        parse = result.run.stage("parse").stats
        assert (parse["n_parsed"], parse["n_parse_hits"]) == (3, 2)
        assert len(session) == 3


class TestAdoption:
    def test_a_first_append_full_hits_what_generate_stored(self, tmp_path):
        options = PipelineOptions(cache_dir=str(tmp_path), **OPTIONS)
        stored = generate(SQL, options=options)
        session = InterfaceSession(options)
        first = session.append_sql(SQL)
        stats = {report.name: report.stats for report in first.run.stages}
        assert stats["cache"]["hit"] is True
        assert stats["cache"]["widgets_hit"] is True
        assert all(stats[name]["skipped"] for name in ("mine", "map", "merge"))
        assert first.run.n_pairs_compared == 0
        assert first.interface.widget_summary() == stored.interface.widget_summary()
        assert session.n_pairs_compared == stored.run.n_pairs_compared

        # the map cache indexes the adopted graph from scratch
        second = session.append_sql(MORE)
        full = generate(SQL + MORE, options=PipelineOptions(**OPTIONS))
        assert second.interface.widget_summary() == full.interface.widget_summary()
        assert second.interface.cost == pytest.approx(full.interface.cost)
        assert session.n_pairs_compared == full.run.n_pairs_compared

    def test_a_flush_writes_back_nothing_the_store_supplied(
        self, tmp_path, monkeypatch
    ):
        options = PipelineOptions(cache_dir=str(tmp_path), **OPTIONS)
        generate(SQL, options=options)
        session = InterfaceSession(options)
        session.append_sql(SQL)
        puts = []
        monkeypatch.setattr(
            GraphStore, "_put", lambda store, *args: puts.append(args[:2])
        )
        session.flush_to_store()
        assert puts == []


class TestRecordsUnchanged:
    @pytest.mark.parametrize("how", ["generate", "session"])
    def test_records_match_the_fixture_byte_for_byte(self, tmp_path, how):
        write_records(tmp_path, how)
        expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[how]
        assert store_records(tmp_path) == expected
